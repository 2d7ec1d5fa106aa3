"""The benchmark's layer instrumentation still finds every caralab name it
rebinds, and puts each one back.

perfbench/spans.py wraps caralab functions by module attribute name, so a
rename inside caralab only shows up in traced benchmark runs.  This loads
that file without importing the perfbench package or writing bytecode next
to it.
"""

import types
from pathlib import Path

import caralab.annulus as annulus
import caralab.cli as cli
import caralab.disk as disk
import caralab.glued as glued

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (annulus, cli, disk, glued, disk.BlaschkeProduct)


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def snapshot() -> list:
    return [dict(vars(owner)) for owner in OWNERS]


def test_instrumentation_rebinds_and_restores_every_name():
    spans = load_spans()
    before = snapshot()
    inst = spans.Instrumentation(spans.Recorder())
    try:
        inst.install()
        during = snapshot()
    finally:
        inst.restore()
    changed = [
        name
        for old, new in zip(before, during)
        for name in old
        if new[name] is not old[name]
    ]
    # install() raises AttributeError on a name caralab no longer has.
    assert changed
    # Every name the instrumentation touched is back to the very same object.
    after = snapshot()
    for owner, old, new in zip(OWNERS, before, after):
        assert new.keys() == old.keys(), owner
        assert all(new[name] is old[name] for name in old), owner
