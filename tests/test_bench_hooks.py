"""The benchmark's hooks into caralab still work.

perfbench/spans.py wraps caralab functions by module attribute name, and
perfbench/workloads.py checks caralab's outputs, so a change inside caralab
that breaks either only shows up in benchmark runs.  Both files are loaded
read-only (conftest.load_perfbench).
"""

import caralab.annulus as annulus
import caralab.cli as cli
import caralab.disk as disk
import caralab.glued as glued
from caralab import AnnulusConfig
from conftest import load_perfbench

OWNERS = (annulus, cli, disk, glued, disk.BlaschkeProduct)


def snapshot() -> list:
    return [dict(vars(owner)) for owner in OWNERS]


def test_instrumentation_rebinds_and_restores_every_name():
    spans = load_perfbench("spans")
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


def test_a_traced_lower_bound_opens_no_optimizer_span():
    # The degree-2 maps sit at a closed-form angle: spans.py still wraps
    # annulus.minimize, but nothing calls it, so its span and nfev read 0.
    spans = load_perfbench("spans")
    rec = spans.Recorder()
    inst = spans.Instrumentation(rec)
    try:
        inst.install()
        annulus.annulus_lower_bound(AnnulusConfig(R=4.0, grid_density=2), 2.0 + 0.5j, -1.5 + 1.2j)
    finally:
        inst.restore()
    calls = rec.summarize()["calls"]
    assert calls["annulus.lower"] == 1
    assert calls["annulus.lower.optimizer"] == 0
    assert rec.counters["annulus.lower.optimizer.nfev"] == 0


def test_one_glued_deep_cycle_passes_the_workload_checks():
    workloads = load_perfbench("workloads")
    work = workloads.GluedDeep(seed=3, seconds=1.0)
    results = {i: work.op(i) for i in range(work.cycle)}
    errors = [(i, e) for i, br in results.items() for e in work.check(i, br)]
    assert errors == []
    assert work.post_checks(results) == []


def test_a_traced_cli_run_spans_every_sweep(capsys):
    # spans.SWEEP_ELEMENTS reads each sweep's arguments by position, so a
    # signature change would break a traced benchmark run silently.
    spans = load_perfbench("spans")
    rec = spans.Recorder()
    inst = spans.Instrumentation(rec)
    try:
        inst.install()
        codes = [
            cli.main(["verify-lemmas", "--R", "4", "--m-max", "2000", "--n-max", "8"]),
            cli.main(["glued", "distance", "--N", "4", "0:2,0.5", "3:-1.5,1.2"]),
        ]
    finally:
        inst.restore()
    capsys.readouterr()
    assert codes == [0, 0]
    calls = rec.summarize()["calls"]
    assert {f"sweeps.{fn}": calls.get(f"sweeps.{fn}") for fn in spans.SWEEP_ELEMENTS} == {
        f"sweeps.{fn}": 1 for fn in spans.SWEEP_ELEMENTS
    }
    assert calls["glued.lower"] == calls["glued.upper"] == 1
    assert rec.counters["sweeps.elements_computed"] > 0
