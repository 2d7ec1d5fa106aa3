"""In-memory span recorder and the layer instrumentation of caralab.

Instrumentation works from outside the package: `Instrumentation.install`
rebinds the names each caralab module imported from the next (for example
`caralab.glued.annulus_upper_bound`) to timing wrappers, and `restore` puts
the originals back.  Nothing under `src/` is edited.  Spans live in flat
arrays until `summarize` turns them into per-layer self times; `save` writes
them out once the run is over.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

perf_ns = time.perf_counter_ns


class Recorder:
    """Flat span store: name id, parent span index, start and end in ns."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_ns()
        self.stack.pop()

    def current(self) -> int:
        i = self.stack[-1]
        return -1 if i < 0 else self.name[i]

    def wrap(self, name: str, fn, after=None, reentrant: bool = True):
        """Return fn timed as span `name`; `after(args, result)` runs once the
        span has closed.  With reentrant=False a call made while the same span
        is open (recursion) gets no span of its own."""
        nid = self.intern(name)

        def wrapper(*args, **kwargs):
            if not reentrant and self.current() == nid:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def summarize(self) -> dict:
        """Calls and self seconds per span name, and the totals over root spans.

        Self time is a span's duration minus the time its direct children
        cover; children nest inside their parent on one thread.
        """
        name, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_ns = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_ns, minlength=k) / 1e9
        return {
            "calls": {nm: int(calls[i]) for i, nm in enumerate(self.names)},
            "self_s": {nm: float(self_s[i]) for i, nm in enumerate(self.names)},
            "root_self_s": float(self_ns[~has_parent].sum() / 1e9),
            "tree_self_s": float(self_ns.sum() / 1e9),
            "children_of": self._children_of(name, parent, has_parent),
            "counters": dict(self.counters),
        }

    def _children_of(self, name, parent, has_parent) -> dict:
        # Direct-parent pair counts, e.g. how many annulus.upper spans each
        # glued.upper span opened.
        pairs = Counter(
            zip(name[parent[has_parent]].tolist(), name[has_parent].tolist())
        )
        return {f"{self.names[p]}>{self.names[c]}": v for (p, c), v in pairs.items()}

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, start_ns=start, end_ns=end
        )


# Elements each sweep evaluates, derived from its arguments (a computed
# figure, not one the program counts).
SWEEP_ELEMENTS = {
    "verify_upper_bound_sweep": lambda a: a[0] - 1,
    "verify_two_pi_limit": lambda a: 5,
    "verify_lower_bound_sweep": lambda a: a[1] - 2,
    "verify_final_chain": lambda a: 2 ** (a[1] + 1) - 2,
    "verify_one_over_e_products": lambda a: 2 ** (a[1] + 1) - 2,
}


class Instrumentation:
    """Rebinds caralab's cross-module names to `Recorder` wrappers."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved: list = []
        self.lower_calls: list = []  # (R, a, b, value) per annulus lower bound

    def _rebind(self, owner, attr: str, replacement) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, module, attr: str, name: str, after=None, reentrant=True) -> None:
        self._rebind(module, attr, self.rec.wrap(name, getattr(module, attr), after, reentrant))

    def install(self) -> None:
        import caralab.annulus as annulus
        import caralab.cli as cli
        import caralab.disk as disk
        import caralab.glued as glued

        rec = self.rec
        counters = rec.counters

        def count_nfev(args, res):
            counters["annulus.lower.optimizer.nfev"] += int(res.nfev)

        def keep_lower(args, res):
            cfg, a, b = args[:3]
            self.lower_calls.append((cfg.R, complex(a), complex(b), res[0]))

        def count_zeros(args, product):
            counters["disk.blaschke_new.zeros"] += product.degree

        mobius = "disk.mobius_distance"
        self._wrap(annulus, "minimize", "annulus.lower.optimizer", after=count_nfev)
        self._wrap(annulus, "mobius_distance", mobius)
        self._wrap(glued, "mobius_distance", mobius)
        for module in (annulus, glued):
            self._wrap(module, "annulus_lower_bound", "annulus.lower", after=keep_lower)
            self._wrap(module, "annulus_upper_bound", "annulus.upper")
        self._wrap(glued, "glued_lower_bound", "glued.lower")
        self._wrap(glued, "glued_upper_bound", "glued.upper")
        self._wrap(glued, "BlaschkeProduct", "disk.blaschke_new", after=count_zeros)
        # Cached products outlive any rebinding, so evaluation is wrapped on
        # the class itself.
        self._rebind(
            disk.BlaschkeProduct, "__call__",
            rec.wrap("disk.blaschke_eval", disk.BlaschkeProduct.__call__),
        )

        def add_elements(fn):
            def after(args, res):
                counters["sweeps.elements_computed"] += SWEEP_ELEMENTS[fn](args)

            return after

        for fn in SWEEP_ELEMENTS:
            self._wrap(cli, fn, f"sweeps.{fn}", after=add_elements(fn))
        # The glued 2/e cap runs the block-product sweep on its own.
        fn = "verify_one_over_e_products"
        self._wrap(glued, fn, f"sweeps.{fn}", after=add_elements(fn))
        self._wrap(cli, "render_json", "cli.render_json", reentrant=False)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
