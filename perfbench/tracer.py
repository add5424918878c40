"""Run-time timing wrappers around permnet's public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``permnet`` module namespace that bound it (``forest.validate`` and
``poset.enumerate_networks`` as well as ``network.*``), and on the
``NetworkLattice`` class for its methods.  ``Tracer.restore`` puts every
original back.  The library itself is not modified.

Each wrapper records one span per call.  Spans are aggregated as they
close: calls, and self time, which is the span's duration minus the time
covered by the traced spans it caused.  Counts are taken at the same
boundaries, from the arguments and results of the traced calls.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, attribute): ``Class.method`` names a method of a class defined in
# that module.  Every entry yields ``<module>.<attribute>.calls`` and
# ``<module>.<attribute>.self_s``.
TRACED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("checks", "check_bijection"),
    ("checks", "check_polyomino"),
    ("checks", "check_rothe"),
    ("checks", "check_forest"),
    ("checks", "check_lattice"),
    ("checks", "check_whitney"),
    ("checks", "check_mobius"),
    ("checks", "check_el"),
    ("poset", "build_lattice"),
    ("poset", "whitney_direct"),
    ("poset", "NetworkLattice.join"),
    ("poset", "NetworkLattice.mobius_recursive"),
    ("poset", "NetworkLattice.mobius_closed"),
    ("poset", "NetworkLattice.decreasing_chain_count"),
    ("poset", "NetworkLattice.rising_chains"),
    ("poset", "NetworkLattice.snelling_check"),
    ("network", "enumerate_networks"),
    ("network", "compatible"),
    ("network", "from_permutation"),
    ("network", "to_permutation"),
    ("network", "validate"),
    ("network", "completion_violation"),
    ("forest", "enumerate_forests"),
    ("forest", "to_network"),
    ("forest", "from_network"),
    ("forest", "strand_permutation"),
    ("forest", "leaf_deletion_permutation"),
    ("forest", "generating_function"),
    ("perm", "swap_length"),
    ("diagram", "rothe_diagram"),
    ("diagram", "rothe_edges"),
    ("diagram", "polyomino_edges"),
    ("diagram", "polyomino_permutation"),
)

# Methods that query one interval [x, y] of a lattice.
INTERVAL_METHODS = {
    "NetworkLattice.mobius_recursive",
    "NetworkLattice.mobius_closed",
    "NetworkLattice.decreasing_chain_count",
    "NetworkLattice.rising_chains",
    "NetworkLattice.snelling_check",
}

# Counts and ratios beside the per-function spans, with their units.
COUNTS = {
    "network.words_scanned": "count",
    "network.enumerate.kept_ratio": "ratio",
    "network.validations": "count",
    "network.completion_violation.edge_pairs": "count",
    "poset.lattice.elements": "count",
    "poset.lattice.covers": "count",
    "poset.intervals": "count",
    "perm.swap_levels.hit_ratio": "ratio",
    "cli.out_bytes": "B",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, attr in TRACED:
        units[f"{module}.{attr}.calls"] = "count"
        units[f"{module}.{attr}.self_s"] = "s"
    del units["network.validate.calls"]  # reported as network.validations
    units.update(COUNTS)
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {
            "network.words_scanned": 0,
            "network.enumerate.kept": 0,
            "network.completion_violation.edge_pairs": 0,
            "poset.lattice.elements": 0,
            "poset.lattice.covers": 0,
            "poset.intervals": 0,
            "cli.out_bytes": 0,
        }
        self._child_s: list[float] = []  # one entry per open span
        self._enumerating = 0  # open enumerate_networks spans
        self._intervals: dict[int, tuple[weakref.ref, set]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers --

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "permnet" or name.startswith("permnet."))
        ]
        hooks = self._hooks()
        for module, attr in TRACED:
            name = f"{module}.{attr}"
            owner = sys.modules[f"permnet.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def _patch(self, target, key: str, original, wrapper) -> None:
        setattr(target, key, wrapper)
        self._patches.append((target, key, original))

    def restore(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans --

    def _wrap(self, name: str, fn, after):
        interval = name.split(".", 1)[1] in INTERVAL_METHODS
        enumerate_span = name == "network.enumerate_networks"
        scanned = name == "network.from_permutation"
        child_s = self._child_s
        clock = time.perf_counter
        self.calls[name] = 0
        self.self_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if scanned and self._enumerating:
                self.counts["network.words_scanned"] += 1
            if enumerate_span:
                self._enumerating += 1
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += spent
                self.calls[name] += 1
                self.self_s[name] += spent - inner
                if enumerate_span:
                    self._enumerating -= 1
            if interval:
                self._interval(*args[:3])
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self):
        counts = self.counts

        def violation(args, _kwargs, _result):
            # Every caller passes a frozenset; an iterator would be spent here.
            size = len(args[0])
            counts["network.completion_violation.edge_pairs"] += size * size

        def enumerated(_args, _kwargs, result):
            counts["network.enumerate.kept"] += len(result)

        def lattice(_args, _kwargs, lat):
            counts["poset.lattice.elements"] += len(lat.elements)
            counts["poset.lattice.covers"] += sum(len(up) for up in lat.up_adj)

        def printed(args, kwargs, _rc):
            out = kwargs["out"] if "out" in kwargs else args[1]
            counts["cli.out_bytes"] += len(out.getvalue().encode())

        return {
            "cli.main": printed,
            "network.completion_violation": violation,
            "network.enumerate_networks": enumerated,
            "poset.build_lattice": lattice,
        }

    def _interval(self, lat, x, y) -> None:
        """Count each interval [x, y] of each lattice once."""
        key = id(lat)
        entry = self._intervals.get(key)
        if entry is None or entry[0]() is not lat:
            ref = weakref.ref(lat, lambda _r, k=key: self._intervals.pop(k, None))
            entry = (ref, set())
            self._intervals[key] = entry
        pair = (lat.idx(x), lat.idx(y))
        if pair not in entry[1]:
            entry[1].add(pair)
            self.counts["poset.intervals"] += 1

    # -- results --

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``."""
        from permnet import perm

        out: dict[str, float] = {}
        for module, attr in TRACED:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out["network.validations"] = out.pop("network.validate.calls")
        out.update(self.counts)
        kept = out.pop("network.enumerate.kept")
        scanned = out["network.words_scanned"]
        out["network.enumerate.kept_ratio"] = kept / scanned if scanned else 0.0
        info = perm.swap_levels.cache_info()
        lookups = info.hits + info.misses
        out["perm.swap_levels.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out
