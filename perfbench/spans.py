"""Span recording for the traced run.

``install`` replaces public module attributes of ratlam (the name in the
defining module and in every module that imported it) with wrappers that
record one span per call: name, start, end, parent span, request id, whether
it raised, and a small value observed on its result.  Spans stay in memory
until the run ends.  ``nominal`` helpers, ``fv`` and ``OrbitElement`` are too
hot to trace; their cost lands in the self time of their callers.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from math import factorial
from time import perf_counter

import reference as ref

MODULES = ("nominal", "orbits", "terms", "coalgebra", "substitution", "boehm", "cli")


def _c_construct(a, k, r):
    carrier = a[2] if len(a) > 2 else k.get("carrier")
    bound = len(carrier.schemas) * factorial(a[0].support_bound + 1) if carrier else None
    return len(r.nodes), bound


# (module, function) → observer(args, kwargs, result) or None
TRACED = {
    ("terms", "parse_term"): None,
    ("terms", "graph_of"): None,
    ("terms", "print_term"): None,
    ("terms", "print_graph"): lambda a, k, r: r,
    ("terms", "truncate"): None,
    ("terms", "alpha_bisim"): None,
    ("terms", "subtree_count"): None,
    ("terms", "minimize"): lambda a, k, r: (len(a[0].nodes), len(r.nodes)),
    ("terms", "fv_map"): None,
    ("cli", "run"): None,
    ("coalgebra", "gen_rsigma"): None,
    ("coalgebra", "orbit_count"): None,
    ("coalgebra", "graph_to_coalgebra"): lambda a, k, r: len(r[0].carrier.schemas),
    ("coalgebra", "instantiate"): None,
    ("coalgebra", "c_construct"): _c_construct,
    ("orbits", "enumerate_support_in"): lambda a, k, r: len(r),
    ("substitution", "subst_rational"): None,
    ("substitution", "subst_finite"): None,
    ("boehm", "head_reduce"): lambda a, k, r: bool(getattr(r, "fuel_exhausted", False)),
    ("boehm", "bt_truncate"): None,
    ("boehm", "bt_graph"): lambda a, k, r: r is None,
}
# Functions that call themselves through their module attribute: only their
# call sites in other modules are replaced, so a span is one top-level call.
SELF_RECURSIVE = {("substitution", "subst_finite")}
METHODS = {("terms", "fv_map"): "TermGraph"}
# Calls answered from a per-object cache get no span: fv_map is asked once per
# bisimulation state, and only the call that computes the map is work.
CACHED = {("terms", "fv_map"): lambda a: getattr(a[0], "_fv", None) is not None}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self._patches: list = []

    def _wrap(self, name, fn, observe, cached=None):
        spans, stack = self.spans, self.stack

        def wrapper(*a, **k):
            if cached is not None and cached(a):
                return fn(*a, **k)
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            ok, info = False, None
            t0 = perf_counter()
            try:
                r = fn(*a, **k)
                ok = True
                if observe is not None:
                    info = observe(a, k, r)
                return r
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (name, t0, t1, parent, self.request, ok, info)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, lib):
        mods = [lib.ratlam] + [getattr(lib, m) for m in MODULES]
        for (home, fname), observe in TRACED.items():
            name = f"{home}.{fname}"
            if (home, fname) in METHODS:
                cls = getattr(getattr(lib, home), METHODS[home, fname])
                orig = cls.__dict__[fname]
                self._patches.append((cls, fname, orig))
                setattr(cls, fname, self._wrap(name, orig, observe, CACHED.get((home, fname))))
                continue
            orig = getattr(getattr(lib, home), fname)
            wrapper = self._wrap(name, orig, observe)
            for m in mods:
                if m.__dict__.get(fname) is orig:
                    if m is getattr(lib, home) and (home, fname) in SELF_RECURSIVE:
                        continue
                    self._patches.append((m, fname, orig))
                    setattr(m, fname, wrapper)

    def uninstall(self):
        for obj, fname, orig in reversed(self._patches):
            setattr(obj, fname, orig)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, req, ok, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "request": req, "failed": not ok}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_names() -> list[str]:
    return [f"{h}.{f}" for h, f in TRACED]


def per_layer(spans, setup_spans: int, passes: int, requests, overhead: float) -> dict:
    """Per-layer metrics: totals per pass of the traced run, plus one set-up.

    Counts and self times of set-up spans (the first ``setup_spans``) are
    counted once; all other spans are divided by the number of passes.
    """
    child = defaultdict(float)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    # [set-up total, traced-passes total] per name
    calls, self_s, failed = (defaultdict(lambda: [0.0, 0.0]) for _ in range(3))
    info = defaultdict(list)
    top = defaultdict(list)  # (name, family, size) → durations of calls made by the benchmark
    for i, (name, t0, t1, parent, req, ok, obs) in enumerate(spans):
        j = 0 if i < setup_spans else 1
        calls[name][j] += 1
        self_s[name][j] += t1 - t0 - child[i]
        failed[name][j] += not ok
        if ok and obs is not None:
            info[name].append(obs)
        if parent < 0 and req >= 0:
            r = requests[req]
            top[name, r.family, r.size].append(t1 - t0)

    def per_pass(acc):
        return acc[0] + acc[1] / passes

    out = {}
    for name in layer_names():
        out[f"{name}.calls"] = (per_pass(calls[name]), "count", "lower")
        out[f"{name}.self_s"] = (per_pass(self_s[name]), "s", "lower")
        out[f"{name}.failed"] = (per_pass(failed[name]), "count", "lower")

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    for name in ("terms.print_graph", "terms.subtree_count", "terms.fv_map"):
        out[f"{name}.exp"] = (_loglog_slope(top, name, ("chain", "ring")), "slope", "lower")
    # a print_graph call that raised counts as output that does not read back
    printed = info["terms.print_graph"]
    reads = {s: _reads_back(s) for s in set(printed)}
    raised = sum(1 for sp in spans if sp[0] == "terms.print_graph" and not sp[5])
    out["terms.print_graph.roundtrip_ok_share"] = (
        sum(reads[s] for s in printed) / (len(printed) + raised) if printed or raised else 0.0,
        "share", "higher")
    merged = info["terms.minimize"]
    out["terms.minimize.merge_ratio"] = (
        sum(o for _, o in merged) / sum(i for i, _ in merged) if merged else 0.0,
        "ratio", "lower")
    out["coalgebra.orbit_count.exp_k"] = (_per_k_factor(top, "coalgebra.orbit_count", "cycle"),
                                          "x", "lower")
    out["coalgebra.graph_to_coalgebra.orbits_out"] = (
        mean(info["coalgebra.graph_to_coalgebra"]), "count", "lower")
    built = info["coalgebra.c_construct"]
    out["coalgebra.c_construct.nodes_out"] = (mean([n for n, _ in built]), "count", "lower")
    out["coalgebra.c_construct.bound_ratio"] = (
        mean([n / b for n, b in built if b]), "ratio", "lower")
    out["orbits.enumerate_support_in.elements_out"] = (
        mean(info["orbits.enumerate_support_in"]), "count", "lower")
    out["boehm.head_reduce.fuel_out_share"] = (mean(info["boehm.head_reduce"]), "share", "lower")
    out["boehm.bt_graph.unknown_share"] = (mean(info["boehm.bt_graph"]), "share", "lower")
    out["trace.overhead_share"] = (overhead, "share", "lower")
    return out


def _reads_back(text: str) -> bool:
    try:
        ref.read_muterm(text)
        return True
    except ref.ReadError:
        return False


def _loglog_slope(top, name, families) -> float:
    """Least-squares slope of log(time) on log(size), one intercept per family."""
    sxx = sxy = 0.0
    for fam in families:
        pts = [(math.log(size), math.log(statistics.median(ts)))
               for (n, f, size), ts in top.items() if n == name and f == fam]
        if len(pts) < 2:
            continue
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else 0.0


def _per_k_factor(top, name, family) -> float:
    """Growth factor of time per added free variable: exp of the slope of
    log(time) on k."""
    pts = [(size, math.log(statistics.median(ts)))
           for (n, f, size), ts in top.items() if n == name and f == family]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return math.exp(sum((x - mx) * (y - my) for x, y in pts) / sxx)
