"""ratlam benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload graph-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ratlam is imported from its ``src/``.  The
seed makes the inputs.  A run repeats whole passes over the workload's
requests for about ``--seconds``; each request is timed from the call into
ratlam to its return, and its result is then checked against the
benchmark's own reference (``reference.py``).  Preparation of fresh argument
objects and the checks are not timed.  The latencies are each request's
fastest over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with span-recording wrappers installed, prints the
per-layer metrics, and writes the spans to ``.perfbench/``.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

# Caps on this process turn out-of-memory and hangs into failed requests.
# Both sit far from every request that completes: the largest completing
# request peaks near 200 MB and runs under 5 s.
ADDRESS_SPACE_CAP = 768 * 2**20
REQUEST_ALARM_S = 30.0
# Set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET_S have
# gone by (at most SETUP_MAX times); its median is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 40, 3.0
# After the check pass a request that took under REPEAT_S is sent several
# times a pass, for about REPEAT_S in all and at most REPEAT_MAX times, its
# calls spread evenly over the pass: small requests get many samples taken at
# different moments, big ones cost one call a pass.
REPEAT_S, REPEAT_MAX = 0.05, 10

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference as ref  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402


class RequestTimeout(BaseException):
    """Raised by the per-request alarm; passes through any ``except Exception``."""


def _alarm(signum, frame):
    raise RequestTimeout()


def import_ratlam() -> SimpleNamespace:
    """Import ratlam afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "ratlam" or m.startswith("ratlam.")]:
        del sys.modules[name]
    lib = SimpleNamespace(ratlam=importlib.import_module("ratlam"))
    for m in tracing.MODULES:
        setattr(lib, m, importlib.import_module(f"ratlam.{m}"))
    if not Path(lib.ratlam.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"ratlam was found at {lib.ratlam.__file__}, not under {SRC}")
    return lib


def setup(workload: str, seed: int, tracer=None):
    """Import ratlam and build the inputs; returns (lib, requests, seconds)."""
    t0 = perf_counter()
    lib = import_ratlam()
    if tracer is not None:
        tracer.install(lib)
    rng = random.Random(seed)
    requests = workloads.WORKLOADS[workload](lib, rng, WORKDIR / f"{workload}-seed{seed}")
    rng.shuffle(requests)
    return lib, requests, perf_counter() - t0


def classify(req, exc: BaseException) -> str:
    if isinstance(exc, RecursionError):
        return "recursion-limit"
    if isinstance(exc, MemoryError):
        return "memory-cap"
    if isinstance(exc, RequestTimeout):
        return "time-cap"
    kind = type(exc).__name__
    if req.reads_printed and kind in workloads.PARSE_ERRORS:
        return "print-unparseable"
    return f"unexpected:{kind}"


class Loop:
    """The closed loop: the next request is sent when the previous one is done.

    The first pass is the check pass: its verdicts are the run's outcome,
    ``attempted`` and ``failed`` count its requests, and failures are kept by
    label.  Later passes send small requests several times (``REPEAT_S``),
    and every call must reproduce the request's verdict.  Each request keeps
    the fastest of its latencies (the convention of ``timeit``): the
    machine's shared cores slow whole stretches of a run by tens of percent,
    and the fastest call is the figure that stays put.
    """

    def __init__(self, requests, tracer=None, repeat=True):
        self.requests = requests
        self.tracer = tracer
        self.repeat = repeat
        self.passes = 0
        self.verdicts: list[str | None] = []
        self.best: list[float] = []
        self.schedule: list[tuple[int, int]] = []  # (request, its j-th call) of a pass
        self.samples: list[float] = []  # the first call of each request in each pass
        self.flaky = 0
        self.failures: dict[str, int] = {}

    def one(self, rid: int, req) -> tuple[float, str | None]:
        args = req.prepare()
        if self.tracer is not None:
            self.tracer.request = rid
        label = None
        signal.setitimer(signal.ITIMER_REAL, REQUEST_ALARM_S)
        t0 = perf_counter()
        try:
            out = req.run(*args)
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        except (Exception, RequestTimeout) as e:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            label = classify(req, e)
            out = None
        del args
        if label is None:
            try:
                label = req.check(out, req.want)
            except ref.ReadError:
                label = "wrong-output:unreadable"
        return t1 - t0, label

    def check_pass(self) -> None:
        for rid, req in enumerate(self.requests):
            dt, label = self.one(rid, req)
            self.samples.append(dt)
            self.best.append(dt)
            self.verdicts.append(label)
            if label is not None:
                key = f"{label} [{req.op} {req.family}]"
                self.failures[key] = self.failures.get(key, 0) + 1
        # the j-th of a request's r calls sits at (j + its place in the list) / r
        n = len(self.requests)
        calls = []
        for rid, dt in enumerate(self.best):
            r = max(1, min(REPEAT_MAX, int(REPEAT_S / max(dt, 1e-9)))) if self.repeat else 1
            calls += [((j + rid / n) / r, rid, j) for j in range(r)]
        self.schedule = [(rid, j) for _, rid, j in sorted(calls)]

    def one_pass(self) -> None:
        if self.passes == 0:
            self.check_pass()
        else:
            for rid, j in self.schedule:
                dt, label = self.one(rid, self.requests[rid])
                if j == 0:
                    self.samples.append(dt)
                self.best[rid] = min(self.best[rid], dt)
                self.flaky += label != self.verdicts[rid]
        self.passes += 1

    def run(self, seconds: float) -> None:
        """Whole passes for about ``seconds``: another pass starts while it
        would end less than half a pass past the time."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self.one_pass()
            now = perf_counter()
            if now - start + (now - t0) / 2 > seconds:
                break

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def ok(self) -> int:
        return sum(v is None for v in self.verdicts)

    def throughput(self) -> float:
        """Correct requests per second of time spent inside ratlam."""
        return self.ok / sum(self.best)


def warm_up(requests) -> None:
    """Untimed: compute every reference value, then move everything alive
    into the permanent GC generation, so the benchmark's own objects add
    nothing to the program's collections."""
    for req in requests:
        req.want = req.expect()
    gc.collect()
    gc.freeze()


def quantile(xs, q: float) -> float:
    return statistics.quantiles(xs, n=1000, method="inclusive")[round(q * 1000) - 1]


def report(loop: Loop, metrics: dict, correct: bool) -> None:
    failed = loop.attempted - loop.ok
    print(f"passes {loop.passes} of {len(loop.requests)} requests, failed {failed} "
          f"of {loop.attempted} (failed_share {failed / loop.attempted:.4f}), "
          f"verdicts that changed between passes {loop.flaky}")
    for key, n in sorted(loop.failures.items()):
        print(f"  failure {n:6d}  {key}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, note) in metrics.items()},
    }))


def is_correct(loop: Loop) -> bool:
    """Every failure is a known defect, and every pass gave the same verdicts."""
    return loop.flaky == 0 and all(
        key.split(" ")[0] in workloads.KNOWN_DEFECTS for key in loop.failures)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ratlam" / "__init__.py").is_file():
        print(f"error: no ratlam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, hard))
    signal.signal(signal.SIGALRM, _alarm)

    if args.trace:
        return traced(args)

    setup_times = []
    while len(setup_times) < SETUP_MIN or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX):
        lib = requests = None
        lib, requests, dt = setup(args.workload, args.seed)
        setup_times.append(dt)
    warm_up(requests)
    loop = Loop(requests)
    loop.run(args.seconds)

    per = f" (n={len(requests)} requests, each the fastest of {loop.passes} passes)"
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", f" (median of {len(setup_times)})"),
        "throughput_ops_s": (loop.throughput(), "1/s", per + ", correct per second busy"),
        "latency_p50_ms": (1000 * quantile(loop.best, 0.5), "ms", per),
        "latency_p90_ms": (1000 * quantile(loop.best, 0.9), "ms", per),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        "ok_share": (loop.ok / loop.attempted, "share", f" (n={loop.attempted})"),
    }
    if len(loop.samples) >= 1000:
        print(f"latency_p99_ms {1000 * quantile(loop.samples, 0.99):.6g} ms "
              f"(n={len(loop.samples)} timed requests, every pass)")
    report(loop, metrics, is_correct(loop))
    return 0


def traced(args) -> int:
    tracer = tracing.Tracer()
    lib, requests, _ = setup(args.workload, args.seed, tracer)
    setup_spans = len(tracer.spans)
    tracer.uninstall()
    warm_up(requests)
    # one call per request a pass, so that the spans of a pass are one pass
    plain = Loop(requests, repeat=False)
    plain.run(args.seconds / 2)
    tracer.install(lib)
    loop = Loop(requests, tracer, repeat=False)
    loop.run(args.seconds / 2)
    tracer.uninstall()
    overhead = 1 - loop.throughput() / plain.throughput()
    layers = tracing.per_layer(tracer.spans, setup_spans, loop.passes, requests, overhead)
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    metrics = {name: (value, unit, "") for name, (value, unit, _) in layers.items()}
    same = plain.verdicts == loop.verdicts
    report(loop, metrics, is_correct(plain) and is_correct(loop) and same)
    return 0


if __name__ == "__main__":
    sys.exit(main())
