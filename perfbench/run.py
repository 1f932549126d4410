"""Benchmark of the polyexact package, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one process with one caller and no pool: a closed loop that
starts the next item only when the previous one has finished. The
package is imported from ``src/`` next to this directory; nothing in it
is modified. With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it prints per-layer spans and exact work counts from
a separate traced pass, and the tracing overhead. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. README.md next to this file
describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "polyexact"
# generated files, such as the SVG the plot command writes
SCRATCH = HERE / "out"
SETUP_REPEATS = 7


def load_package():
    """Import the package fresh from the checkout's source tree."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a repository checkout")
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polyexact
    import polyexact.cli  # noqa: F401  (the CLI is not imported by the package)
    if Path(polyexact.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported {polyexact.__file__}, expected {init}")
    return polyexact


def setup(name: str, seed: int):
    """Import the package and generate the inputs, several times; the
    last workload is the one that runs. Returns it with the set-up times."""
    times = []
    work = None
    for _ in range(SETUP_REPEATS):
        if work is not None:
            work.close()
        t0 = perf_counter()
        px = load_package()
        work = workloads.make(name, px, seed, SCRATCH)
        work.generate()
        times.append(perf_counter() - t0)
    return work, times


class Tally:
    """Item latencies, failures and the output digest of one pass."""

    def __init__(self, digest_steps: int):
        self.latencies: list[float] = []
        self.failed = 0
        self.steps = 0
        self.digest_steps = digest_steps
        self.digest = hashlib.sha256()
        self.first_output: dict = {}

    def add(self, step: workloads.Step) -> None:
        repeat_ok = True
        if step.key is not None:
            fingerprint = hashlib.sha256(step.output).digest()
            repeat_ok = self.first_output.setdefault(step.key, fingerprint) == fingerprint
        for latency, ok in step.items:
            self.latencies.append(latency)
            if not (ok and repeat_ok):
                self.failed += 1
        if self.steps < self.digest_steps:
            self.digest.update(len(step.output).to_bytes(8, "big"))
            self.digest.update(step.output)
        self.steps += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def checked_step(work, i: int) -> workloads.Step:
    """Run step i; a step that raises counts as one failed item."""
    t0 = perf_counter()
    try:
        return work.step(i)
    except Exception:
        traceback.print_exc()
        return workloads.Step([(perf_counter() - t0, False)], b"raised")


def run_timed(work, seconds: float) -> tuple[Tally, float]:
    """Closed loop of whole passes: another pass starts only if, at the
    pace of the last one, it would end within the given wall time. A
    run has at least one pass."""
    tally = Tally(work.digest_steps)
    t0 = perf_counter()
    i = 0
    while True:
        start = perf_counter()
        for _ in range(work.pass_steps):
            tally.add(checked_step(work, i))
            i += 1
        now = perf_counter()
        if now - t0 + (now - start) > seconds:
            return tally, now - t0


def run_steps(work, steps: int) -> tuple[Tally, float]:
    """A fixed number of steps."""
    tally = Tally(work.digest_steps)
    t0 = perf_counter()
    for i in range(steps):
        tally.add(checked_step(work, i))
    return tally, perf_counter() - t0


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of items beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(work, setup_times: list[float], seconds: float) -> tuple[dict, Tally]:
    tally, wall = run_timed(work, seconds)
    lat = sorted(tally.latencies)
    tail, beyond = percentile(lat, work.tail_pct)
    n = tally.attempted
    print(f"items: {n} attempted, {tally.failed} failed, "
          f"failed_ratio {tally.failed / n:.6g}")
    print(f"digest: sha256 {tally.digest.hexdigest()} over the first "
          f"{min(tally.steps, work.digest_steps)} steps")
    print(f"tail: p{work.tail_pct:g} of {n} items, {beyond} beyond it")
    if beyond < 10:
        print("warning: fewer than 10 items lie beyond the tail percentile")
    metrics = {
        "items_per_s": metric(n / wall, "1/s"),
        "item_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "item_tail_ms": metric(tail * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return metrics, tally


def traced_pass(work, steps: int) -> tuple[tracing.Tracer, Tally, float]:
    tracer = tracing.Tracer()
    work.generate()
    work.tracer = tracer
    tracer.install(PACKAGE)
    try:
        tally, wall = run_steps(work, steps)
    finally:
        tracer.uninstall()
        work.tracer = None
    return tracer, tally, wall


def print_spans(tracer: tracing.Tracer) -> None:
    print(f"{'span':44} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, (calls, total, self_s) in sorted(
            tracer.spans.items(), key=lambda kv: -kv[1][2]):
        if calls:
            print(f"{name:44} {calls:9d} {total:10.4f} {self_s:10.4f}")
    for name in tracing.COUNT_NAMES:
        print(f"{name:44} {tracer.counts[name]:9d}")


def traced(work, seconds: float) -> tuple[dict, list[Tally], bool]:
    """One untraced and two traced passes over the same fixed inputs,
    each on freshly generated ones. The two traced passes must agree on
    every exact count (the self-test), and all three on the digest."""
    steps = max(1, round(work.trace_rate * seconds / 4))
    work.generate()
    plain, plain_wall = run_steps(work, steps)
    (tracer, tally1, wall), (tracer2, tally2, wall2) = (
        traced_pass(work, steps) for _ in range(2))
    tallies = [plain, tally1, tally2]

    counts = tracer.exact_counts()
    counts2 = tracer2.exact_counts()
    consistent = counts == counts2 and len({t.digest.hexdigest() for t in tallies}) == 1
    print(f"traced passes: {steps} steps each; untraced {plain_wall:.3f} s, "
          f"traced {wall:.3f} s and {wall2:.3f} s")
    print(f"self-test: {'pass' if consistent else 'FAIL'}")
    for key in sorted(k for k in counts if counts[k] != counts2[k]):
        print(f"  count {key}: {counts[key]} vs {counts2[key]}")
    print_spans(tracer)

    metrics = {name: metric(value, "count") for name, value in counts.items()}
    for name in ("lp.solve_lp", "lp.verify_certificate"):
        _, total, self_s = tracer.spans[name]
        metrics[f"{name}.total_s"] = metric(total, "s")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    by_layer = tracer.self_time_by_layer()
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_pct"] = metric(100 * by_layer[layer] / wall, "%")
    metrics["unwrapped.self_pct"] = metric(100 * (wall - sum(by_layer.values())) / wall, "%")
    metrics["trace.untraced_s"] = metric(plain_wall, "s")
    metrics["trace.traced_s"] = metric(wall, "s")
    metrics["trace.overhead_s"] = metric(wall - plain_wall, "s")
    return metrics, tallies, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work, setup_times = setup(args.workload, args.seed)
    SCRATCH.mkdir(exist_ok=True)
    try:
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print("env: " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            metrics, tallies, consistent = traced(work, args.seconds)
        else:
            metrics, tally = end_to_end(work, setup_times, args.seconds)
            tallies, consistent = [tally], True
    finally:
        work.close()
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
