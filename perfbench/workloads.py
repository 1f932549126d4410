"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs (``generate``, timed
as part of set-up) and then runs numbered steps in a closed loop with a
single caller. A step runs one or more items, times each, checks each
with the checker that applies to it, and returns the canonical bytes of
its outputs for the run digest. Why each workload exists is written up
in README.md next to this file.

Workloads reach the package only through module attributes looked up at
call time, so the traced run sees every call through its wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from time import perf_counter


@dataclass
class Step:
    """Items run by one step: (latency in seconds, passed) each, the
    canonical output bytes and a key naming the input, so a repeated
    input can be checked against its first output."""

    items: list
    output: bytes
    key: object = None


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _strs(values):
    return None if values is None else [str(v) for v in values]


class Workload:
    name = ""
    # fixed tail percentile, with at least ten items beyond it in a run at
    # the commit that defined the benchmark; kept fixed so that runs of
    # different commits compare the same statistic
    tail_pct = 90.0
    # steps in one pass over the inputs; a run is made of whole passes
    pass_steps = 1
    # steps whose outputs enter the run digest, at most one pass
    digest_steps = 1
    # steps per pass of the traced run, per second of --seconds
    trace_rate = 1.0

    def __init__(self, px, seed: int):
        self.px = px
        self.seed = seed
        self.tracer = None

    @contextlib.contextmanager
    def checking(self):
        """Run harness-side checks outside the trace, so that spans and
        counts describe the work of the item alone."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def generate(self):
        """Build the inputs; part of the timed set-up."""

    def step(self, i: int) -> Step:
        raise NotImplementedError

    def close(self) -> None:
        """Undo anything generate installed."""


# -- lp-certify ----------------------------------------------------------------

def lp_payload(outcome) -> dict:
    body = {"kind": type(outcome).__name__}
    for f in fields(outcome):
        value = getattr(outcome, f.name)
        body[f.name] = str(value) if isinstance(value, Fraction) else _strs(value)
    return body


class LpCertify(Workload):
    """One-off random programs: solve, recheck the certificate, and
    require every tampered copy of it to be rejected."""

    name = "lp-certify"
    tail_pct = 99.0
    pass_steps = 4000
    digest_steps = 500
    trace_rate = 1440.0

    def generate(self):
        random_lp = self.px.oracle.random_lp
        base = self.seed * 1_000_003
        self.programs = [random_lp(base + i) for i in range(self.pass_steps)]

    def step(self, i: int) -> Step:
        px = self.px
        k = i % self.pass_steps
        lp = self.programs[k]
        t0 = perf_counter()
        outcome = px.solve_lp(lp)
        ok = px.verify_certificate(lp, outcome)
        for bad in px.oracle.lp_mutations(lp, outcome):
            if px.verify_certificate(lp, bad):
                ok = False
        latency = perf_counter() - t0
        return Step([(latency, ok)], _canonical(lp_payload(outcome)), k)


# -- extremality-dim4 ----------------------------------------------------------

def _axis_scaling(rng: random.Random, dim: int) -> list[int]:
    """Nonzero integer factors, one per coordinate: a sign and a scale."""
    return [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(dim)]


def _scaled_pair(px, s1, s2, anchor, factors):
    """The pair and its anchor under x -> f x, one factor per axis."""
    lcm = math.lcm(*factors)
    out = []
    for s in (s1, s2):
        # x -> f x maps the row a.x <= b to (a / f).x <= b; scaling the
        # row by the lcm of the factors keeps its entries integral
        rows = [(tuple(x * lcm / f for x, f in zip(a, factors)), b * lcm)
                for a, b in s.hrep().ineqs]
        out.append(px.ConvexSet.from_hrep(len(factors), ineqs=rows))
    scaled_anchor = tuple(x * f for x, f in zip(anchor, factors))
    return out[0], out[1], scaled_anchor


class ExtremalityDim4(Workload):
    """Dimension-4 pairs: decide extremality, compute the interiority
    radius and a separating functional, and cross-check all three.

    The pairs are the package's random pairs with base seeds 1 to 6,
    each mapped by x -> f x with one nonzero integer factor f per axis,
    a sign times 1, 2 or 3, drawn from the benchmark seed. Double
    description and Bland's rule see the same zero patterns, signs and
    ranks after such a map, so the numbers change with the seed while the
    work stays the same: call counts agree across seeds to within a few
    rank tests. Drawing the base seeds from the benchmark seed instead
    makes the per-run cost vary several-fold, because single pairs cost
    from 0.04 s to 8 s. Translating or permuting the axes would change
    which lineality direction double description pivots on, and with it
    the order and amount of its work. An item is one of the three calls on
    one pair, so a pass has 18 items; whole passes keep the latency
    percentiles independent of how many passes fit in a run. A pass is
    short enough for four or five passes in a run, so each percentile
    is read from several repetitions of the same item.
    """

    name = "extremality-dim4"
    tail_pct = 80.0
    pass_steps = 6
    digest_steps = 6
    trace_rate = 0.96

    def generate(self):
        rng = random.Random(self.seed)
        self.maps = [_axis_scaling(rng, 4) for _ in range(self.pass_steps)]
        self.pairs = [self._pair(k) for k in range(self.pass_steps)]

    def _pair(self, k: int):
        px = self.px
        pair = px.oracle.random_pair_with_common_point(k + 1, 4)
        s1, s2, _ = _scaled_pair(px, *pair, self.maps[k])
        return s1, s2

    def step(self, i: int) -> Step:
        px = self.px
        k = i % self.pass_steps
        # every pass gets freshly built sets, so no lazily derived
        # representation carries over from an earlier pass
        s1, s2 = self.pairs[k] if i < self.pass_steps else self._pair(k)
        t0 = perf_counter()
        verdict = px.is_extremal_system(s1, s2)
        t1 = perf_counter()
        radius = px.difference_interiority(s1, s2)
        t2 = perf_counter()
        cert = px.separate(s1, s2)
        t3 = perf_counter()
        with self.checking():
            ok = self._check(verdict, radius, cert, s1, s2)
        output = _canonical({
            "verdict": px.report.extremality_payload(verdict),
            "radius": None if radius is None else str(radius),
            "separation": None if cert is None else px.report.separation_payload(cert),
        })
        return Step([(t1 - t0, ok), (t2 - t1, ok), (t3 - t2, ok)], output, k)

    def _check(self, verdict, radius, cert, s1, s2) -> bool:
        """Cross-check the three answers, and recheck each certificate
        by evaluating rows and generators directly."""
        if (radius is None) != verdict.extremal:
            return False
        if (cert is not None) != verdict.extremal:
            return False
        diff = verdict.difference
        if not verdict.extremal:
            # both radii must fit a sup-norm box inside the difference
            for r in (radius, verdict.interior_ball_radius):
                if r <= 0 or not all(diff.contains(c) for c in _box_corners(r, 4)):
                    return False
            return True
        g, beta = verdict.boundary_evidence
        v = diff.vrep()
        if beta > 0 or any(_dot(g, p) > beta for p in v.vertices):
            return False
        if any(_dot(g, r) > 0 for r in v.rays):
            return False
        f = cert.functional
        if not any(f) or cert.sup1 > cert.inf2:
            return False
        return (_vertex_sup(s1.vrep(), f) == cert.sup1
                and _vertex_sup(s2.vrep(), tuple(-x for x in f)) == -cert.inf2)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _box_corners(r, dim: int):
    for bits in range(1 << dim):
        yield tuple(r if bits >> j & 1 else -r for j in range(dim))


def _vertex_sup(vrep, g):
    if any(_dot(g, r) > 0 for r in vrep.rays):
        return None
    return max(_dot(g, p) for p in vrep.vertices)


# -- suite-sweep ---------------------------------------------------------------

class SuiteSweep(Workload):
    """Closed loop of ``run_suite`` calls, with the solver and boundary
    sweeps cut to the default suite's ratio of programs and points to
    pairs. An item is one pair, random or fixture; its latency is the
    time of its task inside the suite call.

    A pass is four calls over the seed windows 1-12, 13-24, 25-36 and
    37-48 of planar pairs. The suite builds each random pair through its
    module global ``random_pair_with_common_point``; the benchmark
    rebinds it to the package's own pair for that seed mapped by
    x -> f x, with one factor per axis, a sign times 1, 2 or 3, drawn
    from the benchmark seed. So the numbers change with the seed while
    the work stays close: a mapped pair costs within about a sixth of its
    unmapped one. Drawing the pair seeds from the benchmark seed instead
    makes the tail of a run's few dozen pairs move by a quarter between
    seeds, since single planar pairs cost from 0.05 s to 0.8 s.

    Only planar pairs are swept. Dimension-3 pair costs spread so widely
    that the throughput of a run over a few dozen of them moved by a
    third between seeds; dimension 4 has its own workload."""

    name = "suite-sweep"
    tail_pct = 85.0
    pass_steps = 4
    digest_steps = 1
    trace_rate = 0.32
    dim = 2
    window = 12
    lp_count = 90
    boundary_count = 9

    def generate(self):
        rng = random.Random(self.seed)
        self.maps = {
            k: _axis_scaling(rng, self.dim)
            for k in range(1, self.pass_steps * self.window + 1)
        }
        self.tasks = []
        if not hasattr(self, "_originals"):
            self._install()

    def _install(self):
        # run_suite calls its task runner and pair generator through
        # module globals, so rebinding them times each task and supplies
        # the mapped pairs without touching the package
        suite = self.px.suite
        run_task = suite._run_task
        make_pair = suite.random_pair_with_common_point

        def timed(task):
            t0 = perf_counter()
            record = run_task(task)
            self.tasks.append((task[0], perf_counter() - t0, not record["violations"]))
            return record

        def mapped(seed, dim):
            with self.checking():
                return _scaled_pair(self.px, *make_pair(seed, dim), self.maps[seed])

        self._originals = {"_run_task": run_task, "random_pair_with_common_point": make_pair}
        suite._run_task = timed
        suite.random_pair_with_common_point = mapped

    def close(self) -> None:
        for name, fn in self._originals.items():
            setattr(self.px.suite, name, fn)

    def step(self, i: int) -> Step:
        k = i % self.pass_steps
        lo = 1 + k * self.window
        self.tasks.clear()
        result = self.px.run_suite(
            dims=(self.dim,), seed_range=(lo, lo + self.window - 1),
            lp_count=self.lp_count, boundary_count=self.boundary_count)
        others_ok = all(ok for kind, _, ok in self.tasks if kind not in ("pair", "fixture"))
        items = [
            (latency, ok and others_ok and result.ok)
            for kind, latency, ok in self.tasks if kind in ("pair", "fixture")
        ]
        return Step(items, _canonical(result.to_payload()), k)


# -- cli-fixtures --------------------------------------------------------------

class CliFixtures(Workload):
    """Round-robin in-process CLI calls, one per README subcommand on its
    packaged fixture, with the free rationals and functionals drawn from
    the seed. A call fails on a nonzero exit, on a report that is not ok,
    or on output that differs from its first repetition."""

    name = "cli-fixtures"
    # the slowest of the seven commands makes up the top seventh of the
    # items, so p99 would read its stray pauses; p97 reads its bulk
    tail_pct = 97.0
    pass_steps = 7
    digest_steps = 7
    trace_rate = 93.0

    def __init__(self, px, seed: int, scratch: Path):
        super().__init__(px, seed)
        self.svg = scratch / "scene.svg"
        # a relative path keeps the report bytes, and so the digest,
        # independent of where the checkout lives
        self.svg_arg = os.path.relpath(self.svg)

    def generate(self):
        rng = random.Random(self.seed)

        def eps() -> str:
            return f"1/{rng.randint(2, 60)}"

        def functional() -> str:
            # a leading minus sign would make argparse read an option
            while True:
                g = [rng.randint(0, 5), rng.randint(-5, 5)]
                if any(g):
                    return ",".join(str(x) for x in g)

        self.commands = [
            ["check-extremal", "halfplanes", "lower", "upper", "--epsilon", eps()],
            ["separate", "separated-boxes", "left", "right"],
            ["ep", "halfplanes", "lower", "upper", "origin", eps()],
            ["intersection-rule", "halfplane-and-axis", "halfplane", "axis", "origin"],
            ["support", "unit-square", "square", functional()],
            ["infconv", "boxes-touching", "left", "right", functional()],
            ["plot", "halfplanes", "lower", "upper", "--cones-at", "origin",
             "--separator", "up", "--out", self.svg_arg],
        ]
        for argv in self.commands:
            argv.append("--json")

    def step(self, i: int) -> Step:
        k = i % self.pass_steps
        argv = self.commands[k]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.px.cli.main(argv)
        latency = perf_counter() - t0
        text = out.getvalue()
        try:
            ok = code == 0 and json.loads(text)["ok"] is True
        except (ValueError, KeyError, TypeError):
            ok = False
        output = text.encode()
        if argv[0] == "plot":
            output += self.svg.read_bytes()
        return Step([(latency, ok)], output, k)


def make(name: str, px, seed: int, scratch: Path) -> Workload:
    if name == CliFixtures.name:
        return CliFixtures(px, seed, scratch)
    for cls in (SuiteSweep, ExtremalityDim4, LpCertify):
        if cls.name == name:
            return cls(px, seed)
    raise KeyError(name)


NAMES = (SuiteSweep.name, ExtremalityDim4.name, LpCertify.name, CliFixtures.name)
