"""Batch verification sweeps over a deterministic random corpus.

Every sweep checks one theorem or certificate contract across many
generated set pairs, random linear programs, or packaged fixtures, and
collects violations instead of raising. The corpus is seeded, every
check is exact, and no timing or environment data enters the result, so
two runs with the same configuration produce identical reports.

Tasks are plain tuples and workers return plain dictionaries, which
keeps the sweep compatible with multiprocessing if a pool is requested.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool

from .calculus import (
    KIND_ORDER,
    core_at_zero,
    difference_interiority,
    inf_convolution_support,
    intersection_rule,
    qualification_report,
    standard_probes,
    support_intersection_theorem,
    support_value,
)
from .cones import ep_condition, normal_cone
from .errors import InputError
from .extremality import (
    EPSILON_GRID,
    approximate_extremal_principle,
    is_extremal_system,
    separate,
    support_point_near,
    verify_approx_ep,
)
from .instances import fixture_names, load_instance, parse_document, serialize_document
from .linalg import dot, is_zero_vec, vadd, vec, vneg, zero_vec
from .lp import integer_rows, solve_lp, verify_certificate
from .oracle import (
    Lcg,
    grid_cell,
    grid_interior_verdict,
    lp_mutations,
    random_lp,
    random_pair_with_common_point,
    random_polytope,
)
from .report import payload

SWEEP_NAMES = (
    "extremality-grid-agreement",
    "separation-equivalence",
    "approximate-principle-certificates",
    "intersection-rule-under-qualification",
    "core-interior-coincidence",
    "support-infconv-identity",
    "boundary-support-points",
    "lp-certification",
    "determinism",
)

DEFAULT_DIMS = (2, 3, 4)
DEFAULT_SEED_RANGE = (1, 85)
# pairs in dimension four cost an order of magnitude more than planar
# ones, so their seed range is capped to keep a default run near a minute
DIM4_SEED_CAP = 30
LP_SWEEP_COUNT = 1000
BOUNDARY_POINT_COUNT = 100
# worker processes a pool may start; a larger request is refused before
# any pool exists
MAX_WORKERS = 64
# tasks one run may hold; a larger run is refused before its task list is
# built (the default run has 221)
MAX_TASKS = 100_000
GRID_HALF_WIDTH = Fraction(2)

_LP_CHUNK = 100
_BOUNDARY_CHUNK = 25

# two-set fixtures entering the pair sweeps: set names in role order and
# the name of a packaged common point, if the sets share one
FIXTURE_PAIRS = {
    "boxes-corner": ("left", "right", "contact"),
    "boxes-overlap": ("left", "right", "inner"),
    "boxes-touching": ("left", "right", "contact"),
    "halfplane-and-axis": ("halfplane", "axis", "origin"),
    "halfplanes": ("lower", "upper", "origin"),
    "separated-boxes": ("left", "right", None),
}

@dataclass(frozen=True)
class SweepOutcome:
    """Aggregate result of one named sweep."""

    name: str
    checked: int
    violations: tuple[str, ...]
    details: dict

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SuiteResult:
    dims: tuple[int, ...]
    seed_range: tuple[int, int]
    pair_count: int
    sweeps: tuple[SweepOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sweeps)

    def to_payload(self) -> dict:
        """JSON-ready description, stable across identical runs."""
        return {**payload(self), "ok": self.ok,
                "sweeps": [{**payload(s), "ok": s.ok} for s in self.sweeps]}


class _Record:
    """Violations and counters collected while running one task."""

    def __init__(self):
        self.violations = []
        self.counts = {}

    def fail(self, sweep: str, message: str) -> None:
        self.violations.append((sweep, message))

    def count(self, sweep: str, key: str, n: int = 1) -> None:
        self.counts[(sweep, key)] = self.counts.get((sweep, key), 0) + n

    def dump(self) -> dict:
        return {"violations": self.violations, "counts": self.counts}


def _task_instance(task):
    if task[0] == "pair":
        _, dim, seed = task
        s1, s2, anchor = random_pair_with_common_point(seed, dim)
        return f"pair dim={dim} seed={seed}", s1, s2, anchor
    _, name = task
    first, second, point = FIXTURE_PAIRS[name]
    doc = load_instance(name)
    anchor = doc.get_point(point) if point is not None else None
    return f"fixture {name}", doc.get_set(first), doc.get_set(second), anchor


def _check_pair(task, rec: _Record) -> None:
    label, s1, s2, anchor = _task_instance(task)
    dim = s1.dim
    sweep = "extremality-grid-agreement"
    try:
        verdict = is_extremal_system(s1, s2)
        radius = difference_interiority(s1, s2)
        rec.count(sweep, "checked")
        if verdict.extremal:
            rec.count(sweep, "extremal")
        if (radius is None) != verdict.extremal:
            rec.fail(sweep, f"{label}: interiority radius disagrees with the verdict")
        if dim == 2:
            cell = grid_cell(GRID_HALF_WIDTH)
            approx = grid_interior_verdict(verdict.difference.hrep(), zero_vec(2), cell)
            if approx is None:
                rec.count(sweep, "grid-guard-band")
            else:
                rec.count(sweep, "grid-decided")
                if approx == verdict.extremal:
                    rec.fail(sweep, f"{label}: grid oracle contradicts the verdict")

        sweep = "separation-equivalence"
        rec.count(sweep, "checked")
        cert = separate(s1, s2)
        if (cert is None) == verdict.extremal:
            which = "missing" if cert is None else "spurious"
            rec.fail(sweep, f"{label}: {which} separating functional")
        if cert is not None:
            if is_zero_vec(cert.functional) or cert.sup1 > cert.inf2:
                rec.fail(sweep, f"{label}: malformed separation certificate")
            rec.count(sweep, "separated")
        if anchor is not None:
            found, witness = ep_condition(s1, s2, anchor)
            if found != verdict.extremal:
                rec.fail(sweep, f"{label}: common-normal condition disagrees")
            if found:
                ok = (
                    witness is not None
                    and not is_zero_vec(witness)
                    and normal_cone(s1, anchor).contains(witness)
                    and normal_cone(s2, anchor).contains(vneg(witness))
                )
                if not ok:
                    rec.fail(sweep, f"{label}: bad common-normal witness")
                else:
                    rec.count(sweep, "witnesses")

        sweep = "approximate-principle-certificates"
        if verdict.extremal and anchor is not None:
            for eps in EPSILON_GRID:
                cert_ep = approximate_extremal_principle(s1, s2, anchor, eps)
                rec.count(sweep, "checked")
                if not verify_approx_ep(s1, s2, anchor, cert_ep):
                    rec.fail(sweep, f"{label}: certificate fails recheck at {eps}")

        sweep = "intersection-rule-under-qualification"
        report = None
        if anchor is not None:
            report = qualification_report(s1, s2, anchor)
            probes = standard_probes(dim)
            rule = intersection_rule(s1, s2, anchor, probes=probes)
            rec.count(sweep, "checked")
            if report.bounded_extremality:
                rec.count(sweep, "qualified")
                if not rule.equal:
                    rec.fail(sweep, f"{label}: cones differ under qualification")
            for direction in rule.rhs.sample_directions():
                rec.count(sweep, "inclusion-directions")
                if not rule.lhs.contains(direction):
                    rec.fail(sweep, f"{label}: sum cone escapes the intersection cone")
            n1 = normal_cone(s1, anchor)
            n2 = normal_cone(s2, anchor)
            for dec in rule.decompositions:
                if not (dec.in_lhs and rule.equal):
                    continue
                rec.count(sweep, "probes-split")
                ok = (
                    dec.part1 is not None
                    and dec.part2 is not None
                    and vadd(dec.part1, dec.part2) == dec.probe
                    and n1.contains(dec.part1)
                    and n2.contains(dec.part2)
                )
                if not ok:
                    rec.fail(sweep, f"{label}: probe split is not certified")

        sweep = "core-interior-coincidence"
        d = verdict.difference
        origin = zero_vec(dim)
        in_core = d.core_contains(origin)
        rec.count(sweep, "checked")
        if d.interior_contains(origin) != in_core:
            rec.fail(sweep, f"{label}: core and interior verdicts differ at zero")
        if core_at_zero(s1, s2) != in_core:
            rec.fail(sweep, f"{label}: direct core test disagrees with the difference set")
        if in_core and d.interior_point() is not None:
            rec.count(sweep, "strong-hypotheses")
            if report is not None and not report.bounded_extremality:
                rec.fail(sweep, f"{label}: strong hypotheses without bounded extremality")

        sweep = "support-infconv-identity"
        probes = standard_probes(dim)
        joint = s1.intersect(s2)
        nonempty = anchor is not None or not joint.is_empty()
        hypotheses = nonempty and (s1.is_bounded() or s2.is_bounded()) and radius is not None
        if hypotheses:
            rec.count(sweep, "hypothesis-pairs")
        for g in probes:
            rec.count(sweep, "checked")
            conv = inf_convolution_support(s1, s2, g)
            sup = support_value(joint, g) if nonempty else None
            left = -1 if sup is None else (0 if sup.value is not None else 1)
            right = KIND_ORDER[conv.kind]
            below = left < right or (
                left == right and (left != 0 or sup.value <= conv.value)
            )
            if not below:
                rec.fail(sweep, f"{label}: support exceeds the convolution bound")
            if conv.kind == "finite" and vadd(conv.witness1, conv.witness2) != vec(g):
                rec.fail(sweep, f"{label}: convolution split does not sum to the probe")
            if hypotheses:
                if left != 0 or right != 0 or sup.value != conv.value:
                    rec.fail(sweep, f"{label}: identity fails under its hypotheses")
                else:
                    v1 = support_value(s1, conv.witness1)
                    v2 = support_value(s2, conv.witness2)
                    attained = (
                        v1.finite and v2.finite and v1.value + v2.value == sup.value
                    )
                    if not attained:
                        rec.fail(sweep, f"{label}: convolution infimum is not attained")
                    else:
                        rec.count(sweep, "attained")
        checked = support_intersection_theorem(s1, s2, probes[0])
        if checked.hypotheses_met != hypotheses:
            rec.fail(sweep, f"{label}: combined check misjudges the hypotheses")

        sweep = "determinism"
        if task[0] == "pair":
            _, tdim, seed = task
            r1, r2, ranchor = random_pair_with_common_point(seed, tdim)
            rec.count(sweep, "checked")
            same = (
                r1.hrep() == s1.hrep()
                and r2.hrep() == s2.hrep()
                and ranchor == anchor
            )
            if not same:
                rec.fail(sweep, f"{label}: regeneration changed the pair")
    except Exception as exc:  # a crash in any sweep is itself a violation
        rec.fail(sweep, f"{label}: {type(exc).__name__}: {exc}")


def _check_lp_range(task, rec: _Record) -> None:
    sweep = "lp-certification"
    _, lo, hi = task
    for seed in range(lo, hi):
        label = f"lp seed={seed}"
        try:
            lp = random_lp(seed)
            outcome = solve_lp(lp)
            rec.count(sweep, "checked")
            # the mutations tamper with the outcome only, so one integer
            # form of the program serves every check
            rows = integer_rows(lp)
            if not verify_certificate(lp, outcome, rows):
                rec.fail(sweep, f"{label}: certificate rejected")
            for mutated in lp_mutations(lp, outcome):
                rec.count(sweep, "mutations")
                if verify_certificate(lp, mutated, rows):
                    rec.fail(sweep, f"{label}: corrupted certificate accepted")
        except Exception as exc:
            rec.fail(sweep, f"{label}: {type(exc).__name__}: {exc}")


def _check_boundary_range(task, rec: _Record) -> None:
    sweep = "boundary-support-points"
    _, lo, hi = task
    for seed in range(lo, hi):
        label = f"boundary seed={seed}"
        try:
            dim = (2, 3, 4)[seed % 3]
            s = random_polytope(seed, dim)
            rng = Lcg(5000 + seed)
            direction = zero_vec(dim)
            while is_zero_vec(direction):
                direction = vec([rng.int_between(-3, 3) for _ in range(dim)])
            vertex = support_value(s, direction).maximizer
            point, functional = support_point_near(s, vertex, Fraction(1, 2))
            rec.count(sweep, "checked")
            if point != vertex:
                rec.fail(sweep, f"{label}: support point moved off the input point")
            if is_zero_vec(functional):
                rec.fail(sweep, f"{label}: zero supporting functional")
            top = support_value(s, functional)
            if not (top.finite and top.value == dot(vec(functional), vec(point))):
                rec.fail(sweep, f"{label}: functional does not peak at the point")
        except Exception as exc:
            rec.fail(sweep, f"{label}: {type(exc).__name__}: {exc}")


def _check_fixture_roundtrip(rec: _Record) -> None:
    sweep = "determinism"
    from .instances import _fixture_root

    root = _fixture_root()
    for name in fixture_names():
        rec.count(sweep, "fixtures")
        try:
            text = (root / f"{name}.json").read_text(encoding="utf-8")
            if serialize_document(parse_document(text)) != text:
                rec.fail(sweep, f"fixture {name}: not in canonical form")
        except Exception as exc:
            rec.fail(sweep, f"fixture {name}: {type(exc).__name__}: {exc}")


def _run_task(task) -> dict:
    rec = _Record()
    kind = task[0]
    if kind in ("pair", "fixture"):
        _check_pair(task, rec)
    elif kind == "lp":
        _check_lp_range(task, rec)
    elif kind == "boundary":
        _check_boundary_range(task, rec)
    elif kind == "fixture-roundtrip":
        _check_fixture_roundtrip(rec)
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return rec.dump()


def _chunks(kind: str, count: int, size: int):
    return [
        (kind, lo, min(lo + size, count + 1))
        for lo in range(1, count + 1, size)
    ]


def _top_seed(dim: int, seed_range) -> int:
    """The last seed swept in dim; dimension four is capped."""
    lo, hi = seed_range
    return min(hi, lo + DIM4_SEED_CAP - 1) if dim >= 4 else hi


def task_count(dims=DEFAULT_DIMS, seed_range=DEFAULT_SEED_RANGE,
               lp_count=LP_SWEEP_COUNT, boundary_count=BOUNDARY_POINT_COUNT) -> int:
    """len(build_tasks(...)) for a valid configuration, by arithmetic,
    without building a task."""
    lo = seed_range[0]
    pairs = sum(_top_seed(dim, seed_range) - lo + 1 for dim in dims)
    # a range's length is arithmetic; it is the number of _chunks
    chunks = (len(range(1, lp_count + 1, _LP_CHUNK))
              + len(range(1, boundary_count + 1, _BOUNDARY_CHUNK)))
    return pairs + len(FIXTURE_PAIRS) + chunks + 1


def build_tasks(dims=DEFAULT_DIMS, seed_range=DEFAULT_SEED_RANGE,
                lp_count=LP_SWEEP_COUNT,
                boundary_count=BOUNDARY_POINT_COUNT) -> list:
    lo = seed_range[0]
    tasks = []
    for dim in dims:
        tasks.extend(("pair", dim, seed) for seed in range(lo, _top_seed(dim, seed_range) + 1))
    tasks.extend(("fixture", name) for name in sorted(FIXTURE_PAIRS))
    tasks.extend(_chunks("lp", lp_count, _LP_CHUNK))
    tasks.extend(_chunks("boundary", boundary_count, _BOUNDARY_CHUNK))
    tasks.append(("fixture-roundtrip",))
    return tasks


def run_suite(dims=DEFAULT_DIMS, seed_range=DEFAULT_SEED_RANGE,
              parallel: int | None = None, lp_count=LP_SWEEP_COUNT,
              boundary_count=BOUNDARY_POINT_COUNT) -> SuiteResult:
    """Run every sweep and aggregate per-sweep outcomes in a fixed order.

    parallel > 1 distributes tasks over a process pool of at most
    MAX_WORKERS workers; results are merged in task order either way, so
    the report does not depend on scheduling. Repeated dimensions and
    negative counts are refused: they would count pairs twice or check
    nothing. So is a run of more than MAX_TASKS tasks, counted before its
    task list is built.
    """
    dims = tuple(dims)
    for dim in dims:
        if dim not in (1, 2, 3, 4):
            raise InputError(f"unsupported dimension {dim}")
    if len(set(dims)) < len(dims):
        raise InputError(f"repeated dimension in {','.join(map(str, dims))}")
    lo, hi = seed_range
    if lo < 1 or hi < lo:
        raise InputError(f"bad seed range {lo}..{hi}")
    if lp_count < 0:
        raise InputError(f"bad lp count {lp_count}")
    if boundary_count < 0:
        raise InputError(f"bad boundary count {boundary_count}")
    if parallel is not None and parallel > MAX_WORKERS:
        raise InputError(f"{parallel} workers exceed the limit of {MAX_WORKERS}")
    count = task_count(dims, (lo, hi), lp_count, boundary_count)
    if count > MAX_TASKS:
        raise InputError(f"{count} tasks exceed the limit of {MAX_TASKS}")
    tasks = build_tasks(dims, (lo, hi), lp_count, boundary_count)
    if parallel is not None and parallel > 1:
        with Pool(parallel) as pool:
            records = pool.map(_run_task, tasks)
    else:
        records = [_run_task(task) for task in tasks]

    violations = {name: [] for name in SWEEP_NAMES}
    counts = {}
    for record in records:
        for sweep, message in record["violations"]:
            violations[sweep].append(message)
        for key, n in record["counts"].items():
            counts[key] = counts.get(key, 0) + n

    sweeps = []
    for name in SWEEP_NAMES:
        details = {
            key: n for (sweep, key), n in counts.items()
            if sweep == name and key != "checked"
        }
        sweeps.append(SweepOutcome(
            name=name,
            checked=counts.get((name, "checked"), 0),
            violations=tuple(violations[name]),
            details=dict(sorted(details.items())),
        ))
    pair_count = sum(1 for t in tasks if t[0] in ("pair", "fixture"))
    return SuiteResult(
        dims=dims,
        seed_range=(lo, hi),
        pair_count=pair_count,
        sweeps=tuple(sweeps),
    )
