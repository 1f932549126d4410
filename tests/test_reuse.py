"""Each pair's work is done once: the intersection and difference sets,
the gauge program with its reaches and the normal cones are built once
per suite task and shared by every question asked of the pair, and a
cone answers each membership question once."""
import sys

import pytest

from polyexact import calculus, cones, dd, lp, suite
from polyexact.sets import ConvexSet

SLICE = dict(dims=(2,), seed_range=(1, 12), lp_count=90, boundary_count=9)


def _rebind(monkeypatch, module, name, wrapper):
    """Replace a function in every polyexact module that imported it by
    name, as well as in its home module."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("polyexact"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, wrapper)


class Counts:
    """Counting wrappers on minkowski, the builds of kept intersections,
    the gauge programs and the reaches along each direction,
    normal_cone, make_cone, the membership solves on the cones' polar
    programs, the double descriptions and the certificate checks, in
    the solver and in all.
    Arguments are kept alive, so object identities stay unique for the
    whole run."""

    def __init__(self, monkeypatch):
        self.minkowski = 0
        self.intersections = []
        self.systems = []
        self.reaches = []
        self.make_cone = 0
        self.memberships = 0
        self.cone_builds = []
        self.dd = 0
        self.checks = 0
        self.solver_checks = 0
        self._in_normal_cone = []
        minkowski = ConvexSet.minkowski
        cached_with = ConvexSet.cached_with
        reach_system = calculus._reach_system
        reach = calculus._reach_along
        make_cone = cones.make_cone
        normal_cone = cones.normal_cone
        decide = cones.PolyhedralCone._decide
        cone_from_inequalities = dd.cone_from_inequalities
        verify_certificate = lp.verify_certificate
        solver_check = lp._check

        def counted_minkowski(s, other):
            self.minkowski += 1
            return minkowski(s, other)

        def counted_cached_with(s, other, key, build):
            def counted_build():
                out = build()
                if key == "intersection":
                    self.intersections.append(out)
                return out
            return cached_with(s, other, key, counted_build)

        def counted_system(s1, s2):
            system = reach_system(s1, s2)
            self.systems.append((s1, s2, system))
            return system

        def counted_reach(system, direction):
            self.reaches.append((system, direction))
            return reach(system, direction)

        def counted_make_cone(*args, **kwargs):
            self.make_cone += 1
            if self._in_normal_cone:
                self.cone_builds.append(self._in_normal_cone[-1])
            return make_cone(*args, **kwargs)

        def counted_normal_cone(s, x):
            self._in_normal_cone.append((s, tuple(x)))
            try:
                return normal_cone(s, x)
            finally:
                self._in_normal_cone.pop()

        def counted_decide(c, x):
            self.memberships += 1
            return decide(c, x)

        def counted_dd(*args):
            self.dd += 1
            return cone_from_inequalities(*args)

        def counted_verify(*args):
            self.checks += 1
            return verify_certificate(*args)

        def counted_solver_check(*args):
            self.solver_checks += 1
            return solver_check(*args)

        monkeypatch.setattr(ConvexSet, "minkowski", counted_minkowski)
        monkeypatch.setattr(ConvexSet, "cached_with", counted_cached_with)
        _rebind(monkeypatch, dd, "cone_from_inequalities", counted_dd)
        _rebind(monkeypatch, lp, "verify_certificate", counted_verify)
        _rebind(monkeypatch, lp, "_check", counted_solver_check)
        _rebind(monkeypatch, calculus, "_reach_system", counted_system)
        _rebind(monkeypatch, calculus, "_reach_along", counted_reach)
        _rebind(monkeypatch, cones, "make_cone", counted_make_cone)
        _rebind(monkeypatch, cones, "normal_cone", counted_normal_cone)
        monkeypatch.setattr(cones.PolyhedralCone, "_decide", counted_decide)


@pytest.mark.parametrize("task", [
    ("pair", 2, 1),  # extremal: the approximate principle runs at 4 epsilons
    ("pair", 2, 2),
    ("fixture", "halfplanes"),
    ("fixture", "boxes-overlap"),
], ids=["pair-1", "pair-2", "halfplanes", "boxes-overlap"])
def test_one_task_does_each_piece_of_work_once(monkeypatch, task):
    counts = Counts(monkeypatch)
    instances = []
    task_instance = suite._task_instance

    def recorded(t):
        out = task_instance(t)
        instances.append(out)
        return out

    monkeypatch.setattr(suite, "_task_instance", recorded)
    record = suite._run_task(task)
    assert record["violations"] == []

    # one A - B and one A & B per task, shared by every question about
    # the pair
    assert counts.minkowski == 1
    assert len(counts.intersections) == 1
    # the task's own sets get one gauge program, and no direction is
    # solved on it twice
    _, s1, s2, _ = instances[0]
    own = [system for a, b, system in counts.systems if a is s1 and b is s2]
    assert len(own) == 1
    directions = [d for system, d in counts.reaches if system is own[0]]
    assert directions
    assert len(directions) == len(set(directions))
    # a normal cone is canonicalized at most once per set and point
    builds = [(id(s), x) for s, x in counts.cone_builds]
    assert builds
    assert len(builds) == len(set(builds))


def test_slice_counts_are_pinned(monkeypatch):
    """Counts on the 12-seed planar slice: 18 Minkowski sums (one per pair
    task), 105 reaches along a direction, 91 canonicalized cones and 283
    membership solves on the cones' polar programs: 263 points inside, 8
    outside and the 12 generators make_cone pruned, asked of the cone it
    kept. There were 522 (332 inside, 178 outside) while intersection_rule
    asked its left cone about every probe: it now decides each probe on
    the intersection's support program at the probe, whose outcome the
    support identity reads at the same functional, so 239 membership
    solves are gone. There were 523 while phase one started every row on
    its artificial: the penalized gap program is now written from its
    feasible point and starts on its slacks, and one approximate
    certificate of the slice ends on another optimal basis, whose normal
    parts its cones are asked for one point fewer. There were 337
    membership questions decided by LP, all about points inside, while
    points outside were answered by a polar vector of the double
    description. Before the sharing they were 64, 302, 327 and 2,078;
    before contains kept its answers there were 1,242 membership LPs, 874
    while make_cone still canonicalized by membership LPs, 572 while
    intersection_rule held a left cone equal to a summand as a distinct
    object, and 515 while points outside were decided by LP too. The
    reaches run on 18 gauge programs, one per task's ordered pair; there
    were 145 reaches on 28 systems while the unit window of each interior
    pair was solved again instead of checked.

    The 18 tasks build 18 intersections, one per task, each with one phase
    one on its rows. While every caller built its own there were 71
    intersections and 54 such phase ones.

    Every certificate is checked: 1,775 checks, 950 of them in the solver,
    235 in the LP sweep and 590 of the support identity's attainment, one
    per set at each of 295 finite convolutions, each a certificate read
    off the intersection's support outcome and checked against the set's
    own rows; so no change may skip or sample them. They were 1,938 and
    1,703 while intersection_rule split each inside probe by a cold
    program over both cones' generators (170 solves), asked its left cone
    about every probe (239 membership solves) and the attainment check
    solved each set's support at its witness (344 phase twos the sets had
    not kept). They were 1,939 and 1,704 while the sweep repeated the
    identity's comparisons and then asked support_intersection_theorem at
    the first probe as well: the disjoint pair's probe-0 convolution, a
    cold combination_program with its check, was solved twice, and the
    sweep now asks the theorem once per probe. They were 1,940 and 1,705
    with the one membership solve the slack-basis start saved (above), and
    2,109 and 1,874 while each infimal convolution solved a cold program
    of its own: the 357 convolutions of the 17 slice pairs that meet (20
    probes each in the sweep, one in support_intersection_theorem) now
    read the kept outcome of the intersection's support solve at the same
    functional, whose LP dual that program is, and the sweep's attainment
    check, now run at every finite probe instead of under the hypotheses
    only, adds 188 support phase twos on the pairs' own sets, each with
    its check; the disjoint pair still solves its 21 cold programs. They
    were 1,898 and 1,663 while points outside a cone were answered by a
    polar vector checked once per cone, and the origin, asked 25 times,
    was in every cone with no LP solved: each of the 523 membership solves
    is now a phase two with a checked certificate, against 312 LPs before.
    They were 1,915 and 1,680 while common_point ran a phase two on a zero
    objective, with its check, after the prepared system had already
    checked its phase-one point: each of the 17 slice pairs that meet now
    reads that point and skips one phase two and its check. They were
    1,934 and 1,699 while each caller built its own intersection:
    support_intersection_theorem at the first probe now reads the kept
    intersection, whose support value there the sweep has already solved,
    so each of the 17 slice pairs that meet skips one support solve with
    its check, and the disjoint pair skips two phase ones, each ending in
    a checked Farkas outcome. They were 1,917 and 1,682 while the reach
    program ran over (x1, delta) and found its common point in its own
    phase one; the gauge program takes one common-point solve, with its
    check, for each of the 17 slice pairs that meet. They were 2,313 and
    2,078 while the window, the segment reach and the points outside cones
    were solved, and 2,092 and 1,857 while each support value was solved
    again on every request (750 support phase twos, now 546; a bounded
    check, kept per set, adds 26). There are 180 double descriptions. They
    were 214 while meets_interior canonicalized the second set of each
    pair (17 canonical forms, two DDs each), 189 while cone_rows ran again
    the polar DD that make_cone had run, and 162 while canonical_hrep
    solved LPs instead (2,530 checks in the solver)."""
    counts = Counts(monkeypatch)
    assert suite.run_suite(**SLICE).ok
    assert counts.minkowski == 18
    assert len(counts.reaches) == 105
    assert counts.make_cone == 91
    assert counts.memberships == 283
    assert (counts.checks, counts.solver_checks) == (1775, 950)
    assert counts.dd == 180
    assert len(counts.intersections) == 18
    assert all("lp_system" in s._memo for s in counts.intersections)
    pairs = [(id(a), id(b)) for a, b, _ in counts.systems]
    assert len(pairs) == len(set(pairs)) == 18
