"""Acceptance gate: one test per shipped guarantee.

Each test prints a single pass/fail line with its pinned tolerance.
Every arithmetic comparison in the package is exact over rationals, so
the pinned tolerance is zero everywhere; the only numeric budget in
this module is the two-minute wall clock on the extremality agreement
corpus.
"""
import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from polyexact.calculus import difference_interiority, intersection_rule, qualification_report
from polyexact.cli import main
from polyexact.extremality import EPSILON_GRID, is_extremal_system
from polyexact.instances import load_instance
from polyexact.linalg import zero_vec
from polyexact.oracle import grid_cell, grid_interior_verdict
from polyexact.suite import (
    BOUNDARY_POINT_COUNT,
    FIXTURE_PAIRS,
    GRID_HALF_WIDTH,
    LP_SWEEP_COUNT,
    _task_instance,
    build_tasks,
)

TIME_BUDGET_SECONDS = 120.0
MIN_GENERATED_PAIRS = 200


def corpus_pairs():
    """The default corpus: generated pairs in dims 2-4 plus the packaged
    two-set fixtures, in the order of the default suite's tasks."""
    for task in build_tasks():
        if task[0] in ("pair", "fixture"):
            label, s1, s2, _ = _task_instance(task)
            yield label, s1, s2


def run_cli_suite():
    """Exit code and stdout of one default `--json verify-suite` run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--json", "verify-suite"])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def suite_run():
    """The default suite run once through the CLI: exit code, report
    bytes and the parsed report."""
    code, text = run_cli_suite()
    return code, text, json.loads(text)


def by_name(run):
    return {sweep["name"]: sweep for sweep in run[2]["result"]["sweeps"]}


def test_criterion_1_extremality_agreement_with_grid_oracle():
    start = time.perf_counter()
    pairs = disagreements = grid_checked = 0
    cell = grid_cell(GRID_HALF_WIDTH)
    for label, s1, s2 in corpus_pairs():
        pairs += 1
        verdict = is_extremal_system(s1, s2)
        radius = difference_interiority(s1, s2)
        if (radius is None) != verdict.extremal:
            disagreements += 1
        if s1.dim == 2:
            approx = grid_interior_verdict(verdict.difference.hrep(),
                                           zero_vec(2), cell)
            if approx is not None:
                grid_checked += 1
                if approx == verdict.extremal:
                    disagreements += 1
    elapsed = time.perf_counter() - start
    generated = pairs - len(FIXTURE_PAIRS)
    line = (f"criterion 1: {'PASS' if not disagreements else 'FAIL'} — "
            f"{generated} generated pairs + {len(FIXTURE_PAIRS)} fixtures, "
            f"{grid_checked} grid cross-checks (resolution 401, guard band), "
            f"{disagreements} disagreements (tolerance 0), "
            f"{elapsed:.1f}s < {TIME_BUDGET_SECONDS:.0f}s")
    print(line)
    assert generated >= MIN_GENERATED_PAIRS
    assert grid_checked > 0
    assert disagreements == 0
    assert elapsed < TIME_BUDGET_SECONDS


def test_criterion_2_separation_equivalence_chain(suite_run):
    sweep = by_name(suite_run)["separation-equivalence"]
    extremal = by_name(suite_run)["extremality-grid-agreement"]["details"]["extremal"]
    ok = sweep["ok"] and sweep["details"]["separated"] == extremal
    print(f"criterion 2: {'PASS' if ok else 'FAIL'} — {sweep['checked']} pairs, "
          f"{sweep['details']['separated']} separable = {extremal} extremal, "
          f"{sweep['details']['witnesses']} common-normal witnesses "
          f"(exact, tolerance 0)")
    assert sweep["ok"], sweep["violations"]
    assert sweep["details"]["separated"] == extremal
    assert sweep["details"]["witnesses"] > 0


def test_criterion_3_approximate_principle_certificates(suite_run):
    assert EPSILON_GRID == (Fraction(1), Fraction(1, 2), Fraction(1, 10),
                            Fraction(1, 100))
    sweep = by_name(suite_run)["approximate-principle-certificates"]
    witnesses = by_name(suite_run)["separation-equivalence"]["details"]["witnesses"]
    print(f"criterion 3: {'PASS' if sweep['ok'] else 'FAIL'} — {sweep['checked']} "
          f"certificates over epsilon grid (1, 1/2, 1/10, 1/100), all four "
          f"conditions exact (tolerance 0)")
    assert sweep["ok"], sweep["violations"]
    assert sweep["checked"] == 4 * witnesses > 0


def test_criterion_4_intersection_rule_under_qualification(suite_run):
    sweep = by_name(suite_run)["intersection-rule-under-qualification"]
    # key fixture: halfplane against a line in its boundary; the
    # classical interiority condition fails but the windowed one holds
    # and the rule is exact
    doc = load_instance("halfplane-and-axis")
    s1, s2 = doc.get_set("halfplane"), doc.get_set("axis")
    origin = doc.get_point("origin")
    qc = qualification_report(s1, s2, origin)
    rule = intersection_rule(s1, s2, origin)
    fixture_ok = (not qc.classical_interiority and qc.difference_interiority
                  and qc.bounded_extremality and rule.equal)
    ok = sweep["ok"] and fixture_ok
    print(f"criterion 4: {'PASS' if ok else 'FAIL'} — {sweep['checked']} pairs, "
          f"{sweep['details']['qualified']} qualified all equal, "
          f"{sweep['details']['inclusion-directions']} inclusion directions "
          f"100%, key fixture reproduces (tolerance 0)")
    assert sweep["ok"], sweep["violations"]
    assert sweep["details"]["qualified"] > 0
    assert fixture_ok


def test_criterion_5_core_interior_coincidence(suite_run):
    sweep = by_name(suite_run)["core-interior-coincidence"]
    print(f"criterion 5: {'PASS' if sweep['ok'] else 'FAIL'} — {sweep['checked']} "
          f"pairs core=interior at zero, {sweep['details']['strong-hypotheses']} "
          f"strong-hypothesis cases all imply the windowed qualification "
          f"(tolerance 0)")
    assert sweep["ok"], sweep["violations"]
    assert sweep["details"]["strong-hypotheses"] > 0


def test_criterion_6_support_infconv_identity(suite_run):
    sweep = by_name(suite_run)["support-infconv-identity"]
    print(f"criterion 6: {'PASS' if sweep['ok'] else 'FAIL'} — {sweep['checked']} "
          f"probe checks, upper bound 100%, {sweep['details']['hypothesis-pairs']} "
          f"hypothesis pairs with equality and {sweep['details']['attained']} "
          f"attained witnesses (tolerance 0)")
    assert sweep["ok"], sweep["violations"]
    assert sweep["details"]["hypothesis-pairs"] > 0
    assert sweep["details"]["attained"] > 0


def test_criterion_7_boundary_support_points(suite_run):
    sweep = by_name(suite_run)["boundary-support-points"]
    print(f"criterion 7: {'PASS' if sweep['ok'] else 'FAIL'} — {sweep['checked']} "
          f"random boundary points, supporting functional at distance 0, "
          f"attainment by LP equality (tolerance 0)")
    assert BOUNDARY_POINT_COUNT == 100
    assert sweep["checked"] == 100
    assert sweep["ok"], sweep["violations"]


def test_criterion_8_lp_certification(suite_run):
    sweep = by_name(suite_run)["lp-certification"]
    print(f"criterion 8: {'PASS' if sweep['ok'] else 'FAIL'} — {sweep['checked']} "
          f"random programs certified, {sweep['details']['mutations']} mutated "
          f"certificates all rejected (tolerance 0)")
    assert LP_SWEEP_COUNT == 1000
    assert sweep["checked"] == 1000
    assert sweep["details"]["mutations"] > 0
    assert sweep["ok"], sweep["violations"]


def test_criterion_9_determinism_of_full_suite_reports(suite_run):
    first_code, first, _ = suite_run
    second_code, second = run_cli_suite()
    ok = first_code == second_code == 0 and first == second
    print(f"criterion 9: {'PASS' if ok else 'FAIL'} — two full verify-suite "
          f"runs, {len(first.encode('utf-8'))} report bytes each, "
          f"byte-identical: {first == second}")
    assert first_code == 0 and second_code == 0
    assert json.loads(first)["ok"] is True
    assert first == second
