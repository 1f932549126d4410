"""The --json encoder against the hand-written payloads it replaced.

report.payload and its three wrappers must give the same Python objects
and the same canonical bytes as tests/report_reference.py on every kind
of result the CLI and the suite report: verdicts with and without a
requested epsilon, separations, approximate certificates at every grid
epsilon, qualification reports, intersection rules, finite and infinite
support values, all three infimal convolution kinds and a suite result.
The pairs are the generated ones of dims 2-4, seeds 1-6, and every
fixture pair, each in both orders.
"""
import json
from fractions import Fraction as F

import pytest

import report_reference as ref
from polyexact.calculus import (
    inf_convolution_support,
    intersection_rule,
    qualification_report,
    standard_probes,
    support_value,
)
from polyexact.extremality import (
    EPSILON_GRID,
    approximate_extremal_principle,
    is_extremal_system,
    separate,
)
from polyexact.instances import load_instance
from polyexact.report import extremality_payload, infconv_payload, payload, support_payload
from polyexact.suite import _task_instance, build_tasks, run_suite


def assert_same(ours, theirs):
    assert ours == theirs
    assert json.dumps(ours, sort_keys=True) == json.dumps(theirs, sort_keys=True)


@pytest.fixture(scope="module")
def pairs():
    """(label, s1, s2, common point or None) for every ordered pair."""
    out = []
    for task in build_tasks(dims=(2, 3, 4), seed_range=(1, 6),
                            lp_count=0, boundary_count=0):
        if task[0] in ("pair", "fixture"):
            label, s1, s2, anchor = _task_instance(task)
            out.append((label, s1, s2, anchor))
            out.append((label + " swapped", s2, s1, anchor))
    return out


@pytest.mark.parametrize("epsilon", [None, F(1, 2)])
def test_verdicts(pairs, epsilon):
    verdicts = [is_extremal_system(s1, s2, epsilon=epsilon) for _, s1, s2, _ in pairs]
    for verdict in verdicts:
        assert_same(extremality_payload(verdict), ref.extremality_payload(verdict))
    assert any(v.boundary_evidence is not None for v in verdicts)
    assert any(v.interior_ball_radius is not None for v in verdicts)
    assert any(v.perturbation is not None for v in verdicts) == (epsilon is not None)


def test_separations(pairs):
    certs = [separate(s1, s2) for _, s1, s2, _ in pairs]
    for cert in certs:
        if cert is not None:
            assert_same(payload(cert), ref.separation_payload(cert))
    assert None in certs and any(certs)


def test_approximate_certificates_at_every_grid_epsilon(pairs):
    built = 0
    for _, s1, s2, anchor in pairs:
        if anchor is None or not is_extremal_system(s1, s2).extremal:
            continue
        for epsilon in EPSILON_GRID:
            cert = approximate_extremal_principle(s1, s2, anchor, epsilon)
            assert_same(payload(cert), ref.approx_ep_payload(cert))
            built += 1
    assert built


def test_qualification_reports_and_intersection_rules(pairs):
    for _, s1, s2, anchor in pairs:
        if anchor is None:
            continue
        qc = qualification_report(s1, s2, anchor)
        assert_same(payload(qc), ref.qc_payload(qc))
        rule = intersection_rule(s1, s2, anchor)
        assert_same(payload(rule), ref.rule_payload(rule))


def test_support_values(pairs):
    for _, s1, s2, _ in pairs:
        for g in standard_probes(s1.dim)[:2 * s1.dim]:
            for s in (s1, s2):
                value = support_value(s, g)
                assert_same(support_payload(value), ref.support_payload(value))


def test_support_value_plus_infinity():
    doc = load_instance("halfplanes")
    value = support_value(doc.get_set("lower"), (0, -1))
    assert not value.finite
    assert support_payload(value)["value"] == "+inf"
    assert_same(support_payload(value), ref.support_payload(value))


def test_infimal_convolutions_of_every_kind(pairs):
    kinds = set()
    for _, s1, s2, _ in pairs:
        for g in standard_probes(s1.dim)[:2 * s1.dim]:
            value = inf_convolution_support(s1, s2, g)
            kinds.add(value.kind)
            assert_same(infconv_payload(value), ref.infconv_payload(value))
    assert kinds == {"finite", "plus-infinity", "minus-infinity"}


def test_suite_result():
    result = run_suite(dims=(2,), seed_range=(1, 3), lp_count=4, boundary_count=3)
    assert_same(result.to_payload(), ref.suite_payload(result))
