import json

import pytest

from polyexact import calculus, suite
from polyexact.errors import InputError
from polyexact.instances import fixture_names
from polyexact.suite import (
    DIM4_SEED_CAP,
    FIXTURE_PAIRS,
    MAX_TASKS,
    MAX_WORKERS,
    SWEEP_NAMES,
    SweepOutcome,
    build_tasks,
    run_suite,
    task_count,
)

SMALL = dict(dims=(2, 3), seed_range=(1, 6), lp_count=25, boundary_count=9)


@pytest.fixture(scope="module")
def small_result():
    return run_suite(**SMALL)


def test_small_corpus_is_green(small_result):
    assert small_result.ok
    for sweep in small_result.sweeps:
        assert sweep.ok, sweep.violations


def test_sweeps_cover_every_name_in_order(small_result):
    assert tuple(s.name for s in small_result.sweeps) == SWEEP_NAMES
    # every sweep saw work on even a small corpus
    for sweep in small_result.sweeps:
        assert sweep.checked > 0, sweep.name


def test_counts_match_corpus(small_result):
    # 6 seeds in each of two dimensions plus the packaged pairs
    assert small_result.pair_count == 12 + len(FIXTURE_PAIRS)
    by_name = {s.name: s for s in small_result.sweeps}
    assert by_name["extremality-grid-agreement"].checked == small_result.pair_count
    assert by_name["lp-certification"].checked == 25
    assert by_name["boundary-support-points"].checked == 9
    assert by_name["lp-certification"].details["mutations"] > 25
    assert by_name["determinism"].details["fixtures"] == len(fixture_names())


def test_identical_runs_give_identical_payloads(small_result):
    again = run_suite(**SMALL)
    first = json.dumps(small_result.to_payload(), sort_keys=True)
    second = json.dumps(again.to_payload(), sort_keys=True)
    assert first == second


def test_pool_merge_matches_serial(small_result):
    config = dict(SMALL, dims=(2,), seed_range=(1, 3), lp_count=4, boundary_count=3)
    serial = run_suite(**config)
    pooled = run_suite(parallel=2, **config)
    assert serial.to_payload() == pooled.to_payload()


def test_dim_four_seed_cap():
    tasks = build_tasks(dims=(4,), seed_range=(1, 85))
    pair_tasks = [t for t in tasks if t[0] == "pair"]
    assert len(pair_tasks) == DIM4_SEED_CAP
    assert pair_tasks[0] == ("pair", 4, 1)
    assert pair_tasks[-1] == ("pair", 4, DIM4_SEED_CAP)


def test_fixture_pairs_are_packaged():
    assert set(FIXTURE_PAIRS) <= set(fixture_names())


def test_bad_configuration_rejected():
    with pytest.raises(ValueError):
        run_suite(dims=(5,), seed_range=(1, 2))
    with pytest.raises(ValueError):
        run_suite(seed_range=(3, 1))
    with pytest.raises(ValueError):
        run_suite(seed_range=(0, 4))
    for config in (dict(dims=(2, 3, 2)), dict(lp_count=-1), dict(boundary_count=-1)):
        with pytest.raises(ValueError):
            run_suite(seed_range=(1, 2), **config)


def test_worker_cap_is_checked_before_any_pool(monkeypatch):
    class Started(Exception):
        pass

    def stub(processes):
        raise Started(processes)

    monkeypatch.setattr(suite, "Pool", stub)
    config = dict(dims=(2,), seed_range=(1, 1))
    with pytest.raises(InputError, match=f"{MAX_WORKERS + 1} workers exceed"):
        run_suite(parallel=MAX_WORKERS + 1, **config)
    with pytest.raises(Started) as info:
        run_suite(parallel=MAX_WORKERS, **config)
    assert info.value.args == (MAX_WORKERS,)


@pytest.mark.parametrize("config", [
    dict(),
    dict(dims=(2,), seed_range=(1, 12), lp_count=90, boundary_count=9),
    dict(dims=(4,), seed_range=(5, 7), lp_count=0, boundary_count=0),
    dict(dims=(1, 2, 3, 4), seed_range=(3, 300), lp_count=101, boundary_count=26),
    dict(dims=(3, 4), seed_range=(40, 40), lp_count=100, boundary_count=25),
])
def test_task_count_is_the_length_of_the_task_list(config):
    assert task_count(**config) == len(build_tasks(**config))


def test_default_run_is_inside_the_task_cap():
    assert task_count() == 221 <= MAX_TASKS


@pytest.mark.parametrize("config, count", [
    (dict(seed_range=(1, 100_000_000)), 200_000_051),
    (dict(lp_count=100_000_000), 1_000_211),
    # one planar seed past the cap: the pairs, six fixtures and the roundtrip
    (dict(dims=(2,), seed_range=(1, MAX_TASKS - 6), lp_count=0, boundary_count=0),
     MAX_TASKS + 1),
])
def test_task_cap_is_checked_before_the_task_list(monkeypatch, config, count):
    def no_tasks(*args, **kwargs):
        pytest.fail("a task list was built for a refused run")

    monkeypatch.setattr(suite, "build_tasks", no_tasks)
    with pytest.raises(InputError, match=f"^{count} tasks exceed the limit of {MAX_TASKS}$"):
        run_suite(**config)


def test_a_run_at_the_task_cap_reaches_the_task_list(monkeypatch):
    class Built(Exception):
        pass

    def stub(*args):
        raise Built(task_count(*args))

    monkeypatch.setattr(suite, "build_tasks", stub)
    with pytest.raises(Built) as info:
        run_suite(dims=(2,), seed_range=(1, MAX_TASKS - 7), lp_count=0, boundary_count=0)
    assert info.value.args == (MAX_TASKS,)


def test_zero_counts_are_allowed():
    result = run_suite(dims=(2,), seed_range=(1, 1), lp_count=0, boundary_count=0)
    by_name = {s.name: s for s in result.sweeps}
    assert by_name["lp-certification"].checked == 0
    assert by_name["boundary-support-points"].checked == 0


def test_outcome_flags_violations():
    clean = SweepOutcome("lp-certification", 10, (), {})
    dirty = SweepOutcome("lp-certification", 10, ("lp seed=1: bad",), {})
    assert clean.ok and not dirty.ok


def test_sweep_reports_a_split_that_does_not_attain(monkeypatch):
    # the sweep checks each finite convolution on the pair's own sets, so
    # a split with the right sum and value that misses the value fails
    real = calculus.inf_convolution_support

    def shifted(s1, s2, g):
        out = real(s1, s2, g)
        if out.kind != "finite":
            return out
        e = tuple(2 if j == 0 else 0 for j in range(s1.dim))
        w1 = tuple(x + y for x, y in zip(out.witness1, e))
        w2 = tuple(x - y for x, y in zip(out.witness2, e))
        return calculus.InfConvolutionValue(out.kind, out.value, w1, w2)

    monkeypatch.setattr(suite, "inf_convolution_support", shifted)
    record = suite._run_task(("fixture", "boxes-overlap"))
    assert ("support-infconv-identity", "fixture boxes-overlap: convolution infimum is not "
            "attained") in record["violations"]
