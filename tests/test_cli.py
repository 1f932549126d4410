import argparse
import hashlib
import json
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path
from xml.etree import ElementTree

import pytest

from polyexact import suite
from polyexact.cli import build_parser, main
from polyexact.instances import fixture_names, load_instance

THREE_D_DOC = """{
  "sets": {
    "cube": {
      "kind": "hrep",
      "dim": 3,
      "ineqs": [
        {"normal": ["1", "0", "0"], "rhs": "1"},
        {"normal": ["-1", "0", "0"], "rhs": "1"},
        {"normal": ["0", "1", "0"], "rhs": "1"},
        {"normal": ["0", "-1", "0"], "rhs": "1"},
        {"normal": ["0", "0", "1"], "rhs": "1"},
        {"normal": ["0", "0", "-1"], "rhs": "1"}
      ]
    }
  }
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_extremal_yes(capsys):
    code, out, _ = run(capsys, "check-extremal", "halfplanes", "lower", "upper",
                       "--epsilon", "1/2")
    assert code == 0
    assert "extremal: yes" in out
    assert "disjoining translation" in out
    assert out.rstrip().endswith("ok")


def test_check_extremal_no(capsys):
    code, out, _ = run(capsys, "check-extremal", "boxes-overlap", "left", "right")
    assert code == 0
    assert "extremal: no" in out
    assert "interior ball radius" in out


def test_check_extremal_json_payload(capsys):
    code, out, _ = run(capsys, "--json", "check-extremal", "halfplanes",
                       "lower", "upper")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["result"]["extremal"] is True
    assert doc["result"]["boundary_evidence"] == {"normal": ["0", "1"], "rhs": "0"}


def test_separate_disjoint_boxes(capsys):
    code, out, _ = run(capsys, "separate", "separated-boxes", "left", "right")
    assert code == 0
    assert "separating functional: (1, 0)" in out
    assert "sup over left: 1" in out
    assert "inf over right: 2" in out


def test_separate_overlapping_pair(capsys):
    code, out, _ = run(capsys, "separate", "boxes-overlap", "left", "right")
    assert code == 0
    assert "no separating functional" in out


def test_ep_certificate(capsys):
    code, out, _ = run(capsys, "ep", "halfplanes", "lower", "upper",
                       "origin", "1/10")
    assert code == 0
    assert "independent recheck: pass" in out


def test_ep_needs_extremal_pair(capsys):
    code, _, err = run(capsys, "ep", "boxes-overlap", "left", "right",
                       "inner", "1/10")
    assert code == 1
    assert "extremal" in err


def test_intersection_rule_equal(capsys):
    code, out, _ = run(capsys, "intersection-rule", "halfplane-and-axis",
                       "halfplane", "axis", "origin")
    assert code == 0
    assert "EQUALS" in out
    assert "bounded extremality yes" in out


def test_support_named_and_literal_functional(capsys):
    code, out, _ = run(capsys, "support", "unit-square", "square", "diag")
    assert code == 0
    assert "support value: 2" in out
    code, out2, _ = run(capsys, "support", "unit-square", "square", "1,1")
    assert code == 0
    assert "support value: 2" in out2


def test_support_unbounded_ray(capsys):
    code, out, _ = run(capsys, "support", "halfplane-and-axis", "halfplane",
                       "up")
    assert code == 0
    assert "support value: +inf" in out
    assert "certified unbounded ray" in out


def test_infconv_value_and_split(capsys):
    code, out, _ = run(capsys, "infconv", "boxes-touching", "left", "right",
                       "up")
    assert code == 0
    assert "infimal convolution value: 1" in out
    assert "split: (0, 1) + (0, 0)" in out


def test_unknown_set_exits_2(capsys):
    code, _, err = run(capsys, "check-extremal", "halfplanes", "lower", "nope")
    assert code == 2
    assert "available: lower, upper" in err


def test_unknown_fixture_exits_2(capsys):
    code, _, err = run(capsys, "support", "missing-fixture", "s", "1,0")
    assert code == 2
    assert "fixtures:" in err


def test_oversized_json_number_exits_2(capsys, tmp_path):
    # past the 4300 digits int() converts by default
    doc = tmp_path / "doc.json"
    doc.write_text('{"sets": {"a": {"kind": "hrep", "dim": 1, '
                   '"ineqs": [{"normal": ["1"], "rhs": %s}]}}}' % ("1" * 4301))
    code, _, err = run(capsys, "support", str(doc), "a", "1")
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["plain", "json"])
def test_support_beyond_float_range_prints_the_exact_value(capsys, tmp_path, flags):
    # 10^500/3 has no float approximation; the text view, which --json
    # builds too, gives the exact value alone
    doc = tmp_path / "huge.json"
    doc.write_text('{"sets": {"s": {"kind": "hrep", "dim": 1, '
                   '"ineqs": [{"normal": ["3"], "rhs": "%s"}]}}}' % (10 ** 500))
    code, out, _ = run(capsys, *flags, "support", str(doc), "s", "1")
    assert code == 0
    assert f"{10 ** 500}/3" in out


def test_deeply_nested_document_exits_2(capsys, tmp_path):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, "support", str(doc), "a", "1")
    assert code == 2
    assert err.startswith("error: ")


def test_document_not_in_utf8_exits_2(capsys, tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_bytes(b"\xff")
    code, out, err = run(capsys, "--json", "support", str(doc), "a", "1")
    assert code == 2
    assert json.loads(out)["result"]["error"]["kind"] == "input"
    assert err.startswith("error: ")


def _accent_document(tmp_path) -> Path:
    """A UTF-8 instance with the sets "\u00e9" and "a" and the functional
    "\u00fc"."""
    doc = tmp_path / "accent.json"
    interval = {"kind": "hrep", "dim": 1, "ineqs": [{"normal": ["1"], "rhs": "1"}]}
    doc.write_bytes(json.dumps({"sets": {"\u00e9": interval, "a": interval},
                                "functionals": {"\u00fc": ["2"]}},
                               ensure_ascii=False).encode("utf-8"))
    return doc


def _run_cli(*argv, ascii_locale=True):
    """The CLI in a subprocess, under an ASCII locale that Python does
    not coerce, or else in UTF-8 mode."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    locale = (dict(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0") if ascii_locale
              else dict(PYTHONUTF8="1"))
    return subprocess.run([sys.executable, "-m", "polyexact.cli", *argv],
                          capture_output=True, timeout=60, env=dict(os.environ, PYTHONPATH=path,
                                                                    **locale))


def test_utf8_document_loads_under_an_ascii_locale(tmp_path):
    done = _run_cli("--json", "support", str(_accent_document(tmp_path)), "a", "1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["value"] == "1"


@pytest.mark.parametrize("flags", [(), ("-v",), ("--json",)], ids=["plain", "verbose", "json"])
def test_non_ascii_names_are_found_under_an_ascii_locale(tmp_path, flags):
    # the set and the functional are named in UTF-8 on the command line;
    # the output is the same bytes as in UTF-8 mode, the -v line naming
    # the set as given
    argv = (*flags, "support", str(_accent_document(tmp_path)), "\u00e9", "\u00fc")
    done = _run_cli(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    assert done.stdout == _run_cli(*argv, ascii_locale=False).stdout
    if flags == ("--json",):
        assert json.loads(done.stdout)["result"]["value"] == "2"
    else:
        assert b"support value: 2\n" in done.stdout
        assert done.stdout.startswith("\u00e9: dim 1".encode()) == (flags == ("-v",))


def test_plot_reports_a_non_ascii_out_path_as_utf8_under_an_ascii_locale(tmp_path):
    # the file is written under its UTF-8 name, and the report names it
    # as such, where it used to carry the locale's surrogate escapes
    out = tmp_path / "\u00fc.svg"
    argv = ("--json", "plot", "halfplanes", "lower", "upper", "--out", str(out))
    done = _run_cli(*argv)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["out"] == str(out)
    assert out.read_bytes().endswith(b"</svg>\n")
    assert done.stdout == _run_cli(*argv, ascii_locale=False).stdout


def test_bad_rational_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check-extremal", "halfplanes", "lower", "upper",
              "--epsilon", "half"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["check-extremal", "halfplanes", "lower", "upper", "--epsilon"],
    ["ep", "halfplanes", "lower", "upper", "origin"],
    ["plot", "halfplanes", "lower", "--out", "x.svg", "--viewport"],
], ids=["epsilon", "ep", "viewport"])
@pytest.mark.parametrize("text", ["1e3000000", "0.5", "1_0", "\u0661"])
def test_non_plain_rational_flag_exits_2(capsys, argv, text):
    with pytest.raises(SystemExit) as info:
        main([*argv, text])
    assert info.value.code == 2
    assert "bad rational literal" in capsys.readouterr().err


@pytest.mark.parametrize("pair", [("halfplanes", "lower", "upper"),
                                  ("boxes-overlap", "left", "right")])
@pytest.mark.parametrize("eps", ["0", "-1"])
def test_nonpositive_epsilon_exits_2(capsys, pair, eps):
    code, out, err = run(capsys, "--json", "check-extremal", *pair, "--epsilon", eps)
    assert code == 2
    assert json.loads(out)["result"]["error"]["kind"] == "input"
    assert err == "error: epsilon must be positive\n"


def test_json_error_document(capsys):
    code, out, err = run(capsys, "--json", "ep", "boxes-overlap", "left",
                         "right", "inner", "1/10")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["result"]["error"]["kind"] == "precondition"
    assert err


def test_verbose_adds_summaries(capsys):
    _, quiet, _ = run(capsys, "separate", "halfplanes", "lower", "upper")
    _, loud, _ = run(capsys, "-v", "separate", "halfplanes", "lower", "upper")
    assert "lower: dim 2" in loud and "lower: dim 2" not in quiet
    _, louder, _ = run(capsys, "-vv", "separate", "halfplanes", "lower", "upper")
    assert '"command": "separate"' in louder


def test_verify_suite_small_and_deterministic(capsys):
    argv = ("verify-suite", "--seed-range", "1..2", "--dims", "2",
            "--lp-count", "5", "--boundary-count", "2")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    code2, out2, _ = run(capsys, "--json", *argv)
    assert code2 == 0
    assert out == out2
    doc = json.loads(out)
    names = [s["name"] for s in doc["result"]["sweeps"]]
    assert len(names) == 9 and "lp-certification" in names


@pytest.mark.parametrize("flag, value, message", [
    ("--dims", "5", "unsupported dimension 5"),
    ("--seed-range", "0..2", "bad seed range 0..2"),
    ("--lp-count", "-3", "bad lp count -3"),
    ("--boundary-count", "-1", "bad boundary count -1"),
    ("--dims", "2,2", "repeated dimension in 2,2"),
    ("--parallel", "100000", f"100000 workers exceed the limit of {suite.MAX_WORKERS}"),
    ("--parallel", "0", "bad worker count 0"),
    ("--parallel", "-2", "bad worker count -2"),
    ("--seed-range", "1..100000000",
     f"200000051 tasks exceed the limit of {suite.MAX_TASKS}"),
    ("--lp-count", "100000000", f"1000211 tasks exceed the limit of {suite.MAX_TASKS}"),
])
def test_verify_suite_bad_configuration_exits_2(capsys, monkeypatch, flag, value, message):
    def no_pool(*args, **kwargs):
        pytest.fail("a pool was started for a refused configuration")

    def no_tasks(*args, **kwargs):
        pytest.fail("a task list was built for a refused configuration")

    monkeypatch.setattr(suite, "Pool", no_pool)
    monkeypatch.setattr(suite, "build_tasks", no_tasks)
    code, _, err = run(capsys, "verify-suite", flag, value)
    assert code == 2
    assert err == f"error: {message}\n"


def test_plot_writes_deterministic_svg(tmp_path, capsys):
    target = tmp_path / "scene.svg"
    argv = ("plot", "halfplanes", "lower", "upper", "--cones-at", "origin",
            "--separator", "up", "--out", str(target))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "separator drawn at (0, 1) . x = 0" in out
    first = target.read_bytes()
    assert first.startswith(b"<?xml")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert target.read_bytes() == first


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_plot_unwritable_out_exits_2(tmp_path, capsys, flags):
    target = tmp_path / "missing" / "scene.svg"
    code, out, err = run(capsys, *flags, "plot", "halfplanes", "lower", "upper",
                         "--out", str(target))
    assert code == 2
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()
    if flags:
        assert json.loads(out)["result"]["error"]["kind"] == "input"
    else:
        assert out == ""


def _halfplanes_with(tmp_path, edit):
    """The halfplanes fixture, edited, as a document in tmp_path."""
    doc = json.loads((Path(suite.__file__).parent / "fixtures" / "halfplanes.json").read_text())
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_plot_leaves_out_a_point_far_outside_the_viewport(tmp_path, capsys):
    # (10^400, 0) lies in both half-planes; its cone fans and its dot are
    # left out instead of overflowing a float
    doc = _halfplanes_with(tmp_path, lambda d: d["points"].update(far=["1" + "0" * 400, "0"]))
    target = tmp_path / "far.svg"
    code, out, err = run(capsys, "plot", doc, "lower", "upper", "--cones-at", "far",
                         "--out", str(target))
    assert (code, err) == (0, "")
    assert "normal cone of lower" in out
    ElementTree.parse(target)


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_plot_refuses_a_name_xml_cannot_hold(tmp_path, capsys, flags):
    doc = _halfplanes_with(tmp_path, lambda d: d["sets"].update({"a\u0001b": d["sets"]["lower"]}))
    target = tmp_path / "scene.svg"
    code, out, err = run(capsys, *flags, "plot", doc, "a\u0001b", "upper", "--out", str(target))
    assert code == 2
    assert err == "error: set name 'a\\x01b' holds '\\x01', which an SVG cannot hold\n"
    assert not target.exists()
    # the other commands read the name as any other
    code, _, _ = run(capsys, "support", doc, "a\u0001b", "0,-1")
    assert code == 0


def test_plot_rejects_non_planar(tmp_path, capsys):
    doc = tmp_path / "cube.json"
    doc.write_text(THREE_D_DOC, encoding="utf-8")
    code, _, err = run(capsys, "plot", str(doc), "cube",
                       "--out", str(tmp_path / "cube.svg"))
    assert code == 2
    assert "planar" in err


def test_plot_separator_must_separate(tmp_path, capsys):
    code, _, err = run(capsys, "plot", "boxes-overlap", "left", "right",
                       "--separator", "diag", "--out",
                       str(tmp_path / "x.svg"))
    assert code == 1
    assert "does not separate" in err


def test_verify_suite_report_matches_golden_bytes(capsys):
    """A pinned small suite report: any drift in a verdict, certificate
    or count changes these bytes."""
    golden = Path(__file__).parent / "data" / "verify_suite_dims2_seeds1-3.json"
    code, out, _ = run(capsys, "--json", "verify-suite", "--dims", "2", "--seed-range", "1..3")
    assert code == 0
    assert out.encode() == golden.read_bytes()


LITERAL_FUNCTIONALS = ("1,0", "0,1", "1,1", "1,-1", "2,1", "1,2", "3,-2")
EP_EPSILONS = ("1", "1/2", "1/7", "1/40")


def _fixture_corpus():
    """The --json commands on the packaged fixtures: every planar set at
    each named functional and each literal of LITERAL_FUNCTIONALS, and
    every ordered pair of distinct sets checked, separated and
    convolved at those functionals, then at every named point its
    intersection rule and its approximate principle at EP_EPSILONS."""
    for name in fixture_names():
        doc = load_instance(name)
        sets = sorted(k for k, s in doc.sets.items() if s.dim == 2)
        functionals = sorted(doc.functionals) + list(LITERAL_FUNCTIONALS)
        points = sorted(doc.points)
        for s in sets:
            yield from (["support", name, s, g] for g in functionals)
        for pair in permutations(sets, 2):
            yield ["check-extremal", name, *pair]
            yield ["separate", name, *pair]
            yield from (["infconv", name, *pair, g] for g in functionals)
            for p in points:
                yield ["intersection-rule", name, *pair, p]
                yield from (["ep", name, *pair, p, eps] for eps in EP_EPSILONS)


def test_fixture_reports_match_pinned_bytes(capsys):
    """The --json stdout of the fixture corpus, refused commands
    included, hashed in corpus order: any drift in a verdict,
    certificate or error on a packaged fixture changes this digest."""
    digest = hashlib.sha256()
    count = 0
    for argv in _fixture_corpus():
        main(["--json", *argv])
        digest.update(capsys.readouterr().out.encode())
        count += 1
    assert count == 319
    assert digest.hexdigest() == "8de6d15de07125e2e852b2bd65b2c1dc9b9d23244d99e18641a69523c9513925"


# -- the shared parser ---------------------------------------------------------

SUPPORT = ("support", "unit-square", "square", "diag")


def test_parser_is_not_built_at_import():
    code = ("import polyexact.cli as cli; "
            "print(cli.build_parser.cache_info().currsize)")
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out == "0\n"


def test_second_call_builds_no_parser(capsys, monkeypatch):
    run(capsys, *SUPPORT)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, _, _ = run(capsys, "--json", *SUPPORT)
    assert code == 0
    assert built == []


@pytest.mark.parametrize("before", [
    ("-v", "-v", *SUPPORT),
    (*SUPPORT, "-v", "-v"),
    ("--json", *SUPPORT),
    (*SUPPORT, "--json"),
], ids=["root-verbose", "sub-verbose", "root-json", "sub-json"])
def test_flags_do_not_leak_into_the_next_call(capsys, before):
    build_parser.cache_clear()
    first = run(capsys, *SUPPORT)
    assert "square: dim 2" not in first[1] and '"command"' not in first[1]
    code, out, _ = run(capsys, *before)
    assert code == 0 and out != first[1]
    assert run(capsys, *SUPPORT) == first


def test_parse_failure_does_not_leak_into_the_next_call(capsys):
    build_parser.cache_clear()
    argv = ("check-extremal", "halfplanes", "lower", "upper")
    first = run(capsys, *argv)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--epsilon", "x"])
    assert info.value.code == 2
    assert "--epsilon" in capsys.readouterr().err
    assert run(capsys, *argv) == first
