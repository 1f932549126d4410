"""Instance document parsing, canonical serialization, and fixtures."""
import json
import sys

import pytest

from polyexact.errors import CapacityError, FormatError, InputError
from polyexact.instances import (
    MAX_DOC_ROWS,
    MAX_LITERAL_CHARS,
    fixture_names,
    load_instance,
    parse_document,
    parse_vector,
    serialize_document,
)
from polyexact.linalg import frac, vec


def test_bundled_fixture_names():
    names = fixture_names()
    assert "halfplane-and-axis" in names
    assert "boxes-overlap" in names
    assert names == tuple(sorted(names))
    assert len(names) == 9


def test_every_fixture_is_a_serialize_fixpoint():
    from polyexact.instances import _fixture_root

    for name in fixture_names():
        text = _fixture_root().joinpath(f"{name}.json").read_text()
        assert serialize_document(parse_document(text)) == text


def test_load_fixture_by_name():
    doc = load_instance("halfplane-and-axis")
    halfplane = doc.get_set("halfplane")
    axis = doc.get_set("axis")
    assert halfplane.contains(vec((5, 3)))
    assert not halfplane.contains(vec((0, -1)))
    assert axis.contains(vec((0, -7)))
    assert doc.get_point("origin") == vec((0, 0))
    assert doc.get_functional("up") == vec((0, 1))


def test_load_instance_from_path(tmp_path):
    doc = load_instance("unit-square")
    path = tmp_path / "copy.json"
    path.write_text(serialize_document(doc))
    again = load_instance(str(path))
    assert serialize_document(again) == serialize_document(doc)


def test_unknown_fixture_lists_names():
    with pytest.raises(InputError, match="boxes-overlap"):
        load_instance("no-such-fixture")


def test_unknown_set_name_lists_available():
    doc = load_instance("halfplanes")
    with pytest.raises(InputError, match="lower, upper"):
        doc.get_set("middle")


def test_vrep_fixture_keeps_its_representation():
    doc = load_instance("triangle")
    payload = json.loads(serialize_document(doc))
    assert payload["sets"]["triangle"]["kind"] == "vrep"
    assert doc.get_set("triangle").contains(vec(("1/4", "1/4"))) is True


def test_empty_document():
    doc = parse_document("{}")
    assert doc.sets == {} and doc.points == {} and doc.functionals == {}
    assert json.loads(serialize_document(doc)) == {"sets": {}, "points": {}, "functionals": {}}


def test_parse_error_carries_line_number():
    with pytest.raises(FormatError, match="line 3"):
        parse_document('{\n "sets": {\n!}\n}')


def test_top_level_must_be_object():
    with pytest.raises(FormatError, match="top level"):
        parse_document("[1, 2]")


def test_unknown_top_level_key():
    with pytest.raises(FormatError, match="cones"):
        parse_document('{"cones": {}}')


def test_bad_kind_rejected():
    with pytest.raises(FormatError, match="kind"):
        parse_document('{"sets": {"s": {"kind": "polygon", "dim": 2}}}')


def test_bad_dim_rejected():
    with pytest.raises(FormatError, match="dim"):
        parse_document('{"sets": {"s": {"kind": "hrep", "dim": 0}}}')


def test_decimal_rejected():
    text = '{"sets": {"s": {"kind": "hrep", "dim": 1, "ineqs": [{"normal": [0.5], "rhs": "1"}]}}}'
    with pytest.raises(FormatError, match="decimal"):
        parse_document(text)


def test_bad_rational_string_rejected():
    text = '{"points": {"p": ["1/0"]}}'
    with pytest.raises(FormatError, match="point 'p'"):
        parse_document(text)


def test_row_shape_rejected():
    text = '{"sets": {"s": {"kind": "hrep", "dim": 1, "ineqs": [{"normal": ["1"]}]}}}'
    with pytest.raises(FormatError, match="rhs"):
        parse_document(text)


def test_normal_length_mismatch_rejected():
    text = '{"sets": {"s": {"kind": "hrep", "dim": 2, "ineqs": [{"normal": ["1"], "rhs": "0"}]}}}'
    with pytest.raises(FormatError, match="expected 2 entries"):
        parse_document(text)


def test_ray_without_vertex_rejected():
    text = '{"sets": {"s": {"kind": "vrep", "dim": 2, "rays": [["1", "0"]]}}}'
    with pytest.raises(FormatError, match="set 's'"):
        parse_document(text)


def test_dimension_cap():
    with pytest.raises(CapacityError, match="cap"):
        parse_document('{"sets": {"s": {"kind": "hrep", "dim": 9}}}')


def test_row_count_cap():
    rows = ",".join('{"normal": ["1"], "rhs": "%d"}' % k for k in range(MAX_DOC_ROWS + 1))
    with pytest.raises(CapacityError, match="rows"):
        parse_document('{"sets": {"s": {"kind": "hrep", "dim": 1, "ineqs": [%s]}}}' % rows)


def test_caps_checked_before_any_literal_is_converted():
    good = ",".join('{"normal": ["1"], "rhs": "%d"}' % k for k in range(MAX_DOC_ROWS))
    bad = '{"normal": ["1"], "rhs": "not-a-number"}'
    with pytest.raises(CapacityError, match="rows"):
        parse_document('{"sets": {"s": {"kind": "hrep", "dim": 1, "eqs": [%s], "ineqs": [%s]}}}'
                       % (bad, good))
    vertices = ",".join('["%d"]' % k for k in range(MAX_DOC_ROWS))
    with pytest.raises(CapacityError, match="generators"):
        parse_document('{"sets": {"s": {"kind": "vrep", "dim": 1, "vertices": [%s], "rays": [["1.5"]]}}}'
                       % vertices)


def test_point_length_cap():
    text = '{"points": {"p": [%s]}}' % ",".join(['"1"'] * 9)
    with pytest.raises(CapacityError):
        parse_document(text)


def _one_row_set(rhs: str) -> str:
    return '{"sets": {"s": {"kind": "hrep", "dim": 1, "ineqs": [{"normal": ["1"], "rhs": %s}]}}}' % rhs


def test_literal_length_cap():
    longest = "1" * MAX_LITERAL_CHARS
    for rhs in ('"%s"' % longest, longest):
        doc = parse_document(_one_row_set(rhs))
        assert doc.get_set("s").hrep().ineqs[0][1] == int(longest)
    with pytest.raises(CapacityError, match="set 's'"):
        parse_document(_one_row_set('"1/%s"' % longest))
    with pytest.raises(CapacityError, match="cap"):
        parse_document(_one_row_set("1" + longest))


def test_integer_past_the_interpreter_digit_limit_is_a_format_error():
    # the literal cap sits below the default limit of 4300 digits; an
    # interpreter may run with a lower one, down to 640
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(FormatError, match="integer"):
            parse_document(_one_row_set("1" * 641))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("doc", [
    "[" * 100000 + "]" * 100000,
    '{"sets": ' + '{"a": ' * 100000 + "{}" + "}" * 100001,
], ids=["arrays", "objects"])
def test_deeply_nested_document_is_a_format_error(doc):
    with pytest.raises(FormatError, match="nested too deeply"):
        parse_document(doc)


def test_parse_vector_literals():
    assert parse_vector("1/2,-1") == vec(("1/2", "-1"))
    assert parse_vector("(0, 1)") == vec((0, 1))
    assert parse_vector(" 3 ") == vec((3,))
    with pytest.raises(InputError):
        parse_vector("1,,2")
    with pytest.raises(InputError):
        parse_vector("")


@pytest.mark.parametrize("text", ["1e3000000", "0.5", "1_0", "\u0661"])
def test_only_ascii_p_over_q_strings_are_rationals(text):
    """An exponent, a decimal point, an underscore or a non-ASCII digit
    is refused before conversion. Fraction itself reads each of them
    (underscores from Python 3.11), and expands the first, nine
    characters, to a ten-million-bit integer."""
    with pytest.raises(InputError, match="bad rational literal"):
        frac(text)
    with pytest.raises(FormatError, match="bad rational literal"):
        parse_document('{"points": {"p": ["1", "%s"]}}' % text)
    with pytest.raises(InputError):
        parse_vector("1," + text)


def test_fixture_directory_override(tmp_path, monkeypatch):
    doc = load_instance("segment")
    (tmp_path / "only-one.json").write_text(serialize_document(doc))
    monkeypatch.setenv("POLYEXACT_FIXTURES", str(tmp_path))
    assert fixture_names() == ("only-one",)
    assert load_instance("only-one").get_set("segment").contains(vec((0, "1/2")))
    with pytest.raises(InputError, match="only-one"):
        load_instance("segment")
