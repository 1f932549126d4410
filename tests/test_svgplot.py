from fractions import Fraction
from xml.etree import ElementTree

import pytest

from polyexact.cones import normal_cone
from polyexact.errors import InputError
from polyexact.instances import load_instance
from polyexact.sets import ConvexSet, ball_inf
from polyexact.svgplot import render_scene


def unit_square():
    return load_instance("unit-square").get_set("square")


def test_bytes_are_reproducible():
    doc = load_instance("halfplanes")
    scene = dict(
        sets=[("lower", doc.get_set("lower")), ("upper", doc.get_set("upper"))],
        points=[("origin", doc.get_point("origin"))],
        separator=((0, 1), 0),
    )
    assert render_scene(**scene) == render_scene(**scene)


def test_plotting_keeps_the_pair_records_of_the_sets():
    doc = load_instance("halfplanes")
    lower, upper = doc.get_set("lower"), doc.get_set("upper")
    both, diff = lower.intersect(upper), lower.difference(upper)
    render_scene([("lower", lower), ("upper", upper)])
    assert lower.intersect(upper) is both and lower.difference(upper) is diff


def test_document_envelope():
    svg = render_scene([("square", unit_square())])
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert svg.endswith("</svg>\n")
    assert 'version="1.1"' in svg


def test_square_vertices_project_exactly():
    svg = render_scene([("square", unit_square())])
    # centroid (1/2, 1/2); counterclockwise from the (+, +) quadrant
    assert '<polygon points="316.0000,196.0000 256.0000,196.0000 ' \
           '256.0000,256.0000 316.0000,256.0000"' in svg


def test_bounded_set_has_no_open_edges():
    svg = render_scene([("square", unit_square())])
    assert 'stroke-dasharray="5 4"' not in svg
    assert svg.count("<line") >= 4


def test_halfplane_clip_marks_open_edges():
    halfplane = load_instance("halfplane-and-axis").get_set("halfplane")
    svg = render_scene([("halfplane", halfplane)])
    assert svg.count('stroke-dasharray="5 4"') == 3


def test_separator_spans_the_viewport():
    doc = load_instance("halfplanes")
    svg = render_scene(
        [("lower", doc.get_set("lower")), ("upper", doc.get_set("upper"))],
        separator=((0, 1), 0),
    )
    assert '<line x1="16.0000" y1="256.0000" x2="496.0000" y2="256.0000" ' \
           'stroke="#444444" stroke-width="1.8" stroke-dasharray="7 5"/>' in svg


def test_cone_fan_draws_arrows():
    doc = load_instance("halfplanes")
    upper = doc.get_set("upper")
    origin = doc.get_point("origin")
    directions = normal_cone(upper, origin).sample_directions()
    assert directions == ((0, -1),)
    base = render_scene([("upper", upper)])
    fan = render_scene([("upper", upper)],
                       cone_fans=[(origin, directions, 0)])
    # one arrow is a shaft plus two head strokes
    assert fan.count("<line") == base.count("<line") + 3


def test_offscreen_set_draws_nothing():
    far = ball_inf((10, 10), Fraction(1, 2))
    svg = render_scene([("far", far)])
    assert "<polygon" not in svg
    assert ">far<" in svg


def test_degenerate_shapes():
    seg = load_instance("segment").get_set("segment")
    assert "<polyline" in render_scene([("segment", seg)])
    dot = ConvexSet.from_vrep(2, vertices=[(1, 1)])
    assert "<circle" in render_scene([("dot", dot)])


def test_points_are_labeled():
    svg = render_scene([("square", unit_square())],
                       points=[("corner", (1, 1))])
    assert ">corner</text>" in svg
    assert '<circle cx="316.0000" cy="196.0000" r="3.0000"' in svg


def test_names_with_markup_characters_parse_back():
    svg = render_scene([("a<b&c", unit_square())], points=[("<o>", (1, 1))])
    root = ElementTree.fromstring(svg.encode("utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    assert [t.text for t in root.iter(ns + "title")] == ["a<b&c"]
    assert [t.text for t in root.iter(ns + "text")] == ["a<b&c", "<o>"]


@pytest.mark.parametrize("name", ["a\u0001b", "x\ud800", "\ufffe"],
                         ids=["control", "surrogate", "non-character"])
@pytest.mark.parametrize("kind", ["set", "point"])
def test_names_xml_cannot_hold_are_refused(name, kind):
    # escaping covers &, < and >; a character outside XML 1.0's Char
    # production has no spelling in the file at all
    scene = {"set": dict(sets=[(name, unit_square())]),
             "point": dict(sets=[("square", unit_square())], points=[(name, (1, 1))])}[kind]
    with pytest.raises(InputError, match=f"{kind} name"):
        render_scene(**scene)


def test_names_at_the_edges_of_xml_chars_parse_back():
    names = ["tab\tnew\nline", "\ud7ff\ue000\ufffd", "\U0001f600\U0010ffff"]
    svg = render_scene([(n, unit_square()) for n in names])
    root = ElementTree.fromstring(svg.encode("utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    assert [t.text for t in root.iter(ns + "text")] == names


def test_points_and_fans_outside_the_viewport_are_left_out():
    # (10^400, 0) has no float; it is dropped before any conversion, and
    # the point just inside the edge is drawn
    far = (10 ** 400, 0)
    svg = render_scene([("square", unit_square())],
                       points=[("far", far), ("edge", (4, 0))],
                       cone_fans=[(far, [(1, 0)], 0)])
    ElementTree.fromstring(svg.encode("utf-8"))
    assert ">far<" not in svg and ">edge</text>" in svg
    assert svg == render_scene([("square", unit_square())], points=[("edge", (4, 0))])


def test_rejects_non_planar_sets():
    cube = ball_inf((0, 0, 0), 1)
    with pytest.raises(InputError):
        render_scene([("cube", cube)])


def test_rejects_bad_viewport():
    with pytest.raises(InputError):
        render_scene([("square", unit_square())], half_width=0)
