"""Command-line surface for the library.

Every subcommand loads an instance document (packaged fixture name or
path to a JSON file), runs one operation, and prints a report. Reports
are human-readable by default; --json switches to the canonical
machine-readable form. Exit status: 0 when the command ran and every
assertion held, 1 when a verification failed or a documented
precondition was violated, 2 for unusable input.

The argument parser is built on the first call of `main` and shared by
every later call in the process: parsing writes only to a fresh
namespace, never to the parser, so one call cannot leak into the next.
"""
from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import report as rp
from .calculus import (
    inf_convolution_support,
    intersection_rule,
    qualification_report,
    support_value,
)
from .cones import normal_cone
from .errors import InputError, InternalError, PolyhedralError, PreconditionError
from .extremality import (
    approximate_extremal_principle,
    is_extremal_system,
    separate,
    verify_approx_ep,
)
from .instances import load_instance, parse_vector
from .linalg import frac, vneg
from .suite import (
    BOUNDARY_POINT_COUNT,
    DEFAULT_DIMS,
    DEFAULT_SEED_RANGE,
    LP_SWEEP_COUNT,
    run_suite,
)
from .svgplot import DEFAULT_HALF_WIDTH, render_scene


def _frac_arg(text: str) -> Fraction:
    try:
        return frac(text)
    except (InputError, ValueError) as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _seed_range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    return int(lo), int(hi)


def _dims_arg(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a list like 2,3, got {text!r}")
    return dims


def _resolve(table: dict, text: str, what: str):
    """The vector named text in a document's table of points or of
    functionals, what being "point" or "functional", or else text read
    as a vector literal."""
    if text in table:
        return table[text]
    try:
        return parse_vector(text)
    except InputError:
        known = ", ".join(sorted(table)) or "none"
        raise InputError(
            f"{text!r} is neither a named {what} nor a vector literal; "
            f"named {what}s: {known}")


def _set_summary(name: str, s) -> str:
    h = s.hrep()
    kind = "bounded" if s.is_bounded() else "unbounded"
    return (f"{name}: dim {s.dim}, {len(h.ineqs)} inequality rows, "
            f"{len(h.eqs)} equality rows, {kind}")


def _input_lines(args, doc, names) -> list[str]:
    if args.verbose < 1:
        return []
    return [_set_summary(name, doc.get_set(name)) for name in names]


def _load_pair(args):
    """(doc, s1, s2, lines) for a command on two named sets: the loaded
    instance, its sets args.set1 and args.set2, and the input lines that
    -v asks for."""
    doc = load_instance(args.file)
    s1, s2 = doc.get_set(args.set1), doc.get_set(args.set2)
    return doc, s1, s2, _input_lines(args, doc, (args.set1, args.set2))


def cmd_check_extremal(args) -> rp.Report:
    _, s1, s2, lines = _load_pair(args)
    verdict = is_extremal_system(s1, s2, epsilon=args.epsilon)
    lines.append(f"extremal: {'yes' if verdict.extremal else 'no'}")
    if verdict.extremal:
        g, b = verdict.boundary_evidence
        lines.append(f"supporting row of the difference set: "
                     f"{rp.human_vec(g)} . x <= {rp.human_rat(b)}")
        if verdict.perturbation is not None:
            lines.append(f"disjoining translation of size <= "
                         f"{rp.human_rat(verdict.epsilon)}: "
                         f"{rp.human_vec(verdict.perturbation)}")
    else:
        lines.append(f"interior ball radius of the difference at zero: "
                     f"{rp.human_rat(verdict.interior_ball_radius)}")
    return rp.Report("check-extremal", True, rp.extremality_payload(verdict), lines)


def cmd_separate(args) -> rp.Report:
    _, s1, s2, lines = _load_pair(args)
    cert = separate(s1, s2)
    if cert is None:
        lines.append("no separating functional exists; the pair is not extremal")
    else:
        lines.append(f"separating functional: {rp.human_vec(cert.functional)}")
        lines.append(f"sup over {args.set1}: {rp.human_rat(cert.sup1)}")
        lines.append(f"inf over {args.set2}: {rp.human_rat(cert.inf2)}")
    return rp.Report("separate", True, {"certificate": rp.payload(cert)}, lines)


def cmd_ep(args) -> rp.Report:
    doc, s1, s2, lines = _load_pair(args)
    point = _resolve(doc.points, args.point, "point")
    cert = approximate_extremal_principle(s1, s2, point, args.epsilon)
    verified = verify_approx_ep(s1, s2, point, cert)
    lines.append(f"epsilon: {rp.human_rat(cert.epsilon)}")
    lines.append(f"near-point in {args.set1}: {rp.human_vec(cert.x1)}")
    lines.append(f"near-point in {args.set2}: {rp.human_vec(cert.x2)}")
    lines.append(f"opposite unit functionals: {rp.human_vec(cert.xstar1)} "
                 f"and {rp.human_vec(cert.xstar2)}")
    lines.append(f"normal-cone residuals: {rp.human_vec(cert.error1)} "
                 f"and {rp.human_vec(cert.error2)}")
    lines.append(f"independent recheck: {'pass' if verified else 'fail'}")
    payload = {"certificate": rp.payload(cert), "verified": verified}
    return rp.Report("ep", verified, payload, lines)


def _cone_lines(label: str, cone) -> list[str]:
    gens = ", ".join(rp.human_vec(g) for g in cone.generators) or "none"
    lin = ", ".join(rp.human_vec(l) for l in cone.lineality) or "none"
    return [f"{label}: generators {gens}; lineality {lin}"]


def cmd_intersection_rule(args) -> rp.Report:
    doc, s1, s2, lines = _load_pair(args)
    point = _resolve(doc.points, args.point, "point")
    qc = qualification_report(s1, s2, point)
    rule = intersection_rule(s1, s2, point)
    radius = ("" if qc.bounded_extremality_radius is None
              else f" (window radius {rp.human_rat(qc.bounded_extremality_radius)})")
    lines.append(
        "qualification: "
        f"classical interiority {'yes' if qc.classical_interiority else 'no'}, "
        f"difference interiority {'yes' if qc.difference_interiority else 'no'}, "
        f"bounded extremality {'yes' if qc.bounded_extremality else 'no'}{radius}, "
        f"core condition {'yes' if qc.core_condition else 'no'}")
    lines.append("normal cone of the intersection "
                 + ("EQUALS" if rule.equal else "DIFFERS FROM")
                 + " the sum of the normal cones")
    lines.extend(_cone_lines("intersection cone", rule.lhs))
    lines.extend(_cone_lines("sum cone", rule.rhs))
    split = sum(1 for d in rule.decompositions if d.part1 is not None)
    lines.append(f"probes split through both cones: {split} of "
                 f"{len(rule.decompositions)}")
    payload = {"qualification": rp.payload(qc), "rule": rp.payload(rule)}
    ok = rule.equal or not qc.bounded_extremality
    return rp.Report("intersection-rule", ok, payload, lines)


def cmd_support(args) -> rp.Report:
    doc = load_instance(args.file)
    s = doc.get_set(args.set)
    g = _resolve(doc.functionals, args.functional, "functional")
    value = support_value(s, g)
    lines = _input_lines(args, doc, (args.set,))
    if value.finite:
        lines.append(f"support value: {rp.human_rat(value.value)}")
        lines.append(f"attained at: {rp.human_vec(value.maximizer)}")
    else:
        lines.append("support value: +inf")
        lines.append(f"certified unbounded ray: {rp.human_vec(value.ray)}")
    return rp.Report("support", True, rp.support_payload(value), lines)


def cmd_infconv(args) -> rp.Report:
    doc, s1, s2, lines = _load_pair(args)
    g = _resolve(doc.functionals, args.functional, "functional")
    value = inf_convolution_support(s1, s2, g)
    if value.kind == "finite":
        lines.append(f"infimal convolution value: {rp.human_rat(value.value)}")
        lines.append(f"split: {rp.human_vec(value.witness1)} + "
                     f"{rp.human_vec(value.witness2)}")
    else:
        lines.append(f"infimal convolution value: "
                     f"{rp.PLUS_INF if value.kind == 'plus-infinity' else rp.MINUS_INF}")
    return rp.Report("infconv", True, rp.infconv_payload(value), lines)


def cmd_verify_suite(args) -> rp.Report:
    result = run_suite(dims=args.dims, seed_range=args.seed_range,
                       parallel=args.parallel, lp_count=args.lp_count,
                       boundary_count=args.boundary_count)
    lines = [
        f"dims: {','.join(str(d) for d in result.dims)}; "
        f"seeds: {result.seed_range[0]}..{result.seed_range[1]}; "
        f"pairs: {result.pair_count}"
    ]
    for sweep in result.sweeps:
        status = "ok" if sweep.ok else f"{len(sweep.violations)} VIOLATIONS"
        lines.append(f"{sweep.name}: checked={sweep.checked} {status}")
        lines.extend(f"  {message}" for message in sweep.violations[:20])
    return rp.Report("verify-suite", result.ok, result.to_payload(), lines)


def cmd_plot(args) -> rp.Report:
    doc = load_instance(args.file)
    named_sets = [(name, doc.get_set(name)) for name in args.names]
    lines = []
    points = []
    fans = []
    if args.cones_at is not None:
        point = _resolve(doc.points, args.cones_at, "point")
        points.append((args.cones_at, point))
        for index, (name, s) in enumerate(named_sets):
            if not s.contains(point):
                lines.append(f"no cone for {name}: the point lies outside it")
                continue
            cone = normal_cone(s, point)
            fans.append((point, cone.sample_directions(), index))
            lines.append(f"normal cone of {name}: {len(cone.generators)} "
                         f"generators, {len(cone.lineality)} lineality")
    separator = None
    if args.separator is not None:
        if len(named_sets) < 2:
            raise InputError("--separator needs at least two sets")
        g = _resolve(doc.functionals, args.separator, "functional")
        sup1 = support_value(named_sets[0][1], g)
        neg = support_value(named_sets[1][1], vneg(g))
        if not (sup1.finite and neg.finite):
            raise PreconditionError(
                "the functional is unbounded on a plotted set")
        inf2 = -neg.value
        if sup1.value > inf2:
            raise PreconditionError(
                "the functional does not separate the first two sets")
        level = (sup1.value + inf2) / 2
        separator = (g, level)
        lines.append(f"separator drawn at {rp.human_vec(g)} . x = "
                     f"{rp.human_rat(level)}")
    svg = render_scene(named_sets, points=points, cone_fans=fans,
                       separator=separator, half_width=args.viewport)
    try:
        Path(args.out).write_text(svg, encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot write {args.out}: {e.strerror}") from e
    lines.insert(0, f"wrote {args.out} ({len(svg.encode('utf-8'))} bytes)")
    payload = {
        "out": args.out,
        "sets": list(args.names),
        "bytes": len(svg.encode("utf-8")),
    }
    return rp.Report("plot", True, payload, lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call.

    `parse_args` never changes it: it writes only to a fresh namespace,
    no action appends, and every default is immutable.
    """
    # the flags live on the root parser and again on every subcommand so
    # both positions work; SUPPRESS keeps the subcommand from clobbering
    # a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit the machine-readable report")
    common.add_argument("-v", "--verbose", action="count",
                        default=argparse.SUPPRESS,
                        help="add input summaries; twice to echo the payload")
    # the five commands on a pair of sets name them the same way
    pair = argparse.ArgumentParser(add_help=False, parents=[common])
    pair.add_argument("file", help="fixture name or instance path")
    pair.add_argument("set1")
    pair.add_argument("set2")

    parser = argparse.ArgumentParser(
        prog="polyexact",
        description="Exact polyhedral convex calculus: extremality, "
                    "separation, normal cones, support functions.")
    parser.add_argument("--json", action="store_true", default=False,
                        help="emit the machine-readable report")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="add input summaries; twice to echo the payload")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-extremal", parents=[pair],
                       help="decide whether a pair of sets is extremal")
    p.add_argument("--epsilon", type=_frac_arg, default=None,
                   help="also produce a disjoining translation of this size")
    p.set_defaults(handler=cmd_check_extremal)

    p = sub.add_parser("separate", parents=[pair],
                       help="find a separating functional for a pair")
    p.set_defaults(handler=cmd_separate)

    p = sub.add_parser("ep", parents=[pair],
                       help="build the epsilon-scale dual certificate at a "
                            "common point of an extremal pair")
    p.add_argument("point", help="named point or literal like 0,0")
    p.add_argument("epsilon", type=_frac_arg)
    p.set_defaults(handler=cmd_ep)

    p = sub.add_parser("intersection-rule", parents=[pair],
                       help="compare the intersection normal cone with the "
                            "sum of the normal cones")
    p.add_argument("point")
    p.set_defaults(handler=cmd_intersection_rule)

    p = sub.add_parser("support", parents=[common],
                       help="support value of a set at a functional")
    p.add_argument("file")
    p.add_argument("set")
    p.add_argument("functional", help="named functional or literal like 1,1")
    p.set_defaults(handler=cmd_support)

    p = sub.add_parser("infconv", parents=[pair],
                       help="infimal convolution of two support functions")
    p.add_argument("functional")
    p.set_defaults(handler=cmd_infconv)

    p = sub.add_parser("verify-suite", parents=[common],
                       help="run every theorem sweep over a seeded corpus")
    p.add_argument("--seed-range", type=_seed_range_arg,
                   default=DEFAULT_SEED_RANGE, metavar="LO..HI")
    p.add_argument("--dims", type=_dims_arg, default=DEFAULT_DIMS,
                   metavar="D[,D...]")
    p.add_argument("--parallel", type=int, default=None, metavar="N",
                   help="distribute tasks over N worker processes")
    p.add_argument("--lp-count", type=int, default=LP_SWEEP_COUNT,
                   metavar="N", help="random programs in the solver sweep")
    p.add_argument("--boundary-count", type=int, default=BOUNDARY_POINT_COUNT,
                   metavar="N", help="points in the boundary support sweep")
    p.set_defaults(handler=cmd_verify_suite)

    p = sub.add_parser("plot", parents=[common],
                       help="render named planar sets to an SVG file")
    p.add_argument("file")
    p.add_argument("names", nargs="+", help="set names to draw")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--cones-at", default=None, metavar="POINT",
                   help="draw each set's normal cone fan at this point")
    p.add_argument("--separator", default=None, metavar="FUNCTIONAL",
                   help="draw the dashed separating line for this functional")
    p.add_argument("--viewport", type=_frac_arg, default=DEFAULT_HALF_WIDTH,
                   metavar="P/Q", help="half-width of the drawing window")
    p.set_defaults(handler=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except InternalError as e:
        return _fail(args, "internal", e, 1)
    except PreconditionError as e:
        return _fail(args, "precondition", e, 1)
    except PolyhedralError as e:
        return _fail(args, "input", e, 2)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render() + "\n")
        if args.verbose >= 2:
            sys.stdout.write(report.to_json())
    return 0 if report.ok else 1


def _fail(args, kind: str, error: Exception, code: int) -> int:
    if args.json:
        failure = rp.Report(args.command, False,
                            {"error": {"kind": kind, "message": str(error)}},
                            [str(error)])
        sys.stdout.write(failure.to_json())
    sys.stderr.write(f"error: {error}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
