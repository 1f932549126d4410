"""Report objects: canonical machine-readable JSON plus a text view.

The machine form is deterministic byte for byte: keys are sorted, all
rationals are reduced "p/q" strings, infinities are the markers "+inf"
and "-inf", and no timing or host information is ever included. The
human renderer may append decimal approximations in parentheses; those
never appear in the machine form.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import (
    InfConvolutionValue,
    IntersectionRuleResult,
    QcReport,
    SupportValue,
)
from .cones import PolyhedralCone
from .extremality import ApproxEpCertificate, ExtremalityVerdict, SeparationCertificate

PLUS_INF = "+inf"
MINUS_INF = "-inf"


@dataclass
class Report:
    """One command outcome. ok gates the process exit code; body is
    plain data ready for canonical JSON; lines hold the text view."""

    command: str
    ok: bool
    body: dict
    lines: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {"command": self.command, "ok": self.ok, "result": self.body}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        out = list(self.lines)
        out.append("ok" if self.ok else "FAILED")
        return "\n".join(out) + "\n"


# -- rational and vector formatting --------------------------------------------

def vec_payload(v):
    return None if v is None else [str(c) for c in v]


def row_payload(row):
    if row is None:
        return None
    a, b = row
    return {"normal": vec_payload(a), "rhs": str(b)}


def human_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x)
    return f"{x} (~{float(x):.6g})"


def human_vec(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


# -- domain payloads -------------------------------------------------------------

def cone_payload(c: PolyhedralCone) -> dict:
    return {
        "dim": c.dim,
        "generators": [vec_payload(g) for g in c.generators],
        "lineality": [vec_payload(g) for g in c.lineality],
    }


def extremality_payload(v: ExtremalityVerdict) -> dict:
    return {
        "extremal": v.extremal,
        "boundary_evidence": row_payload(v.boundary_evidence),
        "interior_ball_radius": None if v.interior_ball_radius is None else str(v.interior_ball_radius),
        "epsilon": None if v.epsilon is None else str(v.epsilon),
        "perturbation": vec_payload(v.perturbation),
    }


def separation_payload(c: SeparationCertificate) -> dict:
    return {
        "functional": vec_payload(c.functional),
        "sup1": str(c.sup1),
        "inf2": str(c.inf2),
    }


def approx_ep_payload(c: ApproxEpCertificate) -> dict:
    return {
        "epsilon": str(c.epsilon),
        "x1": vec_payload(c.x1),
        "x2": vec_payload(c.x2),
        "xstar1": vec_payload(c.xstar1),
        "xstar2": vec_payload(c.xstar2),
        "normal1": vec_payload(c.normal1),
        "error1": vec_payload(c.error1),
        "normal2": vec_payload(c.normal2),
        "error2": vec_payload(c.error2),
    }


def qc_payload(r: QcReport) -> dict:
    return {
        "classical_interiority": r.classical_interiority,
        "difference_interiority": r.difference_interiority,
        "bounded_extremality": r.bounded_extremality,
        "bounded_extremality_radius": (
            None if r.bounded_extremality_radius is None else str(r.bounded_extremality_radius)
        ),
        "core_condition": r.core_condition,
    }


def rule_payload(r: IntersectionRuleResult) -> dict:
    return {
        "equal": r.equal,
        "lhs": cone_payload(r.lhs),
        "rhs": cone_payload(r.rhs),
        "decompositions": [
            {
                "probe": vec_payload(d.probe),
                "in_lhs": d.in_lhs,
                "part1": vec_payload(d.part1),
                "part2": vec_payload(d.part2),
            }
            for d in r.decompositions
        ],
    }


def support_payload(sv: SupportValue) -> dict:
    return {
        "value": PLUS_INF if sv.value is None else str(sv.value),
        "maximizer": vec_payload(sv.maximizer),
        "ray": vec_payload(sv.ray),
    }


def infconv_payload(v: InfConvolutionValue) -> dict:
    if v.kind == "finite":
        value = str(v.value)
    else:
        value = PLUS_INF if v.kind == "plus-infinity" else MINUS_INF
    return {
        "kind": v.kind,
        "value": value,
        "witness1": vec_payload(v.witness1),
        "witness2": vec_payload(v.witness2),
    }
