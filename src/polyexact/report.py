"""Report objects: canonical machine-readable JSON plus a text view.

The machine form is deterministic byte for byte: keys are sorted, and
no timing or host information is ever included. Every result enters it
through one encoder, payload: a rational becomes its reduced "p/q"
string, a tuple becomes a list, a result dataclass becomes an object of
the fields that take part in its equality (compare=True), and any other
value, None included, stays as it is. Three results wrap the encoder,
because their JSON is not just their fields: an extremality verdict
writes its evidence row as {"normal", "rhs"}, and a support value and an
infimal convolution value write the markers "+inf" and "-inf". The
human renderer may append decimal approximations in parentheses; those
never appear in the machine form.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .calculus import InfConvolutionValue, SupportValue
    from .extremality import ExtremalityVerdict

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


# -- the encoder -----------------------------------------------------------------

@functools.cache
def _compared_fields(kind: type) -> tuple[str, ...] | None:
    """The names of a dataclass type's compare=True fields, or None for
    any other type; looked up once per type."""
    if not is_dataclass(kind):
        return None
    return tuple(f.name for f in fields(kind) if f.compare)


def payload(value):
    """value as plain data for canonical JSON (see the module docstring)."""
    kind = type(value)
    if kind is Fraction:
        return str(value)
    if kind is tuple:
        return [payload(v) for v in value]
    names = _compared_fields(kind)
    if names is None:
        return value
    return {name: payload(getattr(value, name)) for name in names}


# the benchmark workloads read the separation payload by this name
separation_payload = payload


def extremality_payload(v: ExtremalityVerdict) -> dict:
    row = v.boundary_evidence
    evidence = None if row is None else {"normal": payload(row[0]), "rhs": str(row[1])}
    return {**payload(v), "boundary_evidence": evidence}


def support_payload(sv: SupportValue) -> dict:
    return {**payload(sv), "value": PLUS_INF if sv.value is None else str(sv.value)}


def infconv_payload(v: InfConvolutionValue) -> dict:
    out = payload(v)
    if v.kind != "finite":
        out["value"] = PLUS_INF if v.kind == "plus-infinity" else MINUS_INF
    return out


# -- the text view ---------------------------------------------------------------

def human_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x)
    try:
        return f"{x} (~{float(x):.6g})"
    except OverflowError:  # beyond float range: no approximation
        return str(x)


def human_vec(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"
