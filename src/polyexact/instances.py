"""Textual instance documents: named sets, points, and functionals.

A document is JSON with up to three top-level objects:

    {
      "sets": {
        "square": {"kind": "hrep", "dim": 2,
                   "ineqs": [{"normal": ["1", "0"], "rhs": "1"}, ...],
                   "eqs": []},
        "spike": {"kind": "vrep", "dim": 2,
                  "vertices": [["0", "0"]], "rays": [["1", "2"]]}
      },
      "points": {"origin": ["0", "0"]},
      "functionals": {"diag": ["1", "1"]}
    }

Rationals are written as strings "p/q" or "p" in ASCII digits (plain
JSON integers are also accepted); decimal and exponent forms are
rejected, as strings or JSON numbers, so no rounding can sneak in and
no short literal expands to a huge integer (linalg.frac).
Serialization is canonical: sorted keys, two-space indent, every
rational rendered by its reduced string form. Parsing a canonical
document and serializing it again reproduces the bytes exactly.

Documents are capped at dimension 8, 64 rows or generators per set, and
1000 characters per rational literal, string or JSON integer alike;
larger inputs raise CapacityError before any conversion work starts.
JSON integers meet the literal cap before int() runs, and one that
int() still refuses, past the interpreter's digit limit, is a
FormatError, as is nesting deeper than the JSON decoder can recurse.
Documents are read as UTF-8 whatever the locale, and bytes that are not
UTF-8 are a FormatError too.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import CapacityError, FormatError, InputError
from .linalg import Vec, frac
from .sets import ConvexSet

MAX_DOC_DIM = 8
MAX_DOC_ROWS = 64
MAX_LITERAL_CHARS = 1000

FIXTURE_ENV = "POLYEXACT_FIXTURES"


@dataclass
class InstanceDocument:
    """Parsed instance file. kinds remembers the representation each set
    was written in, so serialization echoes the same representation."""

    sets: dict[str, ConvexSet]
    kinds: dict[str, str]
    points: dict[str, Vec]
    functionals: dict[str, Vec]

    def get_set(self, name: str) -> ConvexSet:
        return _named(self.sets, name, "set")

    def get_point(self, name: str) -> Vec:
        return _named(self.points, name, "point")

    def get_functional(self, name: str) -> Vec:
        return _named(self.functionals, name, "functional")


def _named(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        have = ", ".join(sorted(table)) or "none"
        raise InputError(f"unknown {what} {name!r}; available: {have}") from None


def _check_literal(text: str, where: str) -> None:
    if len(text) > MAX_LITERAL_CHARS:
        raise CapacityError(
            f"{where}: a literal of {len(text)} characters exceeds the cap of {MAX_LITERAL_CHARS}")


def _json_int(text: str) -> int:
    """parse_int hook of json.loads, so the cap comes before int()."""
    _check_literal(text, "integer")
    try:
        return int(text)
    except ValueError as e:
        raise FormatError(f"integer: {e}") from e


def _rational(value, where: str):
    if isinstance(value, float):
        raise FormatError(f'{where}: decimal numbers are not exact, write "p/q"')
    if isinstance(value, str):
        _check_literal(value, where)
    try:
        return frac(value)
    except InputError as e:
        raise FormatError(f"{where}: {e}") from e


def _vector(value, where: str, dim: int | None = None) -> Vec:
    if not isinstance(value, list) or not value:
        raise FormatError(f"{where}: expected a nonempty array of rationals")
    if dim is not None and len(value) != dim:
        raise FormatError(f"{where}: expected {dim} entries, got {len(value)}")
    if len(value) > MAX_DOC_DIM:
        raise CapacityError(f"{where}: more than {MAX_DOC_DIM} entries")
    return tuple(_rational(x, where) for x in value)


def _check_table(raw, where: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise FormatError(f"{where}: expected an object of named entries")
    return raw


def _parse_set(name: str, payload) -> tuple[ConvexSet, str]:
    where = f"set {name!r}"
    if not isinstance(payload, dict):
        raise FormatError(f"{where}: expected an object")
    kind = payload.get("kind")
    if kind not in ("hrep", "vrep"):
        raise FormatError(f'{where}: kind must be "hrep" or "vrep"')
    dim = payload.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError(f"{where}: dim must be a positive integer")
    if dim > MAX_DOC_DIM:
        raise CapacityError(f"{where}: dimension {dim} exceeds the cap of {MAX_DOC_DIM}")
    allowed = {"kind", "dim", "ineqs", "eqs"} if kind == "hrep" else {"kind", "dim", "vertices", "rays"}
    unknown = set(payload) - allowed
    if unknown:
        raise FormatError(f"{where}: unknown keys {', '.join(sorted(unknown))}")
    first, second = ("ineqs", "eqs") if kind == "hrep" else ("vertices", "rays")
    if _length(payload.get(first)) + _length(payload.get(second)) > MAX_DOC_ROWS:
        what = "rows" if kind == "hrep" else "generators"
        raise CapacityError(f"{where}: more than {MAX_DOC_ROWS} {what}")
    try:
        if kind == "hrep":
            ineqs = _parse_rows(payload.get("ineqs"), dim, f"{where} ineqs")
            eqs = _parse_rows(payload.get("eqs"), dim, f"{where} eqs")
            return ConvexSet.from_hrep(dim, ineqs=ineqs, eqs=eqs), kind
        vertices = _parse_vectors(payload.get("vertices"), dim, f"{where} vertices")
        rays = _parse_vectors(payload.get("rays"), dim, f"{where} rays")
        return ConvexSet.from_vrep(dim, vertices=vertices, rays=rays), kind
    except FormatError:
        raise
    except InputError as e:
        raise FormatError(f"{where}: {e}") from e


def _length(raw) -> int:
    """Entry count of a raw row or generator array; other shapes are
    rejected when parsed."""
    return len(raw) if isinstance(raw, list) else 0


def _parse_rows(raw, dim: int, where: str) -> list:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise FormatError(f"{where}: expected an array of rows")
    rows = []
    for i, row in enumerate(raw):
        spot = f"{where}[{i}]"
        if not isinstance(row, dict) or set(row) != {"normal", "rhs"}:
            raise FormatError(f'{spot}: expected {{"normal": [...], "rhs": "p/q"}}')
        rows.append((_vector(row["normal"], spot, dim), _rational(row["rhs"], spot)))
    return rows


def _parse_vectors(raw, dim: int, where: str) -> list[Vec]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise FormatError(f"{where}: expected an array of vectors")
    return [_vector(v, f"{where}[{i}]", dim) for i, v in enumerate(raw)]


def parse_document(text: str) -> InstanceDocument:
    try:
        raw = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as e:
        raise FormatError(e.msg, line=e.lineno) from e
    except RecursionError as e:
        raise FormatError("arrays or objects nested too deeply") from e
    if not isinstance(raw, dict):
        raise FormatError("top level must be an object")
    unknown = set(raw) - {"sets", "points", "functionals"}
    if unknown:
        raise FormatError(f"unknown top-level keys: {', '.join(sorted(unknown))}")
    sets: dict[str, ConvexSet] = {}
    kinds: dict[str, str] = {}
    for name, payload in _check_table(raw.get("sets"), "sets").items():
        sets[name], kinds[name] = _parse_set(name, payload)
    points = {
        name: _vector(value, f"point {name!r}")
        for name, value in _check_table(raw.get("points"), "points").items()
    }
    functionals = {
        name: _vector(value, f"functional {name!r}")
        for name, value in _check_table(raw.get("functionals"), "functionals").items()
    }
    return InstanceDocument(sets, kinds, points, functionals)


def _strings(v) -> list[str]:
    return [str(x) for x in v]


def _set_payload(s: ConvexSet, kind: str) -> dict:
    if kind == "hrep":
        h = s.hrep()
        return {
            "kind": "hrep",
            "dim": h.dim,
            "ineqs": [{"normal": _strings(a), "rhs": str(b)} for a, b in h.ineqs],
            "eqs": [{"normal": _strings(a), "rhs": str(b)} for a, b in h.eqs],
        }
    v = s.vrep()
    return {
        "kind": "vrep",
        "dim": v.dim,
        "vertices": [_strings(p) for p in v.vertices],
        "rays": [_strings(r) for r in v.rays],
    }


def serialize_document(doc: InstanceDocument) -> str:
    payload = {
        "sets": {name: _set_payload(s, doc.kinds[name]) for name, s in doc.sets.items()},
        "points": {name: _strings(p) for name, p in doc.points.items()},
        "functionals": {name: _strings(g) for name, g in doc.functionals.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_vector(text: str) -> Vec:
    """Inline vector literal for command lines: "1/2,-1" or "(0, 1)"."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")]
    if not body or not all(parts):
        raise InputError(f"bad vector literal {text!r}")
    return tuple(frac(p) for p in parts)


# -- fixture resolution --------------------------------------------------------

def _fixture_root():
    override = os.environ.get(FIXTURE_ENV)
    if override:
        return Path(override)
    return resources.files("polyexact").joinpath("fixtures")


def fixture_names() -> tuple[str, ...]:
    root = _fixture_root()
    try:
        entries = list(root.iterdir())
    except (FileNotFoundError, NotADirectoryError):
        return ()
    return tuple(sorted(e.name[:-5] for e in entries if e.name.endswith(".json")))


def load_instance(ref: str) -> InstanceDocument:
    """Load a document from a path, or by fixture name when no such file
    exists and the name matches a bundled fixture."""
    looks_like_path = ref.endswith(".json") or os.sep in ref
    path = Path(ref)
    if looks_like_path or path.exists():
        return _read_document(path, ref)
    candidate = _fixture_root().joinpath(f"{ref}.json")
    if candidate.is_file():
        return _read_document(candidate, ref)
    have = ", ".join(fixture_names()) or "none"
    raise InputError(f"no instance file or fixture {ref!r}; fixtures: {have}")


def _read_document(source, ref: str) -> InstanceDocument:
    """Parse the document at source, a path or a packaged fixture, read
    as UTF-8 whatever the locale; bytes that are not UTF-8 are a
    FormatError."""
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read instance file {ref!r}: {e}") from e
    except UnicodeDecodeError as e:
        raise FormatError(f"not UTF-8 text: {e.reason} at byte {e.start}") from e
    return parse_document(text)
