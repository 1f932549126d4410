"""The hand-written payload functions that report.payload replaced, kept
verbatim as an independent check of the --json encoding.

Each function wrote one result type field by field: a rational as its
reduced "p/q" string, a tuple as a list, None as null. suite_payload is
the former body of SuiteResult.to_payload, with self renamed result.
tests/test_report.py holds the encoder and its three wrappers to these,
both as Python objects and as canonical JSON bytes.
"""
PLUS_INF = "+inf"
MINUS_INF = "-inf"


def vec_payload(v):
    return None if v is None else [str(c) for c in v]


def row_payload(row):
    if row is None:
        return None
    a, b = row
    return {"normal": vec_payload(a), "rhs": str(b)}


def cone_payload(c) -> dict:
    return {
        "dim": c.dim,
        "generators": [vec_payload(g) for g in c.generators],
        "lineality": [vec_payload(g) for g in c.lineality],
    }


def extremality_payload(v) -> dict:
    return {
        "extremal": v.extremal,
        "boundary_evidence": row_payload(v.boundary_evidence),
        "interior_ball_radius": None if v.interior_ball_radius is None else str(v.interior_ball_radius),
        "epsilon": None if v.epsilon is None else str(v.epsilon),
        "perturbation": vec_payload(v.perturbation),
    }


def separation_payload(c) -> dict:
    return {
        "functional": vec_payload(c.functional),
        "sup1": str(c.sup1),
        "inf2": str(c.inf2),
    }


def approx_ep_payload(c) -> dict:
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


def qc_payload(r) -> dict:
    return {
        "classical_interiority": r.classical_interiority,
        "difference_interiority": r.difference_interiority,
        "bounded_extremality": r.bounded_extremality,
        "bounded_extremality_radius": (
            None if r.bounded_extremality_radius is None else str(r.bounded_extremality_radius)
        ),
        "core_condition": r.core_condition,
    }


def rule_payload(r) -> dict:
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


def support_payload(sv) -> dict:
    return {
        "value": PLUS_INF if sv.value is None else str(sv.value),
        "maximizer": vec_payload(sv.maximizer),
        "ray": vec_payload(sv.ray),
    }


def infconv_payload(v) -> dict:
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


def suite_payload(result) -> dict:
    """JSON-ready description, stable across identical runs."""
    return {
        "dims": list(result.dims),
        "seed_range": list(result.seed_range),
        "pair_count": result.pair_count,
        "ok": result.ok,
        "sweeps": [
            {
                "name": s.name,
                "checked": s.checked,
                "ok": s.ok,
                "violations": list(s.violations),
                "details": dict(sorted(s.details.items())),
            }
            for s in result.sweeps
        ],
    }
