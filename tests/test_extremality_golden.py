"""Golden pin of the extremality verdicts, separations, perturbations and
approximate certificates over a fixed corpus of pairs.

Run this file as a script to rewrite tests/data/extremality_golden.json
from the current code; the test requires the code to reproduce it byte
for byte.
"""
import json
from fractions import Fraction as F
from pathlib import Path

from polyexact.extremality import (
    approximate_extremal_principle,
    find_perturbation,
    is_extremal_system,
    separate,
)
from polyexact.instances import load_instance
from polyexact.oracle import random_pair_with_common_point
from polyexact.report import extremality_payload, payload
from polyexact.suite import FIXTURE_PAIRS

GOLDEN = Path(__file__).parent / "data" / "extremality_golden.json"


def corpus():
    for dim, top in ((2, 40), (3, 40), (4, 6)):
        for seed in range(1, top + 1):
            s1, s2, anchor = random_pair_with_common_point(seed, dim)
            yield f"pair dim={dim} seed={seed}", s1, s2, anchor
    for name in sorted(FIXTURE_PAIRS):
        first, second, point = FIXTURE_PAIRS[name]
        doc = load_instance(name)
        anchor = doc.get_point(point) if point is not None else None
        yield f"fixture {name}", doc.get_set(first), doc.get_set(second), anchor


def golden_entries() -> list:
    entries = []
    for label, s1, s2, anchor in corpus():
        verdict = is_extremal_system(s1, s2, epsilon=F(1, 2))
        cert = separate(s1, s2)
        entry = {
            "pair": label,
            "verdict": extremality_payload(verdict),
            "separation": payload(cert),
            "perturbation": None,
            "approx_ep": None,
        }
        if verdict.extremal:
            entry["perturbation"] = payload(find_perturbation(s1, s2, F(1, 3)))
            if anchor is not None:
                entry["approx_ep"] = payload(
                    approximate_extremal_principle(s1, s2, anchor, F(1, 10)))
        entries.append(entry)
    return entries


def render(entries) -> str:
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


def test_extremality_matches_golden():
    assert render(golden_entries()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(golden_entries()), encoding="utf-8")
