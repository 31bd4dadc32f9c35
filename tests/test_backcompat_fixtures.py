"""Pre-refactor artifacts must survive the conflict-graph generalization.

``tests/fixtures/`` holds instance JSON and batch-spec files captured
before ``repro.graphs`` grew beyond bipartite, together with the
behaviour recorded at capture time (``prerefactor_expected.json`` /
``prerefactor_spec_expected.json``).  These tests pin three guarantees:

* every old payload still **loads** (no schema break),
* bipartite payloads still **serialise byte-identically** (content-hash
  caches keyed on serialised bytes keep hitting),
* auto dispatch still makes the **same choice with the same makespan**.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine import auto_choice, solve
from repro.graphs.bipartite import BipartiteGraph
from repro.io import instance_to_dict, load_instance, load_json
from repro.runtime import load_spec_file

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = json.loads((FIXTURES / "prerefactor_expected.json").read_text())
SPEC_EXPECTED = json.loads(
    (FIXTURES / "prerefactor_spec_expected.json").read_text()
)

INSTANCE_FILES = (
    "prerefactor_uniform_bipartite.json",
    "prerefactor_unrelated_bipartite.json",
    "prerefactor_unrelated_forbidden.json",
)


def _payload_sha256(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestInstancePayloads:
    @pytest.mark.parametrize("filename", INSTANCE_FILES)
    def test_loads_and_serializes_byte_identically(self, filename):
        raw = load_json(FIXTURES / filename)
        instance = load_instance(FIXTURES / filename)
        assert isinstance(instance.graph, BipartiteGraph)
        roundtrip = instance_to_dict(instance)
        assert roundtrip == raw
        # byte identity, not just dict equality: key order and formatting
        # are part of the cache contract
        assert json.dumps(roundtrip, indent=2) == json.dumps(raw, indent=2)
        assert roundtrip["format"] == "repro/v1"

    def test_uniform_solves_identically(self):
        instance = load_instance(FIXTURES / "prerefactor_uniform_bipartite.json")
        expected = EXPECTED["uniform"]
        assert auto_choice(instance) == expected["auto_choice"]
        schedule = solve(instance)
        assert (
            f"{schedule.makespan.numerator}/{schedule.makespan.denominator}"
            == expected["makespan"]
        )
        assert schedule.is_feasible()

    def test_unrelated_solves_identically(self):
        instance = load_instance(
            FIXTURES / "prerefactor_unrelated_bipartite.json"
        )
        expected = EXPECTED["unrelated"]
        assert auto_choice(instance) == expected["auto_choice"]
        schedule = solve(instance)
        assert (
            f"{schedule.makespan.numerator}/{schedule.makespan.denominator}"
            == expected["makespan"]
        )
        assert schedule.is_feasible()

    def test_forbidden_pairs_still_load(self):
        instance = load_instance(
            FIXTURES / "prerefactor_unrelated_forbidden.json"
        )
        forbidden = [
            (i, j)
            for i in range(instance.m)
            for j in range(instance.n)
            if not instance.allows(i, j)
        ]
        assert forbidden  # the fixture's point is the None entries


class TestSpecExpansion:
    @pytest.mark.parametrize(
        "spec_name", sorted(SPEC_EXPECTED), ids=lambda p: Path(p).stem
    )
    def test_expansion_matches_capture(self, spec_name):
        tasks = load_spec_file(FIXTURES / spec_name)
        got = [
            {
                "name": t.name,
                "algorithm": t.algorithm,
                "certify": t.certify,
                "payload_sha256": _payload_sha256(t.payload),
            }
            for t in tasks
        ]
        assert got == SPEC_EXPECTED[spec_name]
