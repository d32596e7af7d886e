"""SARIF 2.1.0 output: structural schema conformance and content.

The full OASIS JSON schema cannot be fetched in CI (no network), so
the smoke test validates the required structure by hand — every
constraint below is lifted from the sarif-schema-2.1.0 definitions for
the properties we emit.  When ``jsonschema`` happens to be installed
the hand-rolled check is complemented by real draft-4 validation of
the same constraints.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import rule_codes
from repro.lint.sarif import SARIF_SCHEMA_URI, SARIF_VERSION, render_sarif, to_sarif

FIXTURES = Path(__file__).parent / "fixtures"
MINIMAL_CONFIG = Path(__file__).parent / "minimal.toml"
DOCS = Path(__file__).parents[2] / "docs" / "static-analysis.md"

# The subset of the SARIF 2.1.0 schema our output must satisfy,
# expressed as a JSON Schema document (draft-4 style, as the spec's).
_STRUCTURAL_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                }
                            },
                        },
                    },
                },
            },
        },
    },
}


def _sample_findings() -> list[Diagnostic]:
    return [
        Diagnostic(path="src/a.py", line=3, col=4, code="SIM011", message="m1"),
        Diagnostic(path="src/b.py", line=9, col=0, code="SIM013", message="m2"),
        Diagnostic(path="src/a.py", line=7, col=2, code="SIM011", message="m3"),
    ]


def _validate_structurally(log: dict) -> None:
    assert log["$schema"] == SARIF_SCHEMA_URI
    assert log["version"] == SARIF_VERSION == "2.1.0"
    assert isinstance(log["runs"], list) and len(log["runs"]) == 1
    run = log["runs"][0]
    driver = run["tool"]["driver"]
    assert isinstance(driver["name"], str) and driver["name"]
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(set(rule_ids))
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
    for result in run["results"]:
        assert result["ruleId"] in rule_ids
        assert rule_ids[result["ruleIndex"]] == result["ruleId"]
        assert result["level"] in ("none", "note", "warning", "error")
        assert isinstance(result["message"]["text"], str)
        for location in result["locations"]:
            physical = location["physicalLocation"]
            uri = physical["artifactLocation"]["uri"]
            assert not uri.startswith("/") and "\\" not in uri
            region = physical["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1


def test_sarif_log_is_structurally_valid() -> None:
    log = to_sarif(_sample_findings())
    _validate_structurally(log)
    assert len(log["runs"][0]["results"]) == 3


def test_sarif_against_jsonschema_if_available() -> None:
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(to_sarif(_sample_findings()), _STRUCTURAL_SCHEMA)


def test_sarif_empty_findings_is_valid() -> None:
    log = to_sarif([])
    _validate_structurally(log)
    assert log["runs"][0]["results"] == []
    assert log["runs"][0]["tool"]["driver"]["rules"] == []


def test_render_sarif_is_json_round_trippable() -> None:
    text = render_sarif(_sample_findings())
    assert text.endswith("\n")
    assert json.loads(text)["version"] == "2.1.0"


def test_cli_format_sarif(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        [
            str(FIXTURES / "sim006_bad.py"),
            "--select", "SIM006", "--format", "sarif",
            "--config", str(MINIMAL_CONFIG),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    log = json.loads(out)
    _validate_structurally(log)
    assert all(r["ruleId"] == "SIM006" for r in log["runs"][0]["results"])


def test_rule_metadata_comes_from_registry() -> None:
    log = to_sarif(
        [Diagnostic(path="x.py", line=1, col=0, code="SIM001", message="m")]
    )
    (rule,) = log["runs"][0]["tool"]["driver"]["rules"]
    assert rule["id"] == "SIM001"
    assert "rng" in rule["shortDescription"]["text"].lower() or "random" in (
        rule["shortDescription"]["text"].lower()
    )


def test_every_rule_has_its_help_anchor() -> None:
    # helpUri points at docs/static-analysis.md#simNNN; a missing
    # anchor leaves the link in every code-scanning UI dangling.
    text = DOCS.read_text(encoding="utf-8")
    missing = [code for code in rule_codes() if f'id="{code.lower()}"' not in text]
    assert missing == []
