"""SARIF 2.1.0 output for simlint.

SARIF (Static Analysis Results Interchange Format) is the OASIS
standard CI platforms ingest to annotate pull requests with findings.
This module renders a findings list as a single-run SARIF log: one
``tool.driver`` describing the registered rules, one ``result`` per
diagnostic, file URIs relative to the repository root.

Only the required subset of the spec is emitted — enough to validate
against the 2.1.0 schema and round-trip through code-scanning uploads —
because stdlib-only JSON is a hard constraint here.
"""

from __future__ import annotations

import json
from pathlib import PurePosixPath
from typing import Iterable, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import registered_rules

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "render_sarif", "to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_TOOL_NAME = "simlint"
_TOOL_VERSION = "4.0.0"
_TOOL_URI = "https://example.invalid/simlint"  # repo-local tool; no homepage

# Per-rule documentation anchors: docs/static-analysis.md carries one
# ``id="simNNN"`` anchor per rule, so code-scanning UIs can deep-link
# the rationale next to the finding.
_HELP_URI_TEMPLATE = _TOOL_URI + "/docs/static-analysis.md#{anchor}"


def _relative_uri(path: str) -> str:
    """A forward-slash, non-absolute URI for ``physicalLocation``."""
    posix = PurePosixPath(path.replace("\\", "/"))
    text = str(posix)
    return text.lstrip("/")


def _rule_descriptors(codes: Iterable[str]) -> list[dict[str, object]]:
    rules = registered_rules()
    descriptors: list[dict[str, object]] = []
    for code in sorted(set(codes)):
        rule = rules.get(code)
        summary = getattr(rule, "summary", "") if rule is not None else ""
        descriptors.append(
            {
                "id": code,
                "name": code,
                "shortDescription": {"text": summary or code},
                "defaultConfiguration": {"level": "error"},
                "helpUri": _HELP_URI_TEMPLATE.format(anchor=code.lower()),
            }
        )
    return descriptors


def to_sarif(findings: Sequence[Diagnostic]) -> dict[str, object]:
    """Build the SARIF log object for ``findings``."""
    rule_ids = sorted({diag.code for diag in findings})
    rule_index = {code: i for i, code in enumerate(rule_ids)}
    results: list[dict[str, object]] = []
    for diag in findings:
        results.append(
            {
                "ruleId": diag.code,
                "ruleIndex": rule_index[diag.code],
                "level": "error",
                "message": {"text": diag.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": _relative_uri(diag.path),
                                "uriBaseId": "ROOT",
                            },
                            "region": {
                                "startLine": diag.line,
                                # SARIF columns are 1-based; ast's are 0-based.
                                "startColumn": diag.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "version": _TOOL_VERSION,
                        "informationUri": _TOOL_URI,
                        "rules": _rule_descriptors(rule_ids),
                    }
                },
                "originalUriBaseIds": {"ROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }


def render_sarif(findings: Sequence[Diagnostic]) -> str:
    """The SARIF log as pretty-printed JSON text."""
    return json.dumps(to_sarif(findings), indent=2, sort_keys=False) + "\n"
