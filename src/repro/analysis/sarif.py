"""SARIF 2.1.0 emission, so findings surface as GitHub PR annotations.

One ``run`` per tool; results carry the rule id, message, and physical
location.  A result may be marked with an ``external`` suppression, which
GitHub renders as resolved; the mypy ratchet marks its baselined errors so.

The same document shape is reused by ``tools/mypy_ratchet.py`` for mypy
errors (ruleIds ``mypy/<code>``), so CI uploads both linters through one
code-scanning channel.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from .findings import Finding

__all__ = ["findings_to_sarif", "sarif_document", "sarif_result"]

_SARIF_VERSION = "2.1.0"
_SCHEMA = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"


def sarif_result(
    rule_id: str,
    message: str,
    path: str,
    line: int,
    suppressed: bool = False,
) -> Dict:
    """One SARIF result record (shared with the mypy ratchet)."""
    result: Dict = {
        "ruleId": rule_id,
        "level": "error",
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": path.replace("\\", "/")},
                    "region": {"startLine": max(1, int(line))},
                }
            }
        ],
    }
    if suppressed:
        result["suppressions"] = [{"kind": "external"}]
    return result


def sarif_document(
    tool_name: str,
    results: Sequence[Dict],
    rules: Optional[Sequence[Dict]] = None,
    information_uri: str = "",
) -> Dict:
    """A single-run SARIF document wrapping prepared results."""
    driver: Dict = {"name": tool_name, "version": "1.0.0"}
    if information_uri:
        driver["informationUri"] = information_uri
    if rules:
        driver["rules"] = list(rules)
    return {
        "$schema": _SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{"tool": {"driver": driver}, "results": list(results)}],
    }


def findings_to_sarif(
    findings: Sequence[Finding],
    rule_catalogue: Optional[Sequence] = None,
) -> str:
    """Render reprolint findings as SARIF."""
    rules: List[Dict] = []
    for rule in rule_catalogue or ():
        rules.append(
            {
                "id": rule.id,
                "name": rule.name,
                "shortDescription": {"text": rule.description},
            }
        )
    results = [sarif_result(f.rule, f.message, f.path, f.line) for f in findings]
    document = sarif_document("reprolint", results, rules=rules)
    return json.dumps(document, indent=2) + "\n"
