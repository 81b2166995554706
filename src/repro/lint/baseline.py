"""Findings baseline with ratchet semantics.

A committed baseline file records the findings a repository has *accepted*;
``repro lint --baseline`` then fails only on findings **not** in the
baseline — new debt is blocked, old debt does not break CI, and fixing old
findings is reported so the baseline can be re-tightened
(``--update-baseline`` rewrites it to the current findings).  The ratchet
only ever turns one way: CI fails on new findings, and an updated baseline
that *grows* is visible in review as a diff of the committed file.

Findings are keyed by ``(path, rule, message)`` — deliberately *not* by
line — so pure line moves (a refactor shifting an accepted finding) do not
count as new findings.  Identical keys are multiset-counted: introducing a
*second* instance of an accepted finding is still new debt.

Paths are normalised to repo-relative POSIX form when possible so the
baseline file is stable across checkouts and operating systems.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path, PurePath
from typing import List, Sequence, Tuple

from .engine import Finding

__all__ = [
    "BASELINE_VERSION",
    "fingerprint",
    "load_baseline",
    "write_baseline",
    "ratchet",
]

BASELINE_VERSION = 1


def _normalize_path(path: str) -> str:
    """Repo-relative POSIX path when under the cwd, else POSIX as given."""
    try:
        resolved = Path(path).resolve()
        return resolved.relative_to(Path.cwd().resolve()).as_posix()
    except (ValueError, OSError):
        return PurePath(path).as_posix()


def fingerprint(finding: Finding) -> Tuple[str, str, str]:
    """The line-move-tolerant identity of a finding."""
    return (_normalize_path(finding.path), finding.rule, finding.message)


def _counts(findings: Sequence[Finding]) -> Counter:
    return Counter(fingerprint(f) for f in findings)


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write the current findings as the accepted baseline."""
    entries = [
        {"path": p, "rule": rule, "message": message, "count": count}
        for (p, rule, message), count in sorted(_counts(findings).items())
    ]
    payload = {
        "version": BASELINE_VERSION,
        "tool": "repro-lint",
        "findings": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_baseline(path: Path) -> Counter:
    """Load a baseline file into a fingerprint multiset.

    Raises ``ValueError`` on a malformed file or unsupported version —
    a silently-empty baseline would fail CI on every accepted finding.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed baseline file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline file {path}: expected version {BASELINE_VERSION}"
        )
    counts: Counter = Counter()
    for entry in payload.get("findings", []):
        try:
            key = (str(entry["path"]), str(entry["rule"]), str(entry["message"]))
            counts[key] += int(entry.get("count", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed baseline entry in {path}: {entry!r}") from exc
    return counts


def ratchet(
    findings: Sequence[Finding], baseline: Counter
) -> Tuple[List[Finding], int]:
    """Split current findings against the baseline.

    Returns ``(new_findings, fixed_count)``: the findings exceeding their
    baselined count (sorted), and how many baselined findings no longer
    occur (the slack an ``--update-baseline`` run would reclaim).
    """
    current = _counts(findings)
    budget = Counter(baseline)
    new: List[Finding] = []
    for finding in sorted(findings):
        key = fingerprint(finding)
        if budget[key] > 0:
            budget[key] -= 1
        else:
            new.append(finding)
    fixed = sum((Counter(baseline) - current).values())
    return new, fixed
