"""Correctness checks on every row the benchmark gets back.

A batch row must be a verified witness (``status == "ok"``, witness depth
``Δ − 2`` as expected, every step valid), and the run's rows, with the
workload seed normalised away, must hash to the serial inline reference
recorded in ``reference.json``.  A service job's rows must equal the
serial rows of its grid, rebuilt from the per-cell reference rows.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def cell_key(algorithm: str, delta: int, chain: str, seed: int) -> str:
    """The engine's cell key (``repro.engine.grid.Cell.key``)."""
    return f"{algorithm}/d{delta}/{chain}/s{seed}"


def row_problems(row: Mapping) -> List[str]:
    """Why ``row`` is not a verified witness (empty when it is)."""
    problems = []
    delta = row.get("delta")
    if row.get("status") != "ok":
        problems.append(f"status {row.get('status')!r}")
    if not isinstance(delta, int):
        problems.append(f"delta {delta!r}")
    else:
        if row.get("expected_depth") != delta - 2:
            problems.append(f"expected_depth {row.get('expected_depth')!r} != {delta - 2}")
        if row.get("witness_depth") != delta - 2:
            problems.append(f"witness_depth {row.get('witness_depth')!r} != {delta - 2}")
    if row.get("all_valid") is not True:
        problems.append("not all steps valid")
    if row.get("key") != cell_key(row.get("algorithm"), delta, row.get("chain"), row.get("seed")):
        problems.append(f"key {row.get('key')!r} does not name the cell")
    return problems


def normalise(rows: Iterable[Mapping], seeds: Sequence[int]) -> List[dict]:
    """Rows with workload seed ``seeds[i]`` renamed to ``i``, sorted by key."""
    rank = {seed: i for i, seed in enumerate(seeds)}
    out = []
    for row in rows:
        row = dict(row)
        if row.get("seed") in rank:
            row["seed"] = rank[row["seed"]]
            row["key"] = cell_key(row["algorithm"], row["delta"], row["chain"], row["seed"])
        out.append(row)
    return sorted(out, key=lambda r: str(r.get("key")))


def checksum(rows: Iterable[Mapping]) -> str:
    """sha256 of the rows' canonical JSON form."""
    blob = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_batch(rows: Sequence[Mapping], seeds: Sequence[int], cells: int, expected_sha: str) -> Dict:
    """Verify one sweep's rows; returns ``{"failed": n, "problems": [...]}``.

    A cell is failed when its row is missing or not a verified witness.
    A checksum mismatch fails every cell, because which one is wrong is
    then unknown.
    """
    problems = []
    bad = 0
    for row in rows:
        why = row_problems(row)
        if why:
            bad += 1
            problems.append(f"{row.get('key')}: {'; '.join(why)}")
    missing = max(0, cells - len(rows))
    if missing:
        problems.append(f"{missing} of {cells} rows missing")
    got = checksum(normalise(rows, seeds))
    if got != expected_sha:
        problems.append(f"rows checksum {got[:16]} != reference {expected_sha[:16]}")
        bad = cells
    return {"failed": min(cells, bad + missing), "problems": problems}


def expected_rows(grid: Mapping, templates: Mapping[str, Mapping]) -> Optional[List[dict]]:
    """The serial rows of an ``ec`` grid, from per-cell reference rows.

    ``templates`` maps ``"<algorithm>/d<delta>"`` to that cell's reference
    row; the seed and key are filled in.  ``None`` when a cell has no
    template.
    """
    rows = []
    for algorithm in grid["algorithms"]:
        for delta in grid["deltas"]:
            template = templates.get(f"{algorithm}/d{delta}")
            if template is None:
                return None
            for seed in grid["seeds"]:
                row = dict(template, seed=seed)
                row["key"] = cell_key(algorithm, delta, row["chain"], seed)
                rows.append(row)
    return sorted(rows, key=lambda r: r["key"])


def check_job(rows: Sequence[Mapping], grid: Mapping, templates: Mapping[str, Mapping]) -> List[str]:
    """Why a service job's rows differ from the serial rows of its grid."""
    expected = expected_rows(grid, templates)
    if expected is None:
        return [f"no reference rows for grid {grid}"]
    got = sorted((dict(r) for r in rows), key=lambda r: str(r.get("key")))
    if checksum(got) != checksum(expected):
        return [f"rows of grid {grid} differ from the serial reference"]
    return []
