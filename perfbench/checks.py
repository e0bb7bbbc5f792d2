"""Output checks: report digests and report invariants.

Every cell report is serialized with ``dump_cell_report`` and digested
with SHA-256.  For the seed whose digests are stored in
``digests.json`` the digests must match exactly.  For any other seed
the reports must satisfy the invariants instead: every planned flow is
reported exactly once in its group, and no QoE field is NaN, infinite
or negative.  Every pass of a run must also reproduce the digests of
the run's first pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(reports: Mapping[str, str]) -> dict[str, str]:
    return {label: digest(text) for label, text in reports.items()}


def load_stored(workload: str,
                path: Path = DIGESTS_PATH) -> dict[str, Any] | None:
    """``{"seed": n, "reports": {label: digest}}`` or None."""
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload)


def store(workload: str, seed: int, found: Mapping[str, str],
          path: Path = DIGESTS_PATH) -> None:
    table = json.loads(path.read_text()) if path.exists() else {}
    table[workload] = {"seed": seed, "reports": dict(sorted(found.items()))}
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def mismatched(found: Mapping[str, str],
               expected: Mapping[str, str]) -> set[str]:
    """Labels missing from, added to or changed in ``found``."""
    return {label for label in found.keys() | expected.keys()
            if found.get(label) != expected.get(label)}


def _bad_numbers(value: Any) -> bool:
    """True when a number in the JSON tree is NaN, infinite or < 0."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return False
    if isinstance(value, (int, float)):
        return not math.isfinite(value) or value < 0
    if isinstance(value, dict):
        return any(_bad_numbers(item) for item in value.values())
    if isinstance(value, list):
        return any(_bad_numbers(item) for item in value)
    return True


def invariant_failures(
        reports: Mapping[str, str],
        groups: Iterable[tuple[list[str], list[int]]]) -> set[str]:
    """Labels whose report breaks an invariant or is missing.

    A report fails when it holds a bad number, a flow not planned for
    its group or a flow reported twice in the group.  When a planned
    flow is reported nowhere, every report of the group fails.
    """
    failed: set[str] = set()
    for labels, planned in groups:
        seen: Counter[int] = Counter()
        owner: dict[int, list[str]] = {}
        for label in labels:
            text = reports.get(label)
            if text is None:
                failed.add(label)
                continue
            data = json.loads(text)
            if _bad_numbers(data):
                failed.add(label)
            flows = [client["flow_id"] for client in data["clients"]]
            flows += [int(key) for key in data["data_throughput_bps"]]
            for flow in flows:
                seen[flow] += 1
                owner.setdefault(flow, []).append(label)
        wanted = set(planned)
        for flow, times in seen.items():
            if flow not in wanted or times != 1:
                failed.update(owner[flow])
        if wanted - set(seen):
            failed.update(labels)
    return failed
