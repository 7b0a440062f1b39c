"""Output gate: canonical digests of simulated results, pinned per input.

A digest covers only simulated results.  Host-time fields
(``elapsed_s``, ``window_wall_s``) are removed before hashing, so the
same input gives the same digest under every kernel, worker count and
machine.  The pinned digests in ``digests.json`` were produced with the
golden timing model (``REPRO_FAST=off``) by ``run.py --pin``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, Optional

#: Keys whose values are host measurements, never simulated results
#: (the CLI's documents carry them; the api's do not today).
HOST_TIME_KEYS = frozenset({"elapsed_s", "window_wall_s"})

PINS_PATH = pathlib.Path(__file__).with_name("digests.json")


def strip_host_time(document: Any) -> Any:
    if isinstance(document, dict):
        return {key: strip_host_time(value)
                for key, value in document.items()
                if key not in HOST_TIME_KEYS}
    if isinstance(document, (list, tuple)):
        return [strip_host_time(value) for value in document]
    return document


def digest(document: Any) -> str:
    """sha256 of the canonical JSON of ``document`` minus host time."""
    canonical = json.dumps(strip_host_time(document), sort_keys=True,
                           separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class DigestGate:
    """Compares produced digests with the pinned ones.

    ``expected`` is the pinned digest (``None`` when nothing is pinned
    for this input, which counts as a failure: an unpinned input cannot
    be checked).
    """

    def __init__(self) -> None:
        self.mismatches: list = []

    def check(self, label: str, produced: str,
              expected: Optional[str]) -> bool:
        if produced == expected:
            return True
        self.mismatches.append({"label": label, "produced": produced,
                                "expected": expected})
        return False
