"""Canonical JSON emission and re-parsing helpers.

All reports go through `canonical_dumps`: sorted keys, fixed separators,
a single trailing newline, and nothing time- or host-dependent, so a
repeated run with identical inputs produces byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def np_from_json(data):
    """Inverse of NewtonPolygon.to_json (revalidates).  `polygon` is
    imported here, so that `canonical_dumps` alone does not load it."""
    from .polygon import np_make
    segments = [(Fraction(seg["slope"]), seg["width"])
                for seg in data["segments"]]
    return np_make(segments)
