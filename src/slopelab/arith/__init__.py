"""Exact base arithmetic: finite fields, truncated Witt vectors, the
ramified slope order, and sigma-twisted polynomials.  Names load on first
use, as in `slopelab`."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "fields": ("FieldSpec", "field_make"),
    "ramified": ("RamifiedOrder", "order_make", "order_over"),
    "twisted": ("TwistedPoly",),
    "witt": ("WittRing", "witt_for", "witt_make"),
})
