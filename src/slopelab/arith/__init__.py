"""Exact base arithmetic: finite fields, truncated Witt vectors, the
ramified slope order, and sigma-twisted polynomials."""

from .fields import FieldSpec, field_make
from .ramified import RamifiedOrder, order_make, order_over
from .twisted import TwistedPoly
from .witt import WittRing, witt_for, witt_make

__all__ = [
    "FieldSpec",
    "field_make",
    "RamifiedOrder",
    "order_make",
    "order_over",
    "TwistedPoly",
    "WittRing",
    "witt_for",
    "witt_make",
]
