"""sigma-twisted polynomials in F over a Witt ring.

The commutation rule is F a = a^sigma F, so

    (a F^i)(b F^j) = a b^{sigma^i} F^{i+j}.

Coefficients are Witt elements of one WittRing, the polynomial's `ring`.
"""

from __future__ import annotations

from .witt import WittRing


class TwistedPoly:
    """Polynomial sum_k c_k F^k with the twisted product rule."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: WittRing, coeffs: dict):
        self.ring = ring
        self.coeffs = {k: c for k, c in coeffs.items() if not ring.is_zero(c)}

    def degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, k: int):
        return self.coeffs.get(k, self.ring.zero())

    def mul(self, other: "TwistedPoly") -> "TwistedPoly":
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                term = self.ring.mul(a, self.ring.sigma(b, i))
                k = i + j
                out[k] = self.ring.add(out[k], term) if k in out else term
        return TwistedPoly(self.ring, out)

    def ord_map(self) -> dict[int, int | None]:
        """F-exponent -> coefficient ord, for Newton-polygon assembly."""
        return {k: self.ring.ord(c) for k, c in self.coeffs.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, TwistedPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        ks = sorted(self.coeffs, reverse=True)
        return "TwistedPoly(" + " + ".join(f"c{k}*F^{k}" for k in ks) + ")"
