"""The standard order of slope r/s: W(F_q) with an adjoined uniformizer.

The order is W(F_q)[pi] subject to

    pi^s = p,        x * pi = pi * x^tau   (tau = sigma^r)

for x in W(F_q), truncated at pi-adic precision N.  Valuations take values in
(1/s)Z, with val(p) = 1 and val(pi) = 1/s.

Elements are stored as their s slot coefficients

    a = sum_{k<s} pi^k c_k,   c_k in W(F_q) reduced mod p^{m_k},
    m_k = ceil((N - k)/s),

i.e. as a tuple of s Witt elements.  Slot k carries the pi-levels
k, k + s, k + 2s, ... below N, so the reduction is exactly the truncation
mod pi^N and the form is canonical: tuples compare canonically.  Ring
operations work on slots,

    (sum pi^i a_i)(sum pi^j b_j) = sum pi^{i+j} a_i^{tau^j} b_j,

with pi^s folded into the central factor p.  Teichmuller pi-digits

    a = sum_{j<N} pi^j <beta_j>,   beta_j in F_q,

are produced only at the edges: digits, from_digits and element_to_json.
leading reads the first nonzero digit and its level off the slots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .fields import FieldSpec, field_make, power
from .witt import WittElt, WittRing, newton_inverse, witt_make

RamElt = tuple[WittElt, ...]


class RamifiedOrder:
    """Context for O mod pi^N arithmetic at slope r/s."""

    __slots__ = ("field", "r", "s", "N", "witt", "lam", "mods", "_one")

    def __init__(self, field: FieldSpec, r: int, N: int):
        self.field = field
        self.r = r
        self.s = s = field.s
        self.N = N
        self.lam = Fraction(r, s)
        # slot k holds levels k + s*t < N: m_k Witt digits, modulus p^{m_k}
        self.mods = tuple(field.p ** max(0, -(-(N - k) // s)) for k in range(s))
        self.witt = witt_make(field, -(-N // s))
        self._one = self.from_witt(self.witt.one())

    def _reduce(self, coeffs) -> RamElt:
        return tuple(tuple(c % mod for c in vec)
                     for vec, mod in zip(coeffs, self.mods))

    # -- constructors ------------------------------------------------------

    def zero(self) -> RamElt:
        return (self.witt.zero(),) * self.s

    def one(self) -> RamElt:
        return self._one

    def teich_term(self, j: int, beta: int) -> RamElt:
        """pi^j <beta> as an element."""
        if not 0 <= j < self.N:
            raise ValueError(f"pi-exponent {j} outside precision {self.N}")
        w, s = self.witt, self.s
        coeffs = list(self.zero())
        coeffs[j % s] = w.scalar_mul(self.field.p ** (j // s), w.teichmuller(beta))
        return self._reduce(coeffs)

    def uniformizer(self) -> RamElt:
        return self.teich_term(1, 1)

    def from_digits(self, digs) -> RamElt:
        """The element sum_j pi^j <digs[j]>, digits beyond N dropped."""
        digs = list(digs)[: self.N]
        return self._reduce(self.witt.from_digits(digs[k::self.s])
                            for k in range(self.s))

    def from_witt(self, a: WittElt) -> RamElt:
        """Embed W(F_q): a lands in slot 0."""
        return self._reduce((a,) + self.zero()[1:])

    def from_int(self, n: int) -> RamElt:
        return self.from_witt(self.witt.from_int(n))

    # -- edges: digits and residue ------------------------------------------

    def digits(self, a: RamElt) -> tuple[int, ...]:
        """Teichmuller pi-digits (beta_0, ..., beta_{N-1}) of a."""
        digs = [0] * self.N
        for k, c in enumerate(a):
            for t, d in enumerate(self.witt.digits(c)):
                if k + self.s * t < self.N:
                    digs[k + self.s * t] = d
        return tuple(digs)

    def residue(self, a: RamElt) -> int:
        """The level-0 digit: the image of a in F_q."""
        return self.witt.residue(a[0])

    # -- ring operations ---------------------------------------------------

    def add(self, a: RamElt, b: RamElt) -> RamElt:
        return tuple(tuple((x + y) % mod for x, y in zip(u, v))
                     for u, v, mod in zip(a, b, self.mods))

    def neg(self, a: RamElt) -> RamElt:
        return tuple(tuple(-x % mod for x in u) for u, mod in zip(a, self.mods))

    def sub(self, a: RamElt, b: RamElt) -> RamElt:
        return tuple(tuple((x - y) % mod for x, y in zip(u, v))
                     for u, v, mod in zip(a, b, self.mods))

    def mul(self, a: RamElt, b: RamElt) -> RamElt:
        w, s, r, p = self.witt, self.s, self.r, self.field.p
        out = [[0] * s for _ in range(s)]
        for j, bj in enumerate(b):
            if not any(bj):
                continue
            for i, ai in enumerate(a):
                if not any(ai):
                    continue
                term = w.mul(w.sigma(ai, r * j), bj)
                scale = p ** ((i + j) // s)
                acc = out[(i + j) % s]
                for t, x in enumerate(term):
                    acc[t] += scale * x
        return self._reduce(out)

    def pow(self, a: RamElt, e: int) -> RamElt:
        return power(self.mul, self.one(), a, e)

    def is_unit(self, a: RamElt) -> bool:
        return self.residue(a) != 0

    def inv(self, a: RamElt) -> RamElt:
        res = self.residue(a)
        if res == 0:
            v = self.val(a)
            raise ZeroDivisionError(
                f"not a unit: valuation {v} > 0" if v is not None
                else "not a unit: zero at this precision")
        return newton_inverse(self, a, self.teich_term(0, self.field.inv(res)),
                              self.N.bit_length() + 2)

    def commutator(self, a: RamElt, b: RamElt, a_inv: RamElt,
                   b_inv: RamElt) -> RamElt:
        """[a, b] = a b a^-1 b^-1 from inverses the caller already holds:
        three products, no Newton inverse."""
        return self.mul(self.mul(a, b), self.mul(a_inv, b_inv))

    # -- valuation ---------------------------------------------------------

    def leading(self, a: RamElt) -> tuple[int | None, int]:
        """(level, digit) of the first nonzero pi-digit, (None, 0) for 0.
        Slot k starts at level k + s ord(c_k); the digit is c_k/p^ord mod p."""
        s, w = self.s, self.witt
        starts = [(k + s * w.ord(c), k) for k, c in enumerate(a) if any(c)]
        if not starts:
            return None, 0
        level, k = min(starts)      # the slots' levels differ mod s
        pt = self.field.p ** (level // s)
        return level, w.residue(tuple(x // pt for x in a[k]))

    def val(self, a: RamElt) -> Fraction | None:
        """pi-adic valuation in (1/s)Z; None for 0 at this precision."""
        level = self.leading(a)[0]
        return None if level is None else Fraction(level, self.s)

    # -- misc --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "r": self.r,
            "s": self.s,
            "precision": self.N,
        }

    def element_to_json(self, a: RamElt) -> dict:
        return {"digits": list(self.digits(a))}

    def __repr__(self) -> str:
        return f"RamifiedOrder(lam={self.r}/{self.s}, q={self.field.q}, N={self.N})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RamifiedOrder)
            and (self.field, self.r, self.N) == (other.field, other.r, other.N)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.r, self.N))


@lru_cache(maxsize=None)
def order_make(r: int, s: int, p: int, N: int | None = None,
               seed: int = 0) -> RamifiedOrder:
    """Order context for slope r/s over F_{p^s}; default precision N = 4s."""
    import math
    if math.gcd(r, s) != 1:
        raise ValueError(f"slope {r}/{s} not in lowest terms")
    if not 0 < r < s:
        raise ValueError(f"slope {r}/{s} outside (0,1)")
    if N is None:
        N = 4 * s
    return RamifiedOrder(field_make(p, s, seed), r, N)


def order_over(field: FieldSpec, r: int, N: int | None = None) -> RamifiedOrder:
    """Order context over an existing field of degree s."""
    import math
    if math.gcd(r, field.s) != 1:
        raise ValueError(f"slope {r}/{field.s} not in lowest terms")
    if N is None:
        N = 4 * field.s
    return RamifiedOrder(field, r, N)
