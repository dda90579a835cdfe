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

with pi^s folded into the central factor p.  Since sigma is Z-linear, the
twist is tabulated: writing a_i = sum_u a_{i,u} xi^u,

    a_i^{tau^j} b_j = sum_u a_{i,u} (sigma^{rj}(xi^u) b_j),

so each order holds the s^2 elements sigma^k(xi^u), each packed into one
integer base 2^B (Kronecker substitution).  A product packs each nonzero b_j
once and forms the s integer products Q_u = sigma^{rj}(xi^u) b_j with row
k = rj mod s; each nonzero a_i then adds sum_u a_{i,u} Q_u into output slot
i + j mod s, times p when i + j >= s.  Each output slot that received a
term is unpacked into its 2s - 1 integer coefficients, folded by the lifted
modulus and reduced mod p^{m_k} once.  Every term is a nonnegative integer,
so a slot whose packed sum is 0 received none: it is the zero vector and is
not folded.  A pi-monomial times a pi-monomial fills one slot and folds only
that one.  With m = ceil(N/s), B = bitlen(s^3 p^{3m} p) + 1 keeps the
packed coefficients carry-free (proof at _twist_table).  Teichmuller
pi-digits

    a = sum_{j<N} pi^j <beta_j>,   beta_j in F_q,

are produced only at the edges: digits and from_digits.  leading reads the
first nonzero digit and its level off the slots.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .fields import FieldSpec, field_make, polyfold, power
from .witt import WittElt, WittRing, newton_inverse, witt_make

RamElt = tuple[WittElt, ...]


class RamifiedOrder:
    """Context for O mod pi^N arithmetic at slope r/s."""

    __slots__ = ("field", "r", "s", "N", "witt", "mods", "_one", "_twist")

    def __init__(self, field: FieldSpec, r: int, N: int):
        self.field = field
        self.r = r
        self.s = s = field.s
        self.N = N
        # slot k holds levels k + s*t < N: m_k Witt digits, modulus p^{m_k}
        self.mods = tuple(field.p ** max(0, -(-(N - k) // s)) for k in range(s))
        self.witt = witt_make(field, -(-N // s))
        self._one = self.from_witt(self.witt.one())
        self._twist = None

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

    def _twist_table(self):
        """(shifts, rows): rows[j][u] is sigma^{rj}(xi^u) packed base 2^B
        (Kronecker substitution), and shifts are B t for t < 2s - 1; built
        on the first product.

        Width.  Every coordinate below is a nonnegative integer: slot
        coordinates are below p^{m_k} <= p^m, table coordinates below p^m.
        A coefficient of sigma^{rj}(xi^u) b_j, as an unreduced integer
        product, is a sum of at most s terms, so it is below s p^{2m}.
        Weighting by a_{i,u} < p^m and summing over the s values of u keeps
        it below s^2 p^{3m}.  An output slot k receives exactly s pairs
        (i, j), one for each j, each scaled by 1 or p, so every integer
        coefficient it accumulates is below s^3 p^{3m} p < 2^(B-1).  So no
        packed coefficient carries into the next one, with a bit to spare,
        and shifting and masking by B bits returns the exact coefficients."""
        w, s, r = self.witt, self.s, self.r
        B = (s ** 3 * w.pm ** 3 * self.field.p).bit_length() + 1
        shifts = tuple(B * t for t in range(2 * s - 1))
        basis = [(0,) * u + (1,) + (0,) * (s - u - 1) for u in range(s)]
        packed = [[sum(map(operator.lshift, w.sigma(e, k), shifts))
                   for e in basis] for k in range(s)]
        self._twist = shifts, tuple(packed[r * j % s] for j in range(s))
        return self._twist

    def mul(self, a: RamElt, b: RamElt) -> RamElt:
        s, p = self.s, self.field.p
        shifts, rows = self._twist or self._twist_table()
        nonzero = [(i, ai) for i, ai in enumerate(a) if any(ai)]
        low, high = [0] * s, [0] * s        # pi^{i+j} below s, and past it
        for j, bj in enumerate(b):
            if not any(bj):
                continue
            pb = sum(map(operator.lshift, bj, shifts))
            prods = [t * pb for t in rows[j]]
            for i, ai in nonzero:
                term = sum(map(operator.mul, ai, prods))
                if i + j < s:
                    low[i + j] += term
                else:
                    high[i + j - s] += term
        mask, modulus, out = (1 << shifts[1]) - 1, self.witt.modulus, []
        for x, y, mod in zip(low, high, self.mods):
            acc = x + p * y
            if not acc:                 # no term reached this slot
                out.append(self.witt.zero())
                continue
            out.append(tuple(polyfold(mod, modulus,
                                      [acc >> t & mask for t in shifts])))
        return tuple(out)

    def pow(self, a: RamElt, e: int) -> RamElt:
        return power(self.mul, self.one(), a, e)

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
        from fractions import Fraction
        level = self.leading(a)[0]
        return None if level is None else Fraction(level, self.s)

    # -- misc --------------------------------------------------------------

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
    return order_over(field_make(p, s, seed), r, N)


def order_over(field: FieldSpec, r: int, N: int | None = None) -> RamifiedOrder:
    """Order context over an existing field of degree s; default N = 4s."""
    s = field.s
    if math.gcd(r, s) != 1:
        raise ValueError(f"slope {r}/{s} not in lowest terms")
    if not 0 < r < s:
        raise ValueError(f"slope {r}/{s} outside (0,1)")
    if N is None:
        N = 4 * s
    return RamifiedOrder(field, r, N)
