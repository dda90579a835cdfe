"""Truncated Witt rings W_m(F_q), realized as unramified extensions of Z/p^m.

W_m(F_q) is represented as (Z/p^m)[x]/(lifted modulus), where the lifted
modulus is the degree-s monic polynomial whose roots are the Teichmuller lifts
of the roots of the field modulus.  With that choice the ring generator xi
(the class of x) satisfies xi^q = xi, so

  * the Frobenius lift sigma is literally the substitution x -> x^p,
  * sigma fixes Z/p^m and sends <a> to <a^p>,
  * Teichmuller lifts are the fixed points of z -> z^q.

Elements are plain tuples of s integers in [0, p^m), little-endian
coefficients of powers of xi; the ring context carries all arithmetic.

Every element expands uniquely as sum_j p^j <x_j> with Teichmuller digits
<x_j>; digits() and from_digits() are mutually inverse.  This digit expansion
is the module's "Witt component" notion.  The classical Witt-coordinate
bijection differs from it by p-power twists in each coordinate and is not
implemented.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from ..errors import InternalCheckFailed
from .fields import FieldSpec, field_make, polymulmod, power

WittElt = tuple[int, ...]


def newton_inverse(ring, a, y, steps: int):
    """Lift y, an inverse of a modulo the maximal ideal, to the inverse of a.

    ring is a WittRing or a RamifiedOrder.  Each step y <- y(2 - ay) doubles
    the accuracy of y; after `steps` steps ay = 1 is checked explicitly."""
    one, two = ring.one(), ring.from_int(2)
    for _ in range(steps):
        e = ring.mul(a, y)
        if e == one:
            return y
        y = ring.mul(y, ring.sub(two, e))
    if ring.mul(a, y) != one:
        raise InternalCheckFailed(f"Newton inverse did not converge in {ring!r}")
    return y


def _q_power_fixed_point(ring: "WittRing", t: WittElt, what: str) -> WittElt:
    """Iterate z -> z^q from t to its Teichmuller fixed point.

    A lift of a unit is fixed after m steps; m + 2 steps are allowed and the
    fixed point is checked explicitly, naming `what` if it is not reached."""
    q = ring.field.q
    for _ in range(ring.m + 2):
        nxt = ring.pow(t, q)
        if nxt == t:
            return t
        t = nxt
    if ring.pow(t, q) != t:
        raise InternalCheckFailed(f"{what} diverged in {ring!r}")
    return t


class WittRing:
    """Arithmetic context for W_m(F_q)."""

    __slots__ = ("field", "m", "pm", "modulus", "_teich_cache", "_sigma_cols")

    def __init__(self, field: FieldSpec, m: int, modulus: tuple[int, ...]):
        self.field = field
        self.m = m
        self.pm = field.p ** m
        self.modulus = modulus  # length s+1, monic, entries in [0, p^m)
        self._teich_cache: dict[int, WittElt] = {}
        self._sigma_cols: dict[int, tuple[WittElt, ...]] = {}

    # -- constants and coercion -------------------------------------------

    def zero(self) -> WittElt:
        return (0,) * self.field.s

    def one(self) -> WittElt:
        return (1,) + (0,) * (self.field.s - 1)

    def from_int(self, n: int) -> WittElt:
        return (n % self.pm,) + (0,) * (self.field.s - 1)

    def generator(self) -> WittElt:
        return tuple(int(i == 1) for i in range(self.field.s))

    # -- ring operations ---------------------------------------------------

    def add(self, a: WittElt, b: WittElt) -> WittElt:
        pm = self.pm
        return tuple((x + y) % pm for x, y in zip(a, b))

    def neg(self, a: WittElt) -> WittElt:
        pm = self.pm
        return tuple((-x) % pm for x in a)

    def sub(self, a: WittElt, b: WittElt) -> WittElt:
        pm = self.pm
        return tuple((x - y) % pm for x, y in zip(a, b))

    def scalar_mul(self, n: int, a: WittElt) -> WittElt:
        pm = self.pm
        return tuple((n * x) % pm for x in a)

    def mul(self, a: WittElt, b: WittElt) -> WittElt:
        return tuple(polymulmod(self.pm, self.modulus, a, b))

    def pow(self, a: WittElt, e: int) -> WittElt:
        return power(self.mul, self.one(), a, e)

    def is_zero(self, a: WittElt) -> bool:
        return not any(a)

    def inv(self, a: WittElt) -> WittElt:
        """Inverse of a unit, by lifting the residue inverse (Newton)."""
        r = self.residue(a)
        if r == 0:
            raise ZeroDivisionError("not a unit in the Witt ring")
        return newton_inverse(self, a, self.teichmuller(self.field.inv(r)),
                              max(1, self.m.bit_length() + 1))

    # -- residue field, Teichmuller lifts, digits -------------------------

    def residue(self, a: WittElt) -> int:
        p = self.field.p
        return self.field.encode([c % p for c in a])

    def teichmuller(self, a: int) -> WittElt:
        """The unique multiplicative lift <a>, fixed by z -> z^q."""
        cached = self._teich_cache.get(a)
        if cached is not None:
            return cached
        if a == 0:
            t = self.zero()
        else:
            t = _q_power_fixed_point(self, tuple(self.field.coeffs(a)),
                                     f"Teichmuller iteration for {a}")
        self._teich_cache[a] = t
        return t

    def digits(self, a: WittElt) -> tuple[int, ...]:
        """Teichmuller digit expansion: a = sum_j p^j <digit_j>, length m."""
        p = self.field.p
        out = []
        cur = a
        for _ in range(self.m):
            d = self.residue(cur)
            out.append(d)
            diff = self.sub(cur, self.teichmuller(d))
            if any(c % p for c in diff):
                raise InternalCheckFailed(
                    f"<{d}> does not reduce to residue {d} in {self!r}")
            cur = tuple(c // p for c in diff)
        return tuple(out)

    def from_digits(self, digs) -> WittElt:
        acc = self.zero()
        mult = 1
        for d in digs:
            acc = self.add(acc, self.scalar_mul(mult, self.teichmuller(d)))
            mult *= self.field.p
        return acc

    def ord(self, a: WittElt) -> int | None:
        """p-adic valuation, the least one of a coordinate since 1, xi, ...,
        xi^(s-1) is a basis over Z/p^m; None for 0 (ord >= m)."""
        g, v = math.gcd(*a), 0
        while g and g % self.field.p ** (v + 1) == 0:
            v += 1
        return v if g else None

    # -- Frobenius lift ----------------------------------------------------

    def sigma(self, a: WittElt, k: int = 1) -> WittElt:
        """The Frobenius lift applied k times; fixes Z/p^m, <x> -> <x^p>.

        sigma^k sends xi^i to xi^(i p^k mod (q-1)); the columns of that
        matrix are cached per k, so one application is one pass of integer
        dot products mod p^m."""
        k %= self.field.s
        if k == 0:
            return a
        cols = self._sigma_cols.get(k)
        if cols is None:
            p, q, xi = self.field.p, self.field.q, self.generator()
            rows = [self.pow(xi, i * p ** k % (q - 1))
                    for i in range(self.field.s)]
            cols = self._sigma_cols[k] = tuple(zip(*rows))
        pm = self.pm
        return tuple(sum(map(operator.mul, a, col)) % pm for col in cols)

    # -- misc --------------------------------------------------------------

    def element_to_json(self, a: WittElt) -> dict:
        return {"digits": list(self.digits(a))}

    def __repr__(self) -> str:
        return f"WittRing(q={self.field.q}, m={self.m})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WittRing)
            and (self.field, self.m, self.modulus)
            == (other.field, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.m, self.modulus))


def _canonical_modulus(field: FieldSpec, m: int) -> tuple[int, ...]:
    """Lift of the field modulus whose roots are Teichmuller elements.

    Bootstrap: in the ring defined by the naive integer lift of the modulus,
    push the generator to its Teichmuller representative by iterating the
    q-power map, then expand prod_i (x - t^{p^i}) over the conjugates.  The
    coefficients are scalars (symmetric under sigma), which is checked.
    """
    s, pm = field.s, field.p ** m
    naive = tuple(c % pm for c in field.modulus)
    pre = WittRing(field, m, naive)
    t = _q_power_fixed_point(pre, pre.generator(), "Teichmuller generator")
    # poly with WittElt coefficients, little-endian; starts as the constant 1
    poly: list[WittElt] = [pre.one()]
    conj = t
    for _ in range(s):
        nxt_poly = [pre.zero()] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt_poly[i + 1] = pre.add(nxt_poly[i + 1], c)
            nxt_poly[i] = pre.sub(nxt_poly[i], pre.mul(conj, c))
        poly = nxt_poly
        conj = pre.pow(conj, field.p)
    out = []
    for c in poly:
        if any(c[1:]):
            raise InternalCheckFailed(f"lifted modulus coefficient {c} is not a scalar")
        out.append(c[0])
    if len(out) != s + 1 or out[-1] != 1:
        raise InternalCheckFailed(f"lifted modulus {out} is not monic of degree {s}")
    return tuple(out)


@lru_cache(maxsize=None)
def witt_make(field: FieldSpec, m: int) -> WittRing:
    """Witt ring context of length m over the given field."""
    if m < 1:
        raise ValueError("truncation length must be >= 1")
    modulus = _canonical_modulus(field, m)
    p = field.p
    if tuple(c % p for c in modulus) != field.modulus:
        raise InternalCheckFailed(
            f"lifted modulus {modulus} does not reduce to {field.modulus}")
    ring = WittRing(field, m, modulus)
    # the generator itself is Teichmuller in the canonical presentation
    if ring.pow(ring.generator(), field.q) != ring.generator():
        raise InternalCheckFailed(f"generator of {ring!r} is not Teichmuller")
    return ring


def witt_for(p: int, s: int, m: int, seed: int = 0) -> WittRing:
    return witt_make(field_make(p, s, seed), m)

