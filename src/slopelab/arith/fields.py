"""Finite fields F_{p^s} with a fixed, reproducible modulus.

Representation conventions
--------------------------

An element of F_{p^s} is an integer in [0, q), q = p^s, encoding the
coefficient vector of the residue polynomial in the canonical generator x:

    a  <->  c_0 + c_1 x + ... + c_{s-1} x^{s-1},   a = sum c_i p^i.

So 0 and 1 are the ring's zero and one, and the generator x itself is the
element p.  All arithmetic is carried by the FieldSpec context; elements are
plain ints and never wrapped.

The modulus is the (seed mod count)-th monic irreducible polynomial of degree
s over F_p, in lexicographic order of the coefficient tuple (c_0, ..., c_{s-1}).
seed = 0 gives the lexicographically least choice.  The count of monic
irreducibles is computed exactly (Mobius inversion), so the seed wraps around
deterministically.

`field_modulus` scans the candidates in that order, tests each by Ben-Or's
test (`_irreducible`; M. Ben-Or, FOCS 1981) and builds no context but F_p's.
The test stops at the least degree of a factor, so most reducible candidates
fall to a root in F_p or to one gcd, where Rabin's criterion first raises x
to p^s and to p^{s/t} for every prime t | s (Gao and Panario, FoCM 1997).

Every operation is O(1) through exp/log tables for a fixed generator g, built
once per context in O(q).  Addition uses Zech logarithms Z(k) = log(1 + g^k):
a + b = g^(log a + Z(log b - log a)) for nonzero a, b, and the sum is 0 where
Z is undefined (g^k = -1).  Negation shifts log a by log(-1) = log(p - 1).

Two kernels serve every ring of the package that needs them: `polymulmod`,
the product in (Z/n)[x]/(monic modulus) on coefficient lists (the table
bootstrap here, W_m(F_q) with n = p^m, and F_p[x]/(f) for fields too large
to tabulate), and `power`, square-and-multiply over any multiplication.
Dense polynomial helpers raise X to the power p^k mod f by p-th powers
folded in place by f, and compose mod f by Horner's rule.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..errors import InternalCheckFailed


def _factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at desk scale."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def base_p_digits(a: int, p: int, length: int) -> list[int]:
    """The first `length` base-p digits of a, little-endian."""
    return [a // p ** i % p for i in range(length)]


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, t) with q = p^t and p prime, or None if q is no prime power.

    Trial division stops at sqrt(q), so callers bound q first."""
    fac = _factor(q)
    if len(fac) != 1:
        return None
    (p, t), = fac.items()
    return p, t


def _mobius(n: int) -> int:
    mu = 1
    for _, e in _factor(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def _count_monic_irreducibles(p: int, s: int) -> int:
    """Number of monic irreducible polynomials of degree s over F_p."""
    total = 0
    for d in range(1, s + 1):
        if s % d == 0:
            total += _mobius(s // d) * p ** d
    return total // s


# ---------------------------------------------------------------------------
# The two kernels: modular polynomial product and square-and-multiply.
# ---------------------------------------------------------------------------


def polymulmod(n: int, modulus, a, b) -> list[int]:
    """a * b in (Z/n)[x]/(modulus), on little-endian coefficient lists.

    modulus is monic of degree s >= 1 and a, b have at most s entries; the
    result has exactly s entries in [0, n).  Reductions mod n are deferred
    to the leading coefficient of each fold and to the final digits."""
    s = len(modulus) - 1
    prod = [0] * (2 * s - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return polyfold(n, modulus, prod)


def polyfold(n: int, modulus, prod: list[int]) -> list[int]:
    """prod, an integer list of at most 2s - 1 coefficients, reduced mod the
    monic degree-s modulus and mod n; prod is overwritten.  Only the leading
    coefficient of each fold and the final digits are reduced mod n."""
    s = len(modulus) - 1
    for k in range(len(prod) - 1, s - 1, -1):
        c = prod[k] % n
        if c:
            for i in range(s):
                prod[k - s + i] -= c * modulus[i]
    return [c % n for c in prod[:s]]


def power(mul, one, a, e: int):
    """a^e by square-and-multiply over the multiplication mul.

    The accumulator starts at a^(2^k) for the lowest set bit 2^k of e, so e
    costs bitlen(e) + popcount(e) - 2 products and a^1 is a itself."""
    if e < 0:
        raise ValueError(f"negative exponent {e}; use inv")
    acc = None
    while e:
        if e & 1:
            acc = a if acc is None else mul(acc, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return one if acc is None else acc


# ---------------------------------------------------------------------------
# Dense polynomial helpers over a FieldSpec (coefficient lists, little-endian),
# for modulus selection and the Artin-Schreier factoring oracle.  Powers of p
# need no dense product; only the Horner step of `poly_compose` takes one.
# ---------------------------------------------------------------------------


def poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_add(K: "FieldSpec", f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = K.add(a, b)
    return poly_trim(out)


def poly_scale(K: "FieldSpec", c: int, f: list[int]) -> list[int]:
    return poly_trim([K.mul(c, a) for a in f])


def poly_sub(K: "FieldSpec", f: list[int], g: list[int]) -> list[int]:
    return poly_add(K, f, poly_scale(K, K.neg(1), g))


def poly_rem(K: "FieldSpec", f: list[int], g: list[int]) -> list[int]:
    """Remainder of f modulo g (g nonzero)."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    f = list(f)
    dg = len(g) - 1
    inv_lead = K.inv(g[-1])
    while len(f) - 1 >= dg and f:
        c = K.mul(f[-1], inv_lead)
        shift = len(f) - 1 - dg
        for i, b in enumerate(g):
            if b:
                f[shift + i] = K.sub(f[shift + i], K.mul(c, b))
        poly_trim(f)
    return f


def poly_gcd(K: "FieldSpec", f: list[int], g: list[int]) -> list[int]:
    f, g = list(f), list(g)
    while g:
        f, g = g, poly_rem(K, f, g)
    if f:
        f = poly_scale(K, K.inv(f[-1]), f)  # monic normalization
    return f


def poly_frobenius(K: "FieldSpec", f: list[int], k: int,
                   mod: list[int]) -> list[int]:
    """f^(p^k) mod `mod` by k p-th powers: sum c_i X^i -> sum c_i^p X^(ip)
    in characteristic p, so no dense product.  Each pass folds its top slots
    in place by X^d = -sum_{i<d} (m_i / m_d) X^i over the nonzero m_i."""
    f = poly_rem(K, f, mod)
    d, inv_lead = len(mod) - 1, K.inv(mod[-1])
    tail = [(i, K.neg(K.mul(c, inv_lead))) for i, c in enumerate(mod[:d]) if c]
    for _ in range(k):
        g = [0] * (K.p * len(f) - K.p + 1)
        g[::K.p] = map(K.frobenius, f)
        for top in range(len(g) - 1, d - 1, -1):
            c = g[top]
            if c:
                for i, b in tail:
                    g[top - d + i] = K.add(g[top - d + i], K.mul(c, b))
        f = poly_trim(g[:d])
    return f


def poly_compose(K: "FieldSpec", g: list[int], h: list[int],
                 mod: list[int]) -> list[int]:
    """g(h) mod `mod` by Horner's rule: acc -> acc * h + g_i, each step a
    schoolbook product and one `poly_rem`."""
    acc: list[int] = []
    for c in reversed(g):
        out = [c] + [0] * (len(acc) + len(h))
        for i, a in enumerate(acc):
            for j, b in enumerate(h):
                if a and b:
                    out[i + j] = K.add(out[i + j], K.mul(a, b))
        acc = poly_rem(K, poly_trim(out), mod)
    return acc


def _irreducible(p: int, f: list[int]) -> bool:
    """Monic f of degree s >= 1 over F_p irreducible?

    Ben-Or's test.  f is reducible iff it has an irreducible factor of some
    degree i <= s/2.  x^{p^i} - x is the product of the monic irreducibles
    whose degree divides i, so that holds iff gcd(x^{p^i} - x, f) != 1 for
    some i <= s/2.  The step i = 1 asks instead whether f has a root in F_p
    (c_0 = 0 is the root 0), by p Horner evaluations.  From i = 2 on,
    h = x^{p^i} mod f advances by one p-th-power pass per step, and each
    step takes one gcd.  The first common factor refuses f, so most
    reducible candidates cost one step.
    """
    s = len(f) - 1
    if s >= 2 and any(_value_at(f, a) % p == 0 for a in range(p)):
        return False
    Fp = field_make(p, 1)
    x = h = [0, 1]
    for i in range(2, s // 2 + 1):
        # x^{p^i} mod f; i = 1 was the root test, so h starts at x^{p^2}
        h = poly_frobenius(Fp, h, 2 if i == 2 else 1, f)
        if len(poly_gcd(Fp, f, poly_sub(Fp, h, x))) > 1:
            return False
    return True


def _value_at(f: list[int], a: int) -> int:
    """f(a) over the integers, by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = v * a + c
    return v


class FieldSpec:
    """Context for F_{p^s} arithmetic on int-encoded elements."""

    __slots__ = (
        "p", "s", "q", "modulus", "seed",
        "_exp", "_log", "_zech", "_log_minus_one", "_gen", "_frob_mult",
    )

    def __init__(self, p: int, s: int, modulus: tuple[int, ...], seed: int = 0):
        self.p = p
        self.s = s
        self.q = p ** s
        self.modulus = modulus  # length s+1, monic, entries in [0, p)
        self.seed = seed
        self._build_tables()

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int) -> list[int]:
        """Base-p digits of a, little-endian, length s."""
        return base_p_digits(a, self.p, self.s)

    def encode(self, digits: list[int]) -> int:
        acc = 0
        for c in reversed(digits):
            acc = acc * self.p + (c % self.p)
        return acc

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    # -- additive structure ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        q1 = self.q - 1
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % q1]
        if z is None:
            return 0
        return self._exp[(la + z) % q1]

    def neg(self, a: int) -> int:
        if a == 0:
            return 0
        return self._exp[(self._log[a] + self._log_minus_one) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    # -- multiplicative structure -----------------------------------------

    def _build_tables(self) -> None:
        q, p, q1 = self.q, self.p, self.q - 1

        def mul(a, b):
            return polymulmod(p, self.modulus, a, b)

        one = self.coeffs(1)
        # g generates iff g^(q-1) = 1 and g^((q-1)/t) != 1 for each prime t | q-1
        # (g = 1 only for q = 2).  Such a unit of order q - 1 exists iff every
        # nonzero residue is a unit, that is iff the modulus is irreducible.
        gen = next((g for g in range(1, q)
                    if power(mul, one, self.coeffs(g), q1) == one
                    and all(power(mul, one, self.coeffs(g), q1 // t) != one
                            for t in _factor(q1))),
                   None)
        if gen is None:
            raise ValueError(f"{list(self.modulus)} is not irreducible over F_{p}")
        exp = [1] * q1
        g, cur = self.coeffs(gen), one
        for i in range(1, q1):
            cur = mul(cur, g)
            exp[i] = self.encode(cur)
        log: list[int | None] = [None] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._gen, self._exp, self._log = gen, exp, log
        # 1 + v changes only the constant digit of v; log[0] is None
        self._zech = [log[v - v % p + (v % p + 1) % p] for v in exp]
        self._log_minus_one = log[p - 1]
        self._frob_mult = [pow(p, k, q1) for k in range(self.s)]

    def generator(self) -> int:
        """A fixed generator of the multiplicative group."""
        return self._gen

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        q1 = self.q - 1
        return self._exp[(self._log[a] + self._log[b]) % q1]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        q1 = self.q - 1
        return self._exp[(-self._log[a]) % q1]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        q1 = self.q - 1
        return self._exp[(self._log[a] * e) % q1]

    def frobenius(self, a: int, k: int = 1) -> int:
        """a^(p^k); k may be any integer, reduced mod s."""
        if a == 0:
            return 0
        k %= self.s
        return self._exp[(self._log[a] * self._frob_mult[k]) % (self.q - 1)]

    def order(self, a: int) -> int:
        """Multiplicative order of a unit."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        return (self.q - 1) // math.gcd(self._log[a], self.q - 1)

    # -- subfields ---------------------------------------------------------

    def subfield_elements(self, q_sub: int) -> list[int]:
        """Elements of the unique subfield of size q_sub, if it exists."""
        pt = prime_power(q_sub)
        if pt is None or pt[0] != self.p:
            raise ValueError(f"{q_sub} is not a power of p = {self.p}")
        if self.s % pt[1] != 0:
            raise ValueError(f"F_{q_sub} is not a subfield of F_{self.q}")
        return sorted(a for a in self.elements() if self.pow(a, q_sub) == a)

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, s={self.s}, modulus={list(self.modulus)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.s, self.modulus))


@lru_cache(maxsize=None)
def field_modulus(p: int, s: int, seed: int = 0) -> tuple[int, ...]:
    """The modulus of F_{p^s}: the (seed mod count)-th monic irreducible of
    degree s in lexicographic order of (c_0, ..., c_{s-1}); x for s = 1."""
    if prime_power(p) != (p, 1):
        raise ValueError(f"p = {p} is not prime")
    if s < 1:
        raise ValueError("extension degree must be >= 1")
    if s == 1:
        return (0, 1)
    idx = seed % _count_monic_irreducibles(p, s)
    seen = 0
    for enc in range(p ** s):
        f = base_p_digits(enc, p, s) + [1]
        if _irreducible(p, f):
            if seen == idx:
                return tuple(f)
            seen += 1
    raise InternalCheckFailed("irreducible count and enumeration disagree")


def modulus_scan(p: int, s: int, seed: int = 0) -> int:
    """About how many candidates `field_modulus(p, s, seed)` tests: it stops
    at irreducible number seed mod count, and irreducibles of degree s have
    density about 1/s among the candidates."""
    return s * (seed % _count_monic_irreducibles(p, s) + 1)


@lru_cache(maxsize=None)
def field_make(p: int, s: int, seed: int = 0) -> FieldSpec:
    """Deterministic field context for F_{p^s}, on `field_modulus(p, s, seed)`.

    seed selects among the monic irreducible moduli of degree s, in
    lexicographic order of the coefficient tuple; it wraps mod the exact count.
    """
    return FieldSpec(p, s, field_modulus(p, s, seed), seed)
