"""Additive polynomials and reducibility of X^q - X - A.

Over a field K containing F_q the polynomial X^q - X - A has root set
stable under translation by F_q, so its irreducible factors all share one
degree and any proper factorization is governed by the additive subgroups
of F_q: the polynomial is reducible over K exactly when A = f_G(a) for
some a in K and some nonzero subgroup G, where f_G = prod_{g in G}(X - g).

For a line L of G, f_G = f_{f_L(G)} o f_L with |f_L(G)| = |G|/p, so
descending from any G that works reaches a line that works: the lines
L = F_p g suffice, and the first witness in (size, elements) order is
one of them (docs/certificates.md).  f_L = X^p - g^(p-1) X is F_p-linear
on K with kernel L, and f_L(g y) = g^p (y^p - y), so by additive Hilbert
90 A is in its image iff Tr_{K/F_p}(A g^(-p)) = 0: one dot product of
the digits of A with a cached row of traces.  A preimage a0 comes in
closed form from an element of trace 1, and every solution is a0 + L.
The splitting-degree check in `as_reducible_oracle` shares no code with
the line criterion; it computes r1 = X^|K| mod f once by p-th powers
(`fields.poly_frobenius`) and walks X^(|K|^m) by modular composition
until it comes back to X, which needs no gcd and no equal-degree fact.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

from ..arith import fields
from ..arith.fields import FieldSpec
from ..errors import InternalCheckFailed, PreconditionError


class AdditivePolynomial(NamedTuple):
    """sum_j c_j X^{p^j} with coefficients in a fixed field."""

    field: FieldSpec
    coeffs: tuple            # ((j, c_j), ...) sorted, c_j nonzero

    @property
    def p_degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    @property
    def degree(self) -> int:
        return self.field.p ** self.p_degree if self.coeffs else 0

    def eval(self, a: int) -> int:
        K = self.field
        acc = 0
        for j, c in self.coeffs:
            acc = K.add(acc, K.mul(c, K.pow(a, K.p ** j)))
        return acc

    def to_json(self) -> dict:
        return {"coeffs": [[j, c] for j, c in self.coeffs]}


def additive_make(field: FieldSpec, coeffs: dict) -> AdditivePolynomial:
    for c in coeffs.values():
        if not 0 <= c < field.q:
            raise ValueError(f"coefficient {c} is not a field element code")
    pairs = tuple(sorted((j, c) for j, c in coeffs.items() if c != 0))
    return AdditivePolynomial(field, pairs)


def check_subfield(p: int, s: int, q: int) -> None:
    """Refuse a q that is not the size of a subfield of F_(p^s)."""
    pt = fields.prime_power(q) if 1 < q <= p ** s else None
    if pt is None or pt[0] != p or s % pt[1] != 0:
        raise PreconditionError(f"F_{q} does not embed in F_{p ** s}")


def _trace(K: FieldSpec, a: int) -> int:
    """Tr_{K/F_p}(a) = sum of the conjugates a^(p^i), i < s; an element
    of F_p, whose code is its value."""
    return reduce(K.add, (K.frobenius(a, i) for i in range(K.s)))


@lru_cache(maxsize=64)
def _image_table(K: FieldSpec, q: int) -> tuple:
    """(theta, lines): an element of trace 1, and (L, f_L, g, row) for each
    line L = F_p g of the copy of F_q in K, sorted by elements.  f_L =
    X^p - g^(p-1) X for every generator g of L, since c^(p-1) = 1 for c
    in F_p^x.  A is in the image of f_L iff Tr(A g^(-p)) = 0, and row[i]
    = Tr(x^i g^(-p)), so the test is a dot product with the digits of A.
    The tests compare each f_L with the product of its linear factors,
    `subgroup_polynomial` in tests/oracles.py."""
    # no exception is cached, so every bad call raises
    check_subfield(K.p, K.s, q)
    p = K.p
    theta = next(t for t in K.elements() if _trace(K, t) == 1)
    lines = {frozenset(K.mul(c, g) for c in range(p)): g
             for g in K.subfield_elements(q) if g}
    table = []
    for L, g in sorted(lines.items(), key=lambda entry: sorted(entry[0])):
        f = additive_make(K, {0: K.neg(K.pow(g, p - 1)), 1: 1})
        row = tuple(_trace(K, K.mul(p ** i, K.pow(g, -p)))
                    for i in range(K.s))
        table.append((L, f, g, row))
    return theta, tuple(table)


def as_reducible(K: FieldSpec, q: int, A: int):
    """Line-trace criterion for reducibility of X^q - X - A over K.

    Returns (True, (G, a)) with a witness f_G(a) = A, or (False, None).
    G is the first line in sorted order whose f_G hits A, which is also
    the first such nonzero subgroup in (size, elements) order, and a is
    the least code among the preimages a0 + G.
    """
    theta, table = _image_table(K, q)
    if not 0 <= A < K.q:
        raise ValueError(f"{A} is not a field element code")
    p = K.p
    digits = K.coeffs(A)
    for G, f, g, row in table:
        if sum(d * r for d, r in zip(digits, row)) % p:
            continue
        # c = A g^(-p) has trace 0, so with S_i = sum_{j<i} c^(p^j) the
        # sum y = sum_{i<s} S_i theta^(p^i) telescopes to y^p - y = -c,
        # and a0 = -g y has f_G(a0) = -g^p (y^p - y) = A
        c = K.mul(A, K.pow(g, -p))
        y = S = 0
        for i in range(K.s):
            y = K.add(y, K.mul(S, K.frobenius(theta, i)))
            S = K.add(S, K.frobenius(c, i))
        a0 = K.neg(K.mul(g, y))
        a = min(K.add(a0, h) for h in G)
        if f.eval(a) != A:
            raise InternalCheckFailed(f"f_G({a}) != {A} for G = {sorted(G)}")
        return True, (G, a)
    return False, None


def as_reducible_oracle(K: FieldSpec, q: int, A: int) -> bool:
    """Direct splitting-degree detection: the least m with X^(|K|^m) = X
    mod f is the degree of the extension of K over which f splits, and the
    polynomial is reducible iff that degree falls short of q.

    f' = -1, so f is squarefree and divides X^(|K|^m) - X exactly when
    every root lies in the degree-m extension.  An irreducible f first
    splits at m = q; a reducible one splits at the lcm of its factor
    degrees d_i < q, and lcm(d_i) = q = p^k would need p^k | d_i for some
    i.  So the stop decides reducibility without the equal-degree fact
    the criterion relies on (docs/certificates.md).

    The walk finds r_m = X^(|K|^m) mod f.  x -> x^|K| fixes K, so it is
    a K-algebra endomorphism of K[X]/(f) and r_m = r_(m-1)(r1): one
    X^|K| by s p-th-power passes, then one composition per further step."""
    check_subfield(K.p, K.s, q)
    f = [K.neg(A), K.neg(1)] + [0] * (q - 2) + [1]
    r = r1 = fields.poly_frobenius(K, [0, 1], K.s, f)
    for m in range(1, q + 1):
        if r == [0, 1]:
            return m < q
        r = fields.poly_compose(K, r, r1, f)
    raise InternalCheckFailed("no splitting degree found up to q")
