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
on K with kernel L, so the criterion is linear algebra: for each L, A is
tested for membership in the image of f_L, spanned by f_L(x^i) for
i < s, and a preimage a0 gives every solution a0 + L.  The factoring-
based check in `as_reducible_oracle` shares no code with the line
criterion; it raises polynomials only to powers of |K| = p^s, which are
s coefficient-wise Frobenius steps (`fields.poly_frobenius`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ..arith import fields
from ..arith.fields import FieldSpec
from ..arith.linalg import Echelon
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


def _check_subfield(K: FieldSpec, q: int) -> None:
    pt = fields.prime_power(q) if 1 < q <= K.q else None
    if pt is None or pt[0] != K.p or K.s % pt[1] != 0:
        raise PreconditionError(f"F_{q} does not embed in F_{K.q}")


@lru_cache(maxsize=64)
def _image_table(K: FieldSpec, q: int) -> tuple:
    """(L, f_L, echelon of f_L(x^i) for i < s) for each line L = F_p g of
    the copy of F_q in K, sorted by elements.  f_L = X^p - g^(p-1) X for
    every generator g of L, since c^(p-1) = 1 for c in F_p^x.  x^i has
    code p^i, so a membership combination c is the code of a preimage.
    The tests compare each f_L with the product of its linear factors,
    `subgroup_polynomial` in tests/oracles.py."""
    p = K.p
    lines = {frozenset(K.mul(c, g) for c in range(p)): g
             for g in K.subfield_elements(q) if g}
    table = []
    for L in sorted(lines, key=sorted):
        f = additive_make(K, {0: K.neg(K.pow(lines[L], p - 1)), 1: 1})
        image = Echelon(p)
        for i in range(K.s):
            image.insert(K.coeffs(f.eval(p ** i)))
        table.append((L, f, image))
    return tuple(table)


def as_reducible(K: FieldSpec, q: int, A: int):
    """Line-image criterion for reducibility of X^q - X - A over K.

    Returns (True, (G, a)) with a witness f_G(a) = A, or (False, None).
    G is the first line in sorted order whose f_G hits A, which is also
    the first such nonzero subgroup in (size, elements) order, and a is
    the least code among the preimages a0 + G.
    """
    _check_subfield(K, q)
    if not 0 <= A < K.q:
        raise ValueError(f"{A} is not a field element code")
    target = K.coeffs(A)
    for G, f, image in _image_table(K, q):
        c = image.member(target)
        if c is None:
            continue
        a0 = K.encode(c)
        a = min(K.add(a0, g) for g in G)
        if f.eval(a) != A:
            raise InternalCheckFailed(f"f_G({a}) != {A} for G = {sorted(G)}")
        return True, (G, a)
    return False, None


def as_reducible_oracle(K: FieldSpec, q: int, A: int) -> bool:
    """Direct factor detection: the least m with a root in the degree-m
    extension is the common degree of all irreducible factors, so the
    polynomial is reducible iff that degree falls short of q.

    The walk r -> r^|K| mod f finds X^(|K|^m).  As |K| = p^s and p-th
    powers are additive in characteristic p, each step is s passes
    c_i X^i -> c_i^p X^(ip) followed by a reduction mod f."""
    _check_subfield(K, q)
    f = [K.neg(A), K.neg(1)] + [0] * (q - 2) + [1]
    r = [0, 1]
    for m in range(1, q + 1):
        r = fields.poly_frobenius(K, r, K.s, f)
        diff = fields.poly_sub(K, r, [0, 1])
        g = fields.poly_gcd(K, diff, f)
        if len(g) > 1:
            return m < q
    raise InternalCheckFailed("no factor degree found up to q")
