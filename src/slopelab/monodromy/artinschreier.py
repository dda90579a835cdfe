"""Additive polynomials and reducibility of X^q - X - A.

Over a field K containing F_q the polynomial X^q - X - A has root set
stable under translation by F_q, so its irreducible factors all share one
degree and any proper factorization is governed by the additive subgroups
of F_q: the polynomial is reducible over K exactly when A = f_G(a) for
some a in K and some nonzero subgroup G, where f_G = prod_{g in G}(X - g).

f_G is F_p-linear on K with kernel G, so the criterion is linear algebra:
for each G, A is tested for membership in the image of f_G, spanned by
f_G(x^i) for i < s, and a preimage a0 gives every solution a0 + G.  f_G
is built along a basis of G by f_{G + F_p g} = f_G^p - f_G(g)^(p-1) f_G,
since prod_{c in F_p}(Y - c b) = Y^p - b^(p-1) Y.  The factoring-based
check in `as_reducible_oracle` shares no code with the subgroup
criterion; it raises polynomials only to powers of |K| = p^s, which are
s coefficient-wise Frobenius steps (`fields.poly_frobenius`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from ..arith import fields
from ..arith.fields import FieldSpec
from ..arith.linalg import Echelon, combine, rref_bases
from ..errors import InternalCheckFailed, PreconditionError


@dataclass(frozen=True)
class AdditivePolynomial:
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


def _subgroups_with_bases(field: FieldSpec, ambient) -> list[tuple]:
    """(G, codes of an F_p-basis of G) for every additive subgroup G of
    the F_p-span of `ambient`, sorted by (size, elements): one per reduced
    row-echelon basis over a basis of that span."""
    p = field.p
    basis_of = Echelon(p)
    basis = [v for v in map(field.coeffs, ambient) if basis_of.insert(v)]
    out = []
    for rows in rref_bases(p, len(basis)):
        gens = [combine(p, row, basis) for row in rows]
        G = frozenset(field.encode(combine(p, c, gens))
                      for c in product(range(p), repeat=len(gens)))
        out.append((G, [field.encode(g) for g in gens]))
    return sorted(out, key=lambda entry: (len(entry[0]), sorted(entry[0])))


def _span_polynomial(K: FieldSpec, gens) -> AdditivePolynomial:
    """f_G for G spanned by the F_p-independent codes `gens`, by
    f_{G + F_p g} = f_G^p - f_G(g)^(p-1) f_G from f_0 = X."""
    f = additive_make(K, {0: 1})
    for g in gens:
        b = K.pow(f.eval(g), K.p - 1)
        coeffs = {j + 1: K.frobenius(c) for j, c in f.coeffs}
        for j, c in f.coeffs:
            coeffs[j] = K.sub(coeffs.get(j, 0), K.mul(b, c))
        f = additive_make(K, coeffs)
    return f


def _check_subfield(K: FieldSpec, q: int) -> None:
    pt = fields.prime_power(q) if 1 < q <= K.q else None
    if pt is None or pt[0] != K.p or K.s % pt[1] != 0:
        raise PreconditionError(f"F_{q} does not embed in F_{K.q}")


@lru_cache(maxsize=64)
def _image_table(K: FieldSpec, q: int) -> tuple:
    """(G, f_G, echelon of f_G(x^i) for i < s) for each nontrivial
    subgroup G of the copy of F_q in K, in (size, elements) order.
    x^i has code p^i, so a membership combination c is the code of a
    preimage.  The tests compare each f_G with the product of its linear
    factors, `subgroup_polynomial` in tests/oracles.py."""
    table = []
    for G, gens in _subgroups_with_bases(K, K.subfield_elements(q)):
        if not gens:
            continue
        f = _span_polynomial(K, gens)
        image = Echelon(K.p)
        for i in range(K.s):
            image.insert(K.coeffs(f.eval(K.p ** i)))
        table.append((G, f, image))
    return tuple(table)


def as_reducible(K: FieldSpec, q: int, A: int):
    """Subgroup-image criterion for reducibility of X^q - X - A over K.

    Returns (True, (G, a)) with a witness f_G(a) = A, or (False, None).
    G is the first subgroup in (size, elements) order whose f_G hits
    A, and a is the least code among the preimages a0 + G.
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
