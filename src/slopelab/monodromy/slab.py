"""Finite Laurent slabs and the projector used to rule out solutions.

A slab is a finite k-linear combination of monomials z^a t^b over a
finite field k, a window into the iterated Laurent series field
k((z_1,...,z_e))((t)).  The projector pi_{M,N} keeps exactly the
monomials that are powers of w = z_1^{M/g} t^{-N/g} (g = gcd(M, N)); it
is k-linear, idempotent and commutes with x -> x^p, which is what makes
the certificate below sound.

`no_solution_certificate` certifies that F(x) = A + B has no solution x,
for F additive over k, A = z_1^M (d t^{-N} + higher) with d != 0, and B
free of z_1.  Projecting the would-be equation gives F(pi(x)) = d w^e + b
with pi(x) a polynomial in w; comparing w-degrees forces
deg_w pi(x) = e / p^n, so either p^n does not divide e (contradiction)
or a complete search over the finitely many candidate polynomials of
that exact degree settles it.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from ..arith.fields import FieldSpec
from ..errors import GuardExceeded, PreconditionError, SolutionFound


class LaurentSlab(NamedTuple):
    """Monomial map ((z-exponents), t-exponent) -> nonzero coefficient."""

    field: FieldSpec
    nvars: int
    data: tuple     # sorted (((z_exps), t_exp), coeff) pairs

    def coeff(self, z_exps, t_exp) -> int:
        key = (tuple(z_exps), t_exp)
        for k, c in self.data:
            if k == key:
                return c
        return 0


def slab_make(field: FieldSpec, nvars: int, terms: dict) -> LaurentSlab:
    acc = {}
    for (z, t), c in terms.items():
        z = tuple(z)
        if len(z) != nvars:
            raise ValueError("z-exponent arity mismatch")
        if not 0 <= c < field.q:
            raise ValueError(f"coefficient {c} is not a field element code")
        key = (z, t)
        acc[key] = field.add(acc.get(key, 0), c)
    acc = {k: v for k, v in acc.items() if v != 0}
    return LaurentSlab(field, nvars, tuple(sorted(acc.items())))


def laurent_projector(slab: LaurentSlab, M: int, N: int) -> LaurentSlab:
    """Keep monomials z_1^i t^j (no other variables) with i N + j M = 0."""
    if M <= 0 or N <= 0:
        raise PreconditionError("projector needs positive M, N")
    keep = []
    for (z, t), c in slab.data:
        if any(z[1:]):
            continue
        i = z[0] if z else 0
        if i * N + t * M == 0:
            keep.append(((z, t), c))
    return LaurentSlab(slab.field, slab.nvars, tuple(keep))


def slab_search(F, delta: int, target: dict) -> int:
    """Decide every w-polynomial x = sum_{k <= delta} x_k w^k against
    F(x) = target, in `itertools.product` order of (x_0, ..., x_delta).

    F is additive, so F(x) = sum_k F(x_k w^k).  One table per position k
    holds F(c w^k) for every c in the field, as a vector over the
    w-degrees that can occur.  The walk keeps target - sum_{i<k} F(x_i w^i)
    for the current prefix and compares it with each entry of the last
    table, one comparison per candidate x_delta.  Returns the number of
    candidates compared, q^(delta + 1), or raises SolutionFound naming the
    first solution.
    """
    K = F.field
    q, p = K.q, K.p
    degrees = {k * p ** j for k in range(delta + 1) for j, _ in F.coeffs}
    slot = {d: i for i, d in enumerate(sorted(degrees | set(target)))}

    def image(k: int, c: int) -> list:
        vec = [0] * len(slot)
        for j, cj in F.coeffs:
            i = slot[k * p ** j]
            vec[i] = K.add(vec[i], K.mul(cj, K.pow(c, p ** j)))
        return vec

    # prefix positions: the nonzero entries of -F(c w^k), added to the
    # remainder; the last position: F(c w^delta) whole, compared with it
    steps = [[[(i, K.neg(v)) for i, v in enumerate(image(k, c)) if v]
              for c in range(q)] for k in range(delta)]
    last = [tuple(image(delta, c)) for c in range(q)]
    rem = [0] * len(slot)
    for d, v in target.items():
        rem[slot[d]] = v

    def walk(k: int, rem: list, prefix: tuple) -> int:
        if k == delta:
            key = tuple(rem)
            if key in last:
                coeffs = prefix + (last.index(key),)
                x_poly = {i: c for i, c in enumerate(coeffs) if c != 0}
                raise SolutionFound(
                    f"projected equation has the solution {x_poly}; "
                    "no certificate exists")
            return q
        checked = 0
        for c, terms in enumerate(steps[k]):
            nxt = rem.copy()
            for i, v in terms:
                nxt[i] = K.add(nxt[i], v)
            checked += walk(k + 1, nxt, prefix + (c,))
        return checked

    return walk(0, rem, ())


def no_solution_certificate(F, A: LaurentSlab, B: LaurentSlab, M: int, N: int,
                            guard: int = 10 ** 6) -> dict:
    """Certify that F(x) = A + B has no solution in the ambient Laurent
    field.  Raises PreconditionError when the shape is wrong,
    GuardExceeded when the bounded search would be too large and
    SolutionFound when the search meets a genuine solution; a returned
    report always means the non-existence claim is established.
    """
    K = F.field
    if M <= 0 or N <= 0:
        raise PreconditionError("need positive M, N")
    if not F.coeffs:
        raise PreconditionError("F must be nonzero")
    n = F.p_degree
    if K.p ** n != F.degree or F.coeffs[-1][1] == 0:
        raise PreconditionError("F must have exact p-power degree")

    d = 0
    for (z, t), c in A.data:
        i = z[0] if z else 0
        if i != M or any(z[1:]):
            raise PreconditionError("A is not z_1^M times a t-series")
        if t < -N:
            raise PreconditionError("A has t-order below -N")
        if t == -N:
            d = c
    if d == 0:
        raise PreconditionError("A has no t^{-N} term")
    for (z, _), _ in B.data:
        if z and z[0] != 0:
            raise PreconditionError("B involves z_1")

    e = gcd(M, N)
    proj_b = laurent_projector(B, M, N)
    b0 = proj_b.coeff((0,) * B.nvars, 0)

    report = {
        "field": {"p": K.p, "q": K.q},
        "F": F.to_json(),
        "M": M, "N": N, "e": e,
        "lead": d, "b0": b0,
        "p_degree": n,
    }
    pn = K.p ** n
    if e % pn != 0:
        report["branch"] = "degree"
        report["reason"] = (f"p^{n} does not divide e = {e}; no w-degree "
                            "can match the projected right side")
        report["conclusion"] = "no-solution"
        return report

    delta = e // pn
    # 2^(delta+1) > guard refuses a long search before q^(delta+1) is formed
    if delta + 1 > guard.bit_length():
        raise GuardExceeded(
            f"search space {K.q}^{delta + 1} exceeds guard {guard}")
    count = K.q ** (delta + 1)
    if count > guard:
        raise GuardExceeded(f"search space {count} exceeds guard {guard}")
    target = {e: d}
    if b0:
        target[0] = K.add(target.get(0, 0), b0)
    target = {k: v for k, v in target.items() if v != 0}
    report["branch"] = "search"
    report["candidates_checked"] = slab_search(F, delta, target)
    report["conclusion"] = "no-solution"
    return report
