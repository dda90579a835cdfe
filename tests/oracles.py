"""Independent brute-force checks used by the test suite.

Everything here is deliberately naive: exhaustive enumeration and direct
definition-chasing, no shared code paths with the library logic beyond
elementary constructors.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from slopelab.errors import PreconditionError, SolutionFound
from slopelab.polygon import (
    NewtonPolygon,
    lies_on_or_below,
    np_from_breakpoints,
)


@lru_cache(maxsize=None)
def convex_chains(h: int, e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All integral-breakpoint chains (0,0) -> (h,e), slopes in [0,1] strictly
    increasing between consecutive breakpoints."""
    out = []

    def extend(path, last_slope):
        x, y = path[-1]
        if (x, y) == (h, e):
            out.append(tuple(path))
            return
        for nx in range(x + 1, h + 1):
            for ny in range(y, e + 1):
                sl = Fraction(ny - y, nx - x)
                if sl > 1:
                    continue
                if last_slope is not None and sl <= last_slope:
                    continue
                # the remaining chord must still be steeper, unless done
                if (nx, ny) != (h, e):
                    rest = Fraction(e - ny, h - nx) if nx < h else None
                    if rest is None or not sl < rest <= 1:
                        continue
                extend(path + [(nx, ny)], sl)

    if 0 <= e <= h:
        extend([(0, 0)], None)
    return tuple(out)


def all_polygons(h: int, e: int) -> list[NewtonPolygon]:
    return [np_from_breakpoints(ch) for ch in convex_chains(h, e)]


def attainable_by_search(np0: NewtonPolygon, lam: Fraction):
    """First polygon below np0 carrying lam with multiplicity one and the
    same initial part, by exhaustive enumeration; None if there is none."""
    lam = Fraction(lam)
    h, e = np0.endpoint
    init0 = tuple(sg for sg in np0.segments if sg[0] < lam)
    for nu in all_polygons(h, e):
        if not lies_on_or_below(nu, np0):
            continue
        if nu.width_of_slope(lam) != lam.denominator:
            continue
        if tuple(sg for sg in nu.segments if sg[0] < lam) != init0:
            continue
        return nu
    return None


def frobenius_matrix(disp):
    """Matrix of the semilinear Frobenius: columns 1..d act as given, the
    last c columns pick up one factor of p."""
    ring = disp.ring
    h, d = disp.h, disp.d
    mat = {}
    for i in range(1, h + 1):
        for j in range(1, h + 1):
            v = disp.entry(i, j)
            if j > d:
                v = ring.scalar_mul(ring.field.p, v)
            mat[(i, j)] = v
    return mat


def t_substitute_numeric(disp, t_matrix):
    """The whole h x h matrix {(i, j): value} of the deformed display
    (A + TC, B + TD; C, D), by the plain matrix product over the Witt ring
    from the entries `disp.entry` reads; t_matrix maps (i, k), 1 <= i <= d
    and 1 <= k <= c, to a Witt element, absent entries zero."""
    ring = disp.ring
    d, c, h = disp.d, disp.c, disp.h
    out = {(i, j): disp.entry(i, j)
           for i in range(1, h + 1) for j in range(1, h + 1)}
    for i in range(1, d + 1):
        for j in range(1, h + 1):
            acc = out[(i, j)]
            for k in range(1, c + 1):
                t = t_matrix.get((i, k), ring.zero())
                acc = ring.add(acc, ring.mul(t, disp.entry(d + k, j)))
            out[(i, j)] = acc
    return out


def apply_frobenius(disp, mat, vec):
    """F(v) = M . sigma(v), componentwise over the Witt ring."""
    ring = disp.ring
    h = disp.h
    tv = [ring.sigma(x) for x in vec]
    return [
        _dot(ring, [mat[(i, j)] for j in range(1, h + 1)], tv)
        for i in range(1, h + 1)
    ]


def _dot(ring, row, vec):
    acc = ring.zero()
    for a, b in zip(row, vec):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def apply_twisted(disp, mat, coeffs, vec):
    """(sum_k c_k F^k)(vec): scalars act after each semilinear iteration."""
    ring = disp.ring
    top = max(coeffs)
    iterates = [list(vec)]
    for _ in range(top):
        iterates.append(apply_frobenius(disp, mat, iterates[-1]))
    total = [ring.zero()] * disp.h
    for k, coeff in coeffs.items():
        for idx in range(disp.h):
            total[idx] = ring.add(total[idx], ring.mul(coeff, iterates[k][idx]))
    return total


def cayley_hamilton_holds(disp, chi):
    """chi(F) annihilates the distinguished generator e_1.

    Scalars do not pull through the semilinear F, so chi(F) need not kill
    other basis vectors; e_1 generates a full-rank twisted-polynomial
    submodule, which is what ties the polygon of M to the polygon of chi.
    The check also exercises left multiples zeta * chi, which must kill
    e_1 as well since the annihilator is a left ideal.
    """
    ring = disp.ring
    mat = frobenius_matrix(disp)
    e1 = [ring.one()] + [ring.zero()] * (disp.h - 1)
    out = apply_twisted(disp, mat, chi.coeffs, e1)
    if any(t != ring.zero() for t in out):
        return False
    shifted = {k + 1: ring.sigma(c) for k, c in chi.coeffs.items()}
    out2 = apply_twisted(disp, mat, shifted, e1)
    return all(t == ring.zero() for t in out2)


def poly_mul(K, f, g):
    """The dense product of two coefficient lists over K."""
    from slopelab.arith import fields
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = K.add(out[i + j], K.mul(a, b))
    return fields.poly_trim(out)


def poly_powmod(K, f, e, mod):
    """f^e mod `mod` by square-and-multiply over dense products: the
    reference for `fields.poly_frobenius` and the oracle's composition
    walk, with its own loop rather than the library's `power`."""
    from slopelab.arith import fields
    acc, f = [1], fields.poly_rem(K, f, mod)
    while e:
        if e & 1:
            acc = fields.poly_rem(K, poly_mul(K, acc, f), mod)
        e >>= 1
        if e:
            f = fields.poly_rem(K, poly_mul(K, f, f), mod)
    return acc


def irreducible_by_trial_division(p, f):
    """Is the monic f of degree s over F_p irreducible?  f is divided by
    every monic polynomial of degree 1..s/2, in integers reduced mod p."""
    s = len(f) - 1
    for d in range(1, s // 2 + 1):
        for low in product(range(p), repeat=d):
            g, rem = list(low) + [1], list(f)
            for k in range(s, d - 1, -1):
                c = rem[k] % p
                for i in range(d + 1):
                    rem[k - d + i] -= c * g[i]
            if all(c % p == 0 for c in rem[:d]):
                return False
    return True


def splitting_degree_by_factoring(K, f):
    """Least m such that f has a root in the degree-m extension of K.

    For polynomials whose irreducible factors all share one degree (such
    as X^n - w when the n-th roots of unity lie in K) this is exactly
    that common degree.  Detection walks X^{|K|^m} mod f and tests the
    gcd, sharing nothing with the order computation it cross-checks.
    """
    from slopelab.arith import fields
    deg = len(fields.poly_trim(list(f))) - 1
    r = [0, 1]
    for m in range(1, deg + 1):
        r = poly_powmod(K, r, K.q, f)
        g = fields.poly_gcd(K, fields.poly_sub(K, r, [0, 1]), f)
        if len(g) > 1:
            return m
    raise AssertionError("no root in any extension up to the degree")


# -- Artin-Schreier reducibility, exhaustively ------------------------------
#
# Subgroups are grown as Python sets and f_G(a) is evaluated as the product
# prod_{g in G}(a - g) that defines it, so nothing here touches the linear
# algebra of the library criterion.


def _extend(field, G, g):
    """G + F_p g for an additive subgroup G, as a set."""
    mult = [0]
    for _ in range(field.p - 1):
        mult.append(field.add(mult[-1], g))
    return frozenset(field.add(a, m) for a in G for m in mult)


def span(field, gens):
    """Additive closure of a generator set: the F_p-span."""
    seen = frozenset({0})
    for g in gens:
        if g not in seen:
            seen = _extend(field, seen, g)
    return seen


@lru_cache(maxsize=None)
def additive_subgroups(field, ambient: tuple):
    """All additive subgroups of the subgroup `ambient`, grown one
    generator at a time and deduplicated, sorted by (size, elements)."""
    levels = [{frozenset({0})}]
    while True:
        nxt = set()
        for G in levels[-1]:
            covered = set(G)
            for v in ambient:
                if v not in covered:
                    H = _extend(field, G, v)
                    nxt.add(H)
                    covered |= H
        if not nxt:
            break
        levels.append(nxt)
    return sorted({G for lev in levels for G in lev},
                  key=lambda G: (len(G), sorted(G)))


def additive_from_dense(field, dense):
    """Classify a plain polynomial as additive; reject stray monomials."""
    from slopelab.monodromy import additive_make
    p = field.p
    out = {}
    for e, c in enumerate(dense):
        if c == 0:
            continue
        j = 0
        n = e
        while n > 1 and n % p == 0:
            n //= p
            j += 1
        if n != 1:
            raise PreconditionError(f"monomial X^{e} is not a p-power")
        out[j] = c
    return additive_make(field, out)


def subgroup_polynomial(field, G):
    """f_G = prod_{g in G}(X - g) as a product of linear factors, verified
    additive: the reference for the line polynomials of `as_reducible`."""
    G = frozenset(G)
    for a in G:
        for b in G:
            if field.add(a, b) not in G:
                raise PreconditionError("not closed under addition")
    if 0 not in G:
        raise PreconditionError("missing zero")
    f = [1]
    for g in G:
        f = poly_mul(field, f, [field.neg(g), 1])
    return additive_from_dense(field, f)


def as_reducible_exhaustive(K, q, A):
    """(True, (G, a)) for the first nontrivial subgroup G of the copy of
    F_q in K, in sorted order, and the least a in K with
    prod_{g in G}(a - g) = A; (False, None) if there is none."""
    copy = tuple(a for a in K.elements() if K.pow(a, q) == a)
    for G in additive_subgroups(K, copy):
        if len(G) == 1:
            continue
        for a in K.elements():
            value = 1
            for g in G:
                value = K.mul(value, K.sub(a, g))
            if value == A:
                return True, (G, a)
    return False, None


# -- the projected no-solution search, candidate by candidate ---------------


def w_poly_of_additive(F, x_poly):
    """F(x) for x a w-polynomial {degree: coefficient}: sum_j c_j x^{p^j},
    expanded monomial by monomial, zero coefficients dropped."""
    K = F.field
    out = {}
    for j, c in F.coeffs:
        pj = K.p ** j
        for k, v in x_poly.items():
            out[k * pj] = K.add(out.get(k * pj, 0), K.mul(c, K.pow(v, pj)))
    return {k: v for k, v in out.items() if v != 0}


def slab_search_direct(F, delta, target):
    """Evaluate F at every x = sum_{k <= delta} x_k w^k, in product order of
    (x_0, ..., x_delta), and compare with the w-polynomial `target`.
    Returns the number of candidates, or raises SolutionFound at the first
    solution with the message the library's search gives."""
    checked = 0
    for coeffs in product(range(F.field.q), repeat=delta + 1):
        x_poly = {k: c for k, c in enumerate(coeffs) if c != 0}
        checked += 1
        if w_poly_of_additive(F, x_poly) == target:
            raise SolutionFound(
                f"projected equation has the solution {x_poly}; "
                "no certificate exists")
    return checked


# -- finite field addition, digit by digit ---------------------------------

# An element of F_{p^s} is the int sum c_i p^i of its coefficients, so
# addition and negation act on each base-p digit mod p, with no carries.
# This needs neither the modulus nor any table.


def field_digit_add(p, s, a, b):
    out, mult = 0, 1
    for _ in range(s):
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        out += (ra + rb) % p * mult
        mult *= p
    return out


def field_digit_neg(p, s, a):
    out, mult = 0, 1
    for _ in range(s):
        a, r = divmod(a, p)
        out += -r % p * mult
        mult *= p
    return out


# -- the ramified order in digit form ---------------------------------------
#
# The order W(F_q)[pi], pi^s = p, x pi = pi x^{sigma^r}, mod pi^N, computed
# the way the digit-form implementation did: Teichmuller pi-digit tuples
# in, through s coefficients in W_{ceil(N/s)+1}(F_q), digit tuples out.
# Only WittRing's public API is used.


def _ramified_witt(field, N):
    from slopelab.arith.witt import witt_make
    return witt_make(field, -(-N // field.s) + 1)


def _digits_to_coeffs(field, N, digs):
    w, s = _ramified_witt(field, N), field.s
    out = [w.zero()] * s
    for j, beta in enumerate(digs):
        if beta:
            k, t = j % s, j // s
            out[k] = w.add(out[k], w.scalar_mul(field.p ** t, w.teichmuller(beta)))
    return out


def _coeffs_to_digits(field, N, coeffs):
    w, s = _ramified_witt(field, N), field.s
    digs = [0] * N
    for k, c in enumerate(coeffs):
        for t, d in enumerate(w.digits(c)):
            if k + s * t < N:
                digs[k + s * t] = d
    return tuple(digs)


def ramified_digit_add(field, r, N, a, b):
    w = _ramified_witt(field, N)
    ca, cb = _digits_to_coeffs(field, N, a), _digits_to_coeffs(field, N, b)
    return _coeffs_to_digits(field, N, [w.add(x, y) for x, y in zip(ca, cb)])


def ramified_digit_mul(field, r, N, a, b):
    """(sum pi^i a_i)(sum pi^j b_j) = sum pi^{i+j} a_i^{sigma^{rj}} b_j."""
    w, s, p = _ramified_witt(field, N), field.s, field.p
    ca, cb = _digits_to_coeffs(field, N, a), _digits_to_coeffs(field, N, b)
    out = [w.zero()] * s
    for j, bj in enumerate(cb):
        for i, ai in enumerate(ca):
            term = w.mul(w.sigma(ai, r * j), bj)
            term = w.scalar_mul(p ** ((i + j) // s), term)
            out[(i + j) % s] = w.add(out[(i + j) % s], term)
    return _coeffs_to_digits(field, N, out)


# -- unit-group commutators -------------------------------------------------


def group_commutator_class(ctx, x, y, n):
    """Class at level n+1 of the group commutator u v u^-1 v^-1, for
    u = 1 - pi<x> and v = 1 - pi^n<y>, formed with two Newton inverses.
    The class is read off [u, v] - 1 here rather than through
    slopelab.unitgroup.graded_class, which this module does not import."""
    u = ctx.sub(ctx.one(), ctx.teich_term(1, x))
    v = ctx.sub(ctx.one(), ctx.teich_term(n, y))
    comm = ctx.mul(ctx.mul(u, v), ctx.mul(ctx.inv(u), ctx.inv(v)))
    level, digit = ctx.leading(ctx.sub(comm, ctx.one()))
    if level is not None and level <= n:
        raise PreconditionError(f"[u, v] is not in level {n + 1}")
    return digit if level == n + 1 else 0
