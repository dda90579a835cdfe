"""Unit filtration of a ramified slope order and its finite quotients.

G = O^x filters by G_i = 1 + pi^i O.  The leading-digit maps identify
G_0/G_1 with F_q^x and G_i/G_{i+1} with F_q^+ for i >= 1, so
|G/G_n| = (q-1) q^{n-1}.  This module computes graded classes, checks the
p-th-power congruence

    (1 + pi^{ns}<a> + pi^{ns+1} b)^p  ==  1 + pi^{(n+1)s}<a>   (mod higher)

and decides whether lifts covering a chosen set of graded pieces generate
all of G/G_n; commutator classes are read from uv - vu = ab - ba, for
u = 1 - a and v = 1 - b, so each product multiplies two pi-monomials and
no inverse is formed.

G/G_n is the unit group of the order context O mod pi^n, whose slot tuples
are canonical; graded classes read levels and leading digits through
RamifiedOrder.leading (residue at level 0), so no Teichmuller digit is
expanded here.

Generation is decided by a filtered echelon on that context
(closure_compiled): an induced polycyclic sequence for H cap G_1, one F_p
echelon of leading classes per level, so no element of the quotient is
listed and |H| comes out as |<t>| * p^(sum of ranks).  The direct closure
(closure_direct) lists every element of H, multiplying slot tuples one at
a time; it is the independent reference the tests compare against.
"""

from __future__ import annotations

from functools import lru_cache

from .arith.fields import FieldSpec, field_make
from .arith.ramified import RamifiedOrder, order_over
from .errors import GuardExceeded, InternalCheckFailed, PreconditionError


# -- graded pieces --------------------------------------------------------


def graded_class(ctx: RamifiedOrder, u, i: int) -> int:
    """Leading digit of u at filtration level i.

    Level 0 reads the residue of u itself (a unit, value in F_q^x); level
    i >= 1 requires u = 1 mod pi^i and reads digit i of u - 1 (value in
    F_q^+).
    """
    if i < 0 or i >= ctx.N:
        raise PreconditionError(f"level {i} outside truncation {ctx.N}")
    if i == 0:
        res = ctx.residue(u)
        if res == 0:
            raise PreconditionError("not a unit")
        return res
    level, digit = ctx.leading(ctx.sub(u, ctx.one()))
    if level is not None and level < i:
        raise PreconditionError(f"element is not in level {i} of the filtration")
    return digit if level == i else 0


@lru_cache(maxsize=4096)
def _monomial(ctx: RamifiedOrder, j: int, x: int) -> tuple:
    """pi^j<x>, cached per order context: one nonzero slot."""
    return ctx.teich_term(j, x)


def _closed_form(K: FieldSpec, r: int, x: int, y: int, n: int) -> int:
    """x^{tau^n} y - y^tau x, tau = sigma^r the slope Frobenius: the class
    at level n+1 of [1 - pi<x>, 1 - pi^n<y>]."""
    return K.sub(K.mul(K.frobenius(x, r * n), y), K.mul(K.frobenius(y, r), x))


def commutator_class(ctx: RamifiedOrder, x: int, y: int, n: int) -> int:
    """Class at level n+1 of [1 - pi<x>, 1 - pi^n<y>].

    Computed exactly in O mod pi^N, N >= n + 2, and checked against the
    closed form x^{tau^n} y - y^tau x, tau the slope Frobenius.  For units
    u, v with vu = 1 mod pi, [u, v] - 1 = (uv - vu)(vu)^-1 and (vu)^-1 = 1
    mod pi, so the class is the level-(n+1) digit of uv - vu: no inverse
    (docs/certificates.md has the proof).  With u = 1 - a, a = pi<x>, and
    v = 1 - b, b = pi^n<y>, the 1s and the linear terms cancel and
    uv - vu = ab - ba exactly, so both products take one-slot operands.
    """
    if ctx.N < n + 2:
        raise PreconditionError(f"need truncation >= {n + 2}, have {ctx.N}")
    if n < 1:
        raise PreconditionError("need n >= 1")
    a, b = _monomial(ctx, 1, x), _monomial(ctx, n, y)
    level, digit = ctx.leading(ctx.sub(ctx.mul(a, b), ctx.mul(b, a)))
    got = digit if level == n + 1 else 0
    expect = _closed_form(ctx.field, ctx.r, x, y, n)
    if got != expect or level is not None and level <= n:
        raise InternalCheckFailed(
            f"commutator class at depth {n} of x={x}, y={y} is {got} "
            f"(uv - vu from level {level}), closed form gives {expect}")
    return got


def commutator_span(field: FieldSpec, r: int, n: int) -> frozenset:
    """The value set {x^{tau^n} y - y^tau x}; equals F_q when s does not
    divide n+1."""
    return frozenset(_closed_form(field, r, x, y, n)
                     for x in field.elements() for y in field.elements())


def pth_power_check(ctx: RamifiedOrder, alpha: int, beta, n: int) -> bool:
    """Does (1 + pi^{ns}<alpha> + pi^{ns+1} beta)^p lie in
    1 + pi^{(n+1)s}<alpha> + G_{(n+1)s+1}?"""
    s, p = ctx.s, ctx.field.p
    level = (n + 1) * s
    if ctx.N < level + 2:
        raise PreconditionError(f"need truncation >= {level + 2}, have {ctx.N}")
    if n < 1:
        raise PreconditionError("need n >= 1")
    u = ctx.add(ctx.one(), ctx.teich_term(n * s, alpha))
    u = ctx.add(u, ctx.mul(ctx.teich_term(n * s + 1, 1), beta))
    w = ctx.pow(u, p)
    target = ctx.add(ctx.one(), ctx.teich_term(level, alpha))
    lead = ctx.leading(ctx.sub(w, target))[0]
    return lead is None or lead > level


def p2_power_report(s: int, n: int = 1, seed: int = 0) -> dict:
    """Machine-checked record of how the p-th-power congruence behaves at
    p = 2: at depth n = 1 the square contributes an extra <alpha>^2 at
    level 2s, so the observed class is alpha + alpha^2 instead of alpha.
    The data is reported, not asserted away: `holds` says whether every
    alpha follows that law, and `failing_alphas` lists the alpha whose
    class is not alpha.
    """
    K = field_make(2, s, seed)
    ctx = order_over(K, 1, (n + 1) * s + 2)
    level = (n + 1) * s
    holds, failing = True, []
    for alpha in K.elements():
        # w - 1 = pi^{(n+1)s}<alpha> + pi^{2ns}<alpha^2>, as 2 = pi^s
        w = ctx.pow(ctx.add(ctx.one(), ctx.teich_term(n * s, alpha)), 2)
        observed = graded_class(ctx, w, level)
        holds &= observed == K.add(alpha, K.mul(alpha, alpha))
        if observed != alpha:
            failing.append(alpha)
    return {"level": level, "observed_law": "alpha + alpha^2",
            "holds": holds, "failing_alphas": failing}


# -- the finite quotient G/G_n -------------------------------------------


def standard_generators(ctx: RamifiedOrder, covered) -> list:
    """Lifts realizing the full graded image at each covered piece:
    a Teichmuller generator for piece 0, 1 + pi^i <b> over an F_p-basis
    of F_q for pieces i >= 1."""
    K = ctx.field
    gens = []
    basis = [K.p ** k for k in range(K.s)]    # coordinate basis elements
    for i in sorted(covered):
        if i == 0:
            gens.append(ctx.teich_term(0, K.generator()))
        else:
            for b in basis:
                gens.append(ctx.add(ctx.one(), ctx.teich_term(i, b)))
    return gens


def closure_direct(ctx: RamifiedOrder, gens) -> int:
    """|H| for H the subgroup of G/G_n, n = ctx.N, generated by gens: a
    breadth-first closure under right multiplication that lists every
    element.  Slot tuples are canonical mod pi^n, so they are the states."""
    one = ctx.one()
    seen = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = ctx.mul(u, g)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen)


def _leading(ctx: RamifiedOrder, u):
    """((level, coordinate), coefficient) of the leading F_p-coordinate of
    u's class: level i and digit d are ctx.leading(u - 1), and d is read
    as a vector in F_p^s.  (None, 0) when u = 1."""
    i, d = ctx.leading(ctx.sub(u, ctx.one()))
    if i is None:
        return None, 0
    j, c = next((j, c) for j, c in enumerate(ctx.field.coeffs(d)) if c)
    return (i, j), c


def closure_compiled(field: FieldSpec, r: int, n: int, covered,
                     guard: int) -> int:
    """|H| for H the subgroup of G/G_n generated by
    standard_generators(covered), without listing its elements.

    Builds an induced polycyclic sequence for H cap G_1: an F_p echelon of
    leading classes on every level, closed under p-th powers, commutators
    and conjugation by the Teichmuller generator t.  Then
    |H| = |<t>| * p^(echelon size); docs/certificates.md has the proof.
    Raises GuardExceeded iff |H| > guard.
    """
    ctx = order_over(field, r, n)
    p, one = field.p, ctx.one()
    gens = standard_generators(ctx, covered)
    t = gens.pop(0) if 0 in covered else None
    if t is not None:
        if ctx.residue(t) != field.generator() or ctx.pow(t, field.q - 1) != one:
            raise InternalCheckFailed(
                f"level-0 generator of {ctx!r} does not have order q - 1")
        t_inv = ctx.inv(t)
    echelon = {}    # (level, pivot coordinate) -> (pivot coefficient, inverse)
    found = []      # (element, inverse) in the order they joined the echelon
    queue = gens
    while queue:
        u = queue.pop()
        key, c = _leading(ctx, u)
        while key in echelon:
            lead, b_inv = echelon[key]
            u = ctx.mul(u, ctx.pow(b_inv, c * pow(lead, -1, p) % p))
            key, c = _leading(ctx, u)
        if key is None:
            continue
        u_inv = ctx.inv(u)
        echelon[key] = (c, u_inv)
        queue.append(ctx.pow(u, p))
        queue.extend(ctx.commutator(u, f, u_inv, f_inv) for f, f_inv in found)
        if t is not None:
            queue.append(ctx.mul(ctx.mul(t, u), t_inv))
        found.append((u, u_inv))
    size = (field.q - 1 if t is not None else 1) * p ** len(echelon)
    if size > guard:
        raise GuardExceeded(f"closure exceeded guard {guard}")
    return size


def quotient_order(p: int, s: int, n: int, guard: int) -> int:
    """|G/G_n| = (q - 1) q^(n-1) for q = p^s; GuardExceeded if it exceeds
    guard, without forming p^s or q^(n-1) when s or n alone decides that.
    Needs no field, so a caller can refuse before building one."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    if s > 2 * guard.bit_length():          # q - 1 >= 2^s - 1 > guard^2
        raise GuardExceeded(f"|G/G_n| = ({p}^{s} - 1)*{p}^{s * (n - 1)} "
                            f"exceeds guard {guard}")
    q = p ** s
    if n - 1 > guard.bit_length():          # q^(n-1) >= 2^(n-1) > guard
        raise GuardExceeded(f"|G/G_n| = {q - 1}*{q}^{n - 1} "
                            f"exceeds guard {guard}")
    total = (q - 1) * q ** (n - 1)
    if total > guard:
        raise GuardExceeded(f"|G/G_n| = {total} exceeds guard {guard}")
    return total


def generation_report(field: FieldSpec, r: int, n: int, covered,
                      guard: int = 10 ** 7) -> dict:
    """Order of the subgroup of G/G_n, G the units of the slope r/s order
    over `field`, generated by lifts covering the chosen graded pieces,
    compared against |G/G_n|."""
    total = quotient_order(field.p, field.s, n, guard)
    covered = sorted(set(covered))
    if any(i < 0 or i >= n for i in covered):
        raise PreconditionError(f"covered pieces must lie in [0, {n})")
    size = closure_compiled(field, r, n, covered, guard)
    return {
        "q": field.q,
        "lambda": f"{r}/{field.s}",
        "n": n,
        "covered": covered,
        "generates": size == total,
        "order": size,
    }
