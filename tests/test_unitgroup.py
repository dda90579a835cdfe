"""Graded unit filtration, power congruences, and generation checks."""

import itertools
import math
import random

import pytest

import slopelab.unitgroup as unitgroup
from oracles import group_commutator_class
from slopelab.arith.fields import field_make
from slopelab.arith.ramified import RamifiedOrder, order_over
from slopelab.arith.witt import WittRing
from slopelab.errors import (GuardExceeded, InternalCheckFailed,
                             PreconditionError)
from slopelab.unitgroup import (closure_compiled, closure_direct,
                                commutator_class, commutator_span,
                                generation_report, graded_class,
                                p2_power_report, pth_power_check,
                                quotient_order, standard_generators)

F9 = field_make(3, 2)


def ctx9(N=6):
    return order_over(F9, 1, N)


def random_elt(ctx, rng):
    return ctx.from_digits(tuple(rng.randrange(ctx.field.q)
                                 for _ in range(ctx.N)))


def test_graded_class_reads_leading_digit():
    ctx = ctx9()
    assert graded_class(ctx, ctx.teich_term(0, 5), 0) == 5
    u = ctx.add(ctx.one(), ctx.teich_term(2, 7))
    assert graded_class(ctx, u, 2) == 7
    assert graded_class(ctx, u, 1) == 0     # u lies deeper than level 1
    with pytest.raises(PreconditionError):
        graded_class(ctx, ctx.add(ctx.one(), ctx.teich_term(1, 1)), 2)
    with pytest.raises(PreconditionError):
        graded_class(ctx, ctx.teich_term(1, 1), 0)   # not a unit


def test_graded_class_is_a_homomorphism():
    ctx = ctx9()
    K = ctx.field
    rng = random.Random(2)
    for _ in range(40):
        a, b = rng.randrange(1, 9), rng.randrange(1, 9)
        u = ctx.teich_term(0, a)
        v = ctx.teich_term(0, b)
        assert graded_class(ctx, ctx.mul(u, v), 0) == K.mul(a, b)
        i = rng.randrange(1, 4)
        x, y = rng.randrange(9), rng.randrange(9)
        u = ctx.add(ctx.one(), ctx.teich_term(i, x))
        v = ctx.add(ctx.one(), ctx.teich_term(i, y))
        assert graded_class(ctx, ctx.mul(u, v), i) == K.add(x, y)


def test_commutator_classes_exhaustive():
    # commutator_class itself verifies the closed form on every call
    ctx = ctx9(4)
    for n in (1, 2):
        got = {commutator_class(ctx, x, y, n)
               for x in F9.elements() for y in F9.elements()}
        assert got == commutator_span(F9, 1, n)
    assert commutator_span(F9, 1, 1) == frozenset({0, 3, 6})
    assert commutator_span(F9, 1, 2) == frozenset(F9.elements())


def test_commutator_span_full_iff_s_does_not_divide():
    for p, s in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3)):
        K = field_make(p, s)
        full = frozenset(K.elements())
        for r in range(1, s):
            if __import__("math").gcd(r, s) != 1:
                continue
            for n in range(1, 2 * s + 1):
                span = commutator_span(K, r, n)
                if (n + 1) % s == 0:
                    assert len(span) == K.q // K.p, (p, s, r, n)
                else:
                    assert span == full, (p, s, r, n)


@pytest.mark.parametrize("p, s, r", [(3, 2, 1), (2, 3, 1), (2, 3, 2),
                                     (3, 3, 1), (3, 3, 2)])
def test_commutator_class_is_the_group_commutator_class(p, s, r):
    # uv - vu stands in for u v u^-1 v^-1 at every pair and depth
    K = field_make(p, s)
    ctx = order_over(K, r, s + 3)
    for n in range(1, s + 2):
        for x, y in itertools.product(K.elements(), repeat=2):
            assert commutator_class(ctx, x, y, n) == \
                group_commutator_class(ctx, x, y, n), (p, s, r, n, x, y)


def test_commutator_class_catches_a_shifted_closed_form(monkeypatch):
    closed_form = unitgroup._closed_form
    monkeypatch.setattr(unitgroup, "_closed_form", lambda K, *args:
                        K.add(closed_form(K, *args), 1))
    ctx = ctx9(4)
    for n in (1, 2):
        for x, y in itertools.product(F9.elements(), repeat=2):
            with pytest.raises(InternalCheckFailed):
                commutator_class(ctx, x, y, n)


@pytest.mark.parametrize("order", [lambda a, b: (b, a),
                                   lambda a, b: sorted((a, b))],
                         ids=["swapped", "commutative"])
def test_commutator_class_catches_a_wrong_product(monkeypatch, order):
    # a swapped product negates uv - vu and a commutative one makes it
    # vanish; at p = 3 either is caught exactly where the class is nonzero
    mul = RamifiedOrder.mul
    monkeypatch.setattr(RamifiedOrder, "mul",
                        lambda self, a, b: mul(self, *order(a, b)))
    ctx = ctx9(4)
    for n in (1, 2):
        for x, y in itertools.product(F9.elements(), repeat=2):
            if unitgroup._closed_form(F9, 1, x, y, n):
                with pytest.raises(InternalCheckFailed):
                    commutator_class(ctx, x, y, n)
            else:
                assert commutator_class(ctx, x, y, n) == 0


def test_commutator_class_catches_uv_minus_vu_starting_too_low(monkeypatch):
    # with b = pi<y> in place of pi^2<y>, uv - vu = ab - ba starts at level
    # 2 wherever the depth-1 class is nonzero; that raises even at pairs
    # whose depth-2 class is 0, so the digit comparison alone would pass
    monomial = unitgroup._monomial
    monkeypatch.setattr(unitgroup, "_monomial",
                        lambda ctx, j, x: monomial(ctx, 1, x))
    ctx = ctx9(4)
    early = [(x, y) for x, y in itertools.product(F9.elements(), repeat=2)
             if unitgroup._closed_form(F9, 1, x, y, 1)]
    assert any(unitgroup._closed_form(F9, 1, x, y, 2) == 0 for x, y in early)
    for x, y in early:
        with pytest.raises(InternalCheckFailed, match="uv - vu from level 2"):
            commutator_class(ctx, x, y, 2)


def test_commutator_needs_room():
    with pytest.raises(PreconditionError):
        commutator_class(ctx9(3), 1, 1, 2)


def test_pth_power_congruence_p3():
    ctx = ctx9(8)
    rng = random.Random(3)
    betas = [ctx.zero(), ctx.one()] + [random_elt(ctx, rng) for _ in range(3)]
    for n in (1, 2):
        for alpha in F9.elements():
            for beta in betas:
                assert pth_power_check(ctx, alpha, beta, n)


def test_pth_power_congruence_sampled_q25():
    K = field_make(5, 2)
    ctx = order_over(K, 1, 6)
    rng = random.Random(4)
    for _ in range(30):
        assert pth_power_check(ctx, rng.randrange(K.q), random_elt(ctx, rng), 1)


def test_p2_depth_one_fails_with_square_correction():
    rep = p2_power_report(3, 1)
    assert rep["holds"]
    assert rep["failing_alphas"] == list(range(1, 8))
    assert rep["level"] == 6


def test_p2_deeper_levels_pass():
    K = field_make(2, 3)
    ctx = order_over(K, 1, 11)
    for alpha in K.elements():
        assert pth_power_check(ctx, alpha, ctx.zero(), 2)


def test_p2_lifts_covering_0_1_s_still_generate():
    # the depth-one square anomaly does not stop lifts covering {0, 1, s}
    # from generating at p = 2, to depth 2s and to depth s + 1 at s = 5
    for s, r, n in ((3, 1, 6), (4, 1, 8), (5, 1, 6), (5, 2, 6)):
        rep = generation_report(field_make(2, s), r, n, [0, 1, s],
                                guard=10 ** 10)
        assert rep["generates"], (s, r, n)
        assert rep["order"] == (2 ** s - 1) * 2 ** (s * (n - 1))


def test_unit_group_reads_levels_without_teichmuller_digits(monkeypatch):
    # graded classes, congruences and echelon pivots read levels from the
    # slots; full digit expansions are for the edges only
    expanded = []
    digits = WittRing.digits
    monkeypatch.setattr(WittRing, "digits",
                        lambda self, a: expanded.append(a) or digits(self, a))
    for p, s, r in ((3, 2, 1), (2, 3, 1), (2, 3, 2)):
        K = field_make(p, s)
        ctx = order_over(K, r, s + 3)
        for n in range(1, s + 2):
            for x, y in itertools.product(K.elements(), repeat=2):
                commutator_class(ctx, x, y, n)
        depth = 1 if p >= 3 else 2
        pctx = order_over(K, r, (depth + 1) * s + 2)
        for alpha in K.elements():
            assert pth_power_check(pctx, alpha, pctx.one(), depth)
        if p == 2:
            assert p2_power_report(s)["holds"]
        assert closure_compiled(K, r, s + 1, [0, 1, s], 10 ** 6) \
            == (K.q - 1) * K.q ** s
    assert expanded == []


def test_quotient_order_shortcuts_agree_with_the_exact_comparison():
    # the s and n bit-length refusals never refuse an order within guard
    for p, s, n in itertools.product((2, 3, 5), range(1, 13), range(1, 5)):
        total = (p ** s - 1) * p ** (s * (n - 1))
        for guard in (0, 1, 10, 100, 10 ** 4, 10 ** 7):
            if total > guard:
                with pytest.raises(GuardExceeded):
                    quotient_order(p, s, n, guard)
            else:
                assert quotient_order(p, s, n, guard) == total
    with pytest.raises(GuardExceeded, match=r"\(3\^1000000000000 - 1\)"):
        quotient_order(3, 10 ** 12, 1, 10 ** 7)


def test_generation_echelon_equals_direct():
    # the direct closure multiplies slot tuples of O mod pi^n one at a time
    # and lists every state; the library's echelon lists none and must find the same
    # subgroup order: first on frozen cases, then on every covered set of
    # size <= 3 (with and without piece 0) of every small quotient
    F8, F27 = field_make(2, 3), field_make(3, 3)
    cases = [(F9, 1, 3, {0, 1}, 648), (F9, 1, 3, {0}, 8),
             (F8, 1, 1, {0}, 7), (F8, 1, 2, {0, 1}, 56),
             (F8, 1, 3, {0, 1}, 448), (F8, 1, 3, {0, 2}, 56),
             (F8, 1, 3, {1, 2}, 64),
             (F27, 2, 2, {0, 1}, 702), (F27, 2, 2, {0}, 26)]
    for K, r, n, covered, want in cases:
        ctx = order_over(K, r, n)
        direct = closure_direct(ctx, standard_generators(ctx, covered))
        rep = generation_report(K, r, n, covered)
        assert rep["order"] == direct == want, (K.q, r, n, covered)
        assert rep["generates"] == (direct == (K.q - 1) * K.q ** (n - 1))
    swept = 0
    for p, s in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4),
                 (3, 5), (5, 2), (5, 3), (5, 4)):
        K = field_make(p, s)
        for r in (r for r in range(1, s) if math.gcd(r, s) == 1):
            n = 1
            while (K.q - 1) * K.q ** (n - 1) <= 800:
                ctx = order_over(K, r, n)
                for size in range(4):
                    for covered in itertools.combinations(range(n), size):
                        direct = closure_direct(
                            ctx, standard_generators(ctx, covered))
                        rep = generation_report(K, r, n, covered)
                        assert rep["order"] == direct, (p, s, r, n, covered)
                        swept += 1
                n += 1
    assert swept == 155


def test_generation_depth_one_over_f2048():
    # s = 11: the residue generator alone fills G/G_1 = F_2048^x
    rep = generation_report(field_make(2, 11), 1, 1, [0])
    assert rep["order"] == 2047 and rep["generates"]


def test_residue_cover_alone_stalls_beyond_depth_one():
    assert generation_report(F9, 1, 1, {0})["generates"]
    assert not generation_report(F9, 1, 2, {0})["generates"]
    assert not generation_report(F9, 1, 3, {0})["generates"]


def test_generation_report_payload():
    rep = generation_report(F9, 1, 2, {0, 1})
    assert rep == {"q": 9, "lambda": "1/2", "n": 2, "covered": [0, 1],
                   "generates": True, "order": 72}


def test_generation_guard_and_bounds():
    with pytest.raises(GuardExceeded):
        generation_report(F9, 1, 3, {0, 1}, guard=100)
    with pytest.raises(GuardExceeded):
        generation_report(F9, 1, 8, {0}, guard=10 ** 4)   # |G/G_8| too big
    with pytest.raises(PreconditionError):
        generation_report(F9, 1, 2, {5})


def test_direct_closure_of_proper_subgroup():
    ctx = ctx9(2)
    gens = standard_generators(ctx, {1})
    # no residue generator, so everything stays in 1 + pi O: q^{n-1} states
    assert closure_direct(ctx, gens) == 9