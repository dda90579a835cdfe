import random

import pytest

from slopelab.arith import (
    SymCoeffOps,
    TwistedPoly,
    witt_for,
)


def test_difference_of_squares_fails_to_commute():
    # (F - c)(F + c) = F^2 + (c^sigma - c) F - c^2, with a genuinely
    # nonzero middle coefficient whenever c is not sigma-fixed
    W = witt_for(3, 2, 3)
    ops = W
    c = W.teichmuller(W.field.generator())
    prod = TwistedPoly(ops, {1: W.one(), 0: W.neg(c)}).mul(
        TwistedPoly(ops, {1: W.one(), 0: c}))
    expect = TwistedPoly(ops, {
        2: W.one(),
        1: W.sub(W.sigma(c), c),
        0: W.neg(W.mul(c, c)),
    })
    assert prod == expect
    assert prod.coeff(1) != W.zero()


def test_left_multiplication_by_powers_of_f():
    W = witt_for(2, 3, 2)
    ops = W
    a = W.teichmuller(W.field.generator())
    for k in range(1, 7):
        lhs = TwistedPoly(ops, {k: W.one()}).mul(TwistedPoly(ops, {0: a}))
        assert lhs == TwistedPoly(ops, {k: W.sigma(a, k)})


def test_associative_random():
    W = witt_for(3, 2, 2)
    ops = W
    rng = random.Random(21)

    def rnd():
        return TwistedPoly(ops, {
            k: W.from_digits([rng.randrange(9), rng.randrange(9)])
            for k in rng.sample(range(5), 3)
        })

    for _ in range(25):
        a, b, c = rnd(), rnd(), rnd()
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


def test_degree_and_ord_map():
    W = witt_for(3, 1, 4)
    ops = W
    poly = TwistedPoly(ops, {3: W.one(), 1: W.from_int(9), 0: W.from_int(27)})
    assert poly.degree() == 3
    assert poly.ord_map() == {3: 0, 1: 2, 0: 3}
    assert TwistedPoly.zero(ops).degree() is None


def test_symbolic_coefficients():
    W = witt_for(3, 2, 3)
    ops = SymCoeffOps(W)
    u = ops.symbol("u", p_exp=1, twist=2)
    v = ops.symbol("v")
    w = ops.add(u, v)
    assert len(w.terms) == 2
    assert ops.ord(w) == 0          # v contributes p^0
    assert ops.ord(u) == 1
    assert ops.ord(ops.zero()) is None

    lifted = ops.lift(W.from_int(9))
    total = ops.add(lifted, u)
    assert ops.ord(total) == 1      # min(ord 9 = 2, p_exp 1)

    # a term and its negation cancel, and neg flips every sign
    assert ops.is_zero(ops.add(u, ops.neg(u)))
    assert [t.sign for t in ops.neg(w).terms] == [-1, -1]
    assert ops.add(total, ops.neg(u)) == lifted


def test_symbol_twist_is_the_f_commutation():
    # F^2 <u> = <u>^{sigma^2} F^2: the twist a symbol carries is the
    # power of sigma its specialization picks up
    W = witt_for(3, 2, 3)
    ops = SymCoeffOps(W)
    a = W.field.generator()
    u = ops.specialize(ops.symbol("u"), {"u": a})
    prod = TwistedPoly(W, {2: W.one()}).mul(TwistedPoly(W, {0: u}))
    twisted = ops.specialize(ops.symbol("u", twist=2), {"u": a})
    assert prod == TwistedPoly(W, {2: twisted})


def test_specialize_lifts_each_symbol_in_the_base_ring():
    W = witt_for(3, 2, 3)
    K, ops = W.field, SymCoeffOps(W)
    a = K.generator()
    assert ops.specialize(ops.symbol("u"), {"u": 1}) == W.one()
    # 1 + p <u>^sigma - <v>: each symbol becomes its signed, p-scaled and
    # twisted Teichmuller lift; a zero value drops the term
    coeff = ops.add(ops.add(ops.lift(W.one()), ops.symbol("u", 1, 1)),
                    ops.neg(ops.symbol("v")))
    want = W.sub(W.add(W.one(), W.scalar_mul(3, W.teichmuller(K.frobenius(a)))),
                 W.teichmuller(a))
    assert ops.specialize(coeff, {"u": a, "v": a}) == want
    assert ops.specialize(coeff, {"u": 0, "v": 0}) == W.one()
