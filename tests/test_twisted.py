import random

import pytest

from slopelab.arith import TwistedPoly, witt_for


def test_difference_of_squares_fails_to_commute():
    # (F - c)(F + c) = F^2 + (c^sigma - c) F - c^2, with a genuinely
    # nonzero middle coefficient whenever c is not sigma-fixed
    W = witt_for(3, 2, 3)
    c = W.teichmuller(W.field.generator())
    prod = TwistedPoly(W, {1: W.one(), 0: W.neg(c)}).mul(
        TwistedPoly(W, {1: W.one(), 0: c}))
    expect = TwistedPoly(W, {
        2: W.one(),
        1: W.sub(W.sigma(c), c),
        0: W.neg(W.mul(c, c)),
    })
    assert prod == expect
    assert prod.coeff(1) != W.zero()


def test_left_multiplication_by_powers_of_f():
    W = witt_for(2, 3, 2)
    a = W.teichmuller(W.field.generator())
    for k in range(1, 7):
        lhs = TwistedPoly(W, {k: W.one()}).mul(TwistedPoly(W, {0: a}))
        assert lhs == TwistedPoly(W, {k: W.sigma(a, k)})


def test_associative_random():
    W = witt_for(3, 2, 2)
    rng = random.Random(21)

    def rnd():
        return TwistedPoly(W, {
            k: W.from_digits([rng.randrange(9), rng.randrange(9)])
            for k in rng.sample(range(5), 3)
        })

    def plus(f, g):
        return TwistedPoly(W, {k: W.add(f.coeff(k), g.coeff(k))
                               for k in f.coeffs.keys() | g.coeffs.keys()})

    for _ in range(25):
        a, b, c = rnd(), rnd(), rnd()
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(plus(b, c)) == plus(a.mul(b), a.mul(c))


def test_degree_and_ord_map():
    W = witt_for(3, 1, 4)
    poly = TwistedPoly(W, {3: W.one(), 1: W.from_int(9), 0: W.from_int(27)})
    assert poly.degree() == 3
    assert poly.ord_map() == {3: 0, 1: 2, 0: 3}
    assert TwistedPoly(W, {}).degree() is None


def test_symbol_twist_is_the_f_commutation():
    # F^2 <a> = <a^{p^2}> F^2: the twist a deformation parameter carries
    # is the power of sigma that its Teichmuller lift picks up; over F_27
    # the twist by sigma^2 moves the generator
    W = witt_for(3, 3, 3)
    a = W.field.generator()
    prod = TwistedPoly(W, {2: W.one()}).mul(
        TwistedPoly(W, {0: W.teichmuller(a)}))
    twisted = W.teichmuller(W.field.frobenius(a, 2))
    assert twisted != W.teichmuller(a)
    assert prod == TwistedPoly(W, {2: twisted})
