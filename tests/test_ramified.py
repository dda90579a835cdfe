from fractions import Fraction

import random

import pytest

from slopelab.arith import field_make, order_make, order_over


def test_twist_rule_lam_half_q4():
    O = order_make(1, 2, 2)
    F = O.field
    om = F.generator()
    lhs = O.mul(O.teich_term(0, om), O.uniformizer())
    rhs = O.mul(O.uniformizer(), O.teich_term(0, F.frobenius(om, 1)))
    assert lhs == rhs


def test_twist_rule_lam_third_and_two_thirds_q27():
    F = field_make(3, 3)
    x = F.generator()
    for r in (1, 2):
        O = order_over(F, r)
        lhs = O.mul(O.teich_term(0, x), O.uniformizer())
        rhs = O.mul(O.uniformizer(), O.teich_term(0, F.frobenius(x, r)))
        assert lhs == rhs
        # and it really is twisted: the untwisted products differ
        assert lhs != O.mul(O.uniformizer(), O.teich_term(0, x))


def test_uniformizer_power_is_p():
    for r, s, p in [(1, 2, 2), (1, 3, 3), (2, 3, 3), (1, 2, 3), (3, 4, 2)]:
        O = order_make(r, s, p)
        assert O.pow(O.uniformizer(), s) == O.from_int(p)


def test_scalars_are_central():
    O = order_make(2, 3, 3)
    F = O.field
    rng = random.Random(11)
    for n in (2, 3, 7):
        c = O.from_int(n)
        for _ in range(10):
            a = O.from_digits([rng.randrange(F.q) for _ in range(O.N)])
            assert O.mul(c, a) == O.mul(a, c)


def test_ring_axioms_random():
    rng = random.Random(12)
    for r, s, p, N in [(1, 2, 2, 6), (1, 3, 3, 5), (2, 3, 3, 6)]:
        O = order_make(r, s, p, N=N)
        q = O.field.q
        for _ in range(40):
            a = O.from_digits([rng.randrange(q) for _ in range(N)])
            b = O.from_digits([rng.randrange(q) for _ in range(N)])
            c = O.from_digits([rng.randrange(q) for _ in range(N)])
            assert O.add(a, b) == O.add(b, a)
            assert O.mul(O.mul(a, b), c) == O.mul(a, O.mul(b, c))
            assert O.mul(a, O.add(b, c)) == O.add(O.mul(a, b), O.mul(a, c))
            assert O.mul(O.add(b, c), a) == O.add(O.mul(b, a), O.mul(c, a))
            assert O.add(a, O.neg(a)) == O.zero()
            assert O.mul(a, O.one()) == a and O.mul(O.one(), a) == a


def test_valuation():
    O = order_make(1, 3, 3)
    assert O.val(O.uniformizer()) == Fraction(1, 3)
    assert O.val(O.from_int(3)) == 1
    assert O.val(O.from_int(9)) == 2
    assert O.val(O.zero()) is None
    assert O.val(O.one()) == 0
    rng = random.Random(13)
    q, N = O.field.q, O.N
    for _ in range(50):
        a = O.from_digits([rng.randrange(q) for _ in range(N)])
        b = O.from_digits([rng.randrange(q) for _ in range(N)])
        va, vb = O.val(a), O.val(b)
        if va is None or vb is None:
            continue
        if va + vb < Fraction(N, 3):
            assert O.val(O.mul(a, b)) == va + vb


def test_unit_inverse_and_nonunit_rejection():
    rng = random.Random(14)
    for r, s, p in [(1, 2, 2), (2, 3, 3)]:
        O = order_make(r, s, p)
        q = O.field.q
        for _ in range(30):
            a = O.from_digits(
                [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(O.N - 1)])
            ai = O.inv(a)
            assert O.mul(a, ai) == O.one()
            assert O.mul(ai, a) == O.one()
        with pytest.raises(ZeroDivisionError):
            O.inv(O.uniformizer())


def test_commutator_of_units_is_unit():
    O = order_make(1, 2, 3)
    rng = random.Random(15)
    q = O.field.q
    for _ in range(20):
        a = O.from_digits([rng.randrange(1, q)] + [rng.randrange(q) for _ in range(O.N - 1)])
        b = O.from_digits([rng.randrange(1, q)] + [rng.randrange(q) for _ in range(O.N - 1)])
        c = O.commutator(a, b, O.inv(a), O.inv(b))
        assert O.residue(c) != 0


def test_digit_form_is_canonical():
    O = order_make(1, 2, 2)
    digs = (1, 3, 0, 2, 1, 0, 0, 3)
    assert O.digits(O.from_digits(digs)) == digs
    # the digit edge always returns full length tuples of field elements
    out = O.digits(O.mul(O.from_digits(digs), O.from_digits(digs)))
    assert len(out) == O.N and all(0 <= d < O.field.q for d in out)


def test_negative_power_raises():
    O = order_make(1, 2, 2)
    with pytest.raises(ValueError):
        O.pow(O.one(), -1)


def test_slope_preconditions():
    with pytest.raises(ValueError):
        order_make(2, 4, 3)
    with pytest.raises(ValueError):
        order_make(3, 2, 3)


def test_order_over_refuses_r_at_least_s():
    # the same check as order_make: no order of slope 4/3, 5/3 or 1/1
    K = field_make(3, 3)
    for r in (4, 5):
        with pytest.raises(ValueError, match="outside"):
            order_over(K, r)
    with pytest.raises(ValueError, match="outside"):
        order_over(field_make(3, 1), 1)
