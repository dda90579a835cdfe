import random
from collections import namedtuple

import pytest

from slopelab.arith import field_make, witt_for, witt_make
from slopelab.arith.witt import WittRing
from slopelab.errors import InternalCheckFailed

ReducibleField = namedtuple("ReducibleField", "p s q modulus")


def test_digits_of_two_in_length_two_over_f2():
    W = witt_for(2, 1, 2)
    assert W.digits(W.from_int(2)) == (0, 1)


def test_sigma_fixes_scalars():
    W = witt_for(3, 2, 3)
    assert W.sigma(W.from_int(5), 1) == W.from_int(5)
    for n in range(27):
        assert W.sigma(W.from_int(n)) == W.from_int(n)


def test_teichmuller_sum_in_w2_f4():
    # omega and omega^2 are the two generators of F_4^*; their Teichmuller
    # lifts sum to the scalar 3 = -1 mod 4, digit expansion (1, 1)
    F = field_make(2, 2)
    W = witt_make(F, 2)
    om = F.generator()
    total = W.add(W.teichmuller(om), W.teichmuller(F.mul(om, om)))
    assert total == W.from_int(3)
    assert W.digits(total) == (1, 1)


def test_teichmuller_is_multiplicative_and_fixed_by_qth_power():
    for p, s in [(2, 2), (3, 2), (2, 3)]:
        F = field_make(p, s)
        W = witt_make(F, 3)
        for a in F.units():
            ta = W.teichmuller(a)
            assert W.pow(ta, F.q) == ta
            assert W.residue(ta) == a
            for b in F.units():
                assert W.mul(ta, W.teichmuller(b)) == W.teichmuller(F.mul(a, b))


def test_sigma_is_ring_map_of_order_s():
    rng = random.Random(2)
    for p, s, m in [(2, 2, 3), (3, 2, 2), (2, 3, 2)]:
        F = field_make(p, s)
        W = witt_make(F, m)
        for a in F.elements():
            assert W.sigma(W.teichmuller(a)) == W.teichmuller(F.frobenius(a, 1))
        for _ in range(40):
            x = tuple(rng.randrange(W.pm) for _ in range(s))
            y = tuple(rng.randrange(W.pm) for _ in range(s))
            assert W.sigma(W.add(x, y)) == W.add(W.sigma(x), W.sigma(y))
            assert W.sigma(W.mul(x, y)) == W.mul(W.sigma(x), W.sigma(y))
            assert W.sigma(x, s) == x


def test_ring_axioms_random():
    rng = random.Random(3)
    for p, s, m in [(2, 2, 3), (3, 2, 3), (5, 1, 3)]:
        F = field_make(p, s)
        W = witt_make(F, m)
        for _ in range(60):
            x = tuple(rng.randrange(W.pm) for _ in range(s))
            y = tuple(rng.randrange(W.pm) for _ in range(s))
            z = tuple(rng.randrange(W.pm) for _ in range(s))
            assert W.add(x, y) == W.add(y, x)
            assert W.mul(x, y) == W.mul(y, x)
            assert W.add(W.add(x, y), z) == W.add(x, W.add(y, z))
            assert W.mul(W.mul(x, y), z) == W.mul(x, W.mul(y, z))
            assert W.mul(x, W.add(y, z)) == W.add(W.mul(x, y), W.mul(x, z))
            assert W.add(x, W.neg(x)) == W.zero()
            assert W.mul(x, W.one()) == x


def test_digit_round_trip_and_ord():
    rng = random.Random(4)
    for p, s, m in [(2, 2, 3), (3, 2, 2), (3, 3, 2)]:
        F = field_make(p, s)
        W = witt_make(F, m)
        for _ in range(60):
            digs = tuple(rng.randrange(F.q) for _ in range(m))
            x = W.from_digits(digs)
            assert W.digits(x) == digs
            want = next((i for i, d in enumerate(digs) if d), None)
            assert W.ord(x) == want
        assert W.ord(W.zero()) is None
        assert W.ord(W.from_int(p)) == 1
        assert W.ord(W.one()) == 0


def test_inverse_of_units():
    rng = random.Random(5)
    for p, s, m in [(2, 2, 3), (3, 2, 3)]:
        F = field_make(p, s)
        W = witt_make(F, m)
        for _ in range(40):
            digs = [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(m - 1)]
            x = W.from_digits(digs)
            assert W.mul(x, W.inv(x)) == W.one()
        with pytest.raises(ZeroDivisionError):
            W.inv(W.from_int(p))


def test_from_int_is_a_ring_map():
    W = witt_for(3, 2, 3)
    for a in range(0, 30, 7):
        for b in range(0, 30, 5):
            assert W.add(W.from_int(a), W.from_int(b)) == W.from_int(a + b)
            assert W.mul(W.from_int(a), W.from_int(b)) == W.from_int(a * b)


def test_precision_tower_consistency():
    # digit expansions agree under truncation between precisions
    F = field_make(3, 2)
    W3, W2 = witt_make(F, 3), witt_make(F, 2)
    rng = random.Random(6)
    for _ in range(30):
        digs = tuple(rng.randrange(9) for _ in range(3))
        x3 = W3.from_digits(digs)
        x2 = W2.from_digits(digs[:2])
        s3 = W3.digits(W3.mul(x3, x3))
        s2 = W2.digits(W2.mul(x2, x2))
        assert s3[:2] == s2


# Each proof check below raises explicitly, so python -O keeps it.  A ring
# built on a modulus that is not the canonical Teichmuller lift (or a field
# spec on a reducible polynomial) is the only way to reach them.


def test_pow_rejects_negative_exponent():
    W = witt_for(2, 2, 2)
    with pytest.raises(ValueError):
        W.pow(W.one(), -1)


def test_inverse_check_raises_on_foreign_modulus():
    # x^3 + x^2 + 1 is irreducible but is not the modulus of F_8, so the
    # field's residue inverse is no inverse in this ring
    F8 = field_make(2, 3)
    W = WittRing(F8, 3, (1, 0, 1, 1))
    with pytest.raises(InternalCheckFailed):
        W.inv((0, 1, 0))


def test_teichmuller_check_raises_when_iteration_cycles():
    # mod x^3 + 1 = (x + 1)(x^2 + x + 1), z -> z^8 swaps omega and omega^2
    W = WittRing(field_make(2, 3), 2, (1, 0, 0, 1))
    with pytest.raises(InternalCheckFailed):
        W.teichmuller(2)


def test_digits_check_raises_when_lift_loses_residue():
    # mod x^2 the lift of x iterates to 0, whose residue is not x
    W = WittRing(field_make(2, 2), 2, (0, 0, 1))
    with pytest.raises(InternalCheckFailed):
        W.digits((0, 1))


@pytest.mark.parametrize("p, modulus, why", [
    (2, (1, 0, 0, 1), "Teichmuller generator diverged"),
    (2, (0, 1, 1), "not a scalar"),
    (2, (0, 0, 1), "not Teichmuller"),
])
def test_canonical_modulus_checks_raise_on_reducible_field(p, modulus, why):
    # FieldSpec rejects these moduli, so the Witt checks get a stand-in with
    # the only field attributes they read
    s = len(modulus) - 1
    field = ReducibleField(p, s, p ** s, modulus)
    with pytest.raises(InternalCheckFailed, match=why):
        witt_make(field, 2)

