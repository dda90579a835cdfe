"""The slot form of the ramified order against the digit-form reference,
and property tests for the ring laws it must satisfy."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import slopelab.arith.ramified as ramified
from oracles import ramified_digit_add, ramified_digit_mul
from slopelab.arith import order_make

# (r, s, p, N): p = 2, r > 1, N not a multiple of s, N < s (slots whose
# modulus is 1), s = 7, p = 7 and a large p^m (3^14) are all covered
SHAPES = [(1, 2, 2, 5), (1, 3, 2, 7), (2, 3, 3, 5), (1, 2, 5, 4),
          (3, 4, 2, 3), (2, 5, 2, 4), (1, 3, 3, 6), (2, 7, 3, 8),
          (1, 3, 7, 9), (1, 3, 3, 40)]
ORDERS = [order_make(r, s, p, N=N) for r, s, p, N in SHAPES]

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


def random_digits(O, rng):
    return tuple(rng.randrange(O.field.q) for _ in range(O.N))


def first_nonzero(digs):
    """(index, digit) of the first nonzero digit; (None, 0) if none."""
    return next(((j, d) for j, d in enumerate(digs) if d), (None, 0))


def test_leading_and_val_match_the_first_nonzero_digit():
    # zero, random elements, and an element whose first nonzero digit
    # sits at each level j < N
    rng = random.Random(5)
    for O in ORDERS:
        cases = [(0,) * O.N] + [random_digits(O, rng) for _ in range(10)]
        for j in range(O.N):
            tail = random_digits(O, rng)[j + 1:]
            cases.append((0,) * j + (rng.randrange(1, O.field.q),) + tail)
        for digs in cases:
            a = O.from_digits(digs)
            level, digit = first_nonzero(digs)
            assert O.leading(a) == (level, digit), digs
            assert O.val(a) == (None if level is None
                                else Fraction(level, O.s)), digs


def test_witt_ord_matches_the_first_nonzero_digit():
    # the slots of the orders above, zero, and coordinate tuples divisible
    # by exactly p^t or more, for every t < m
    rng = random.Random(6)
    for O in ORDERS:
        W, p = O.witt, O.field.p
        cases = [W.zero()] + [c for _ in range(10)
                              for c in O.from_digits(random_digits(O, rng))]
        for t in range(W.m):
            cases += [tuple(p ** t * rng.randrange(W.pm) % W.pm
                            for _ in range(O.s)) for _ in range(5)]
            cases.append(W.from_digits([0] * t + [rng.randrange(1, O.field.q)]
                                       + [rng.randrange(O.field.q)
                                          for _ in range(W.m - t - 1)]))
        for c in cases:
            assert W.ord(c) == first_nonzero(W.digits(c))[0], c


def test_slot_arithmetic_matches_digit_form_reference():
    rng = random.Random(21)
    for O in ORDERS:
        K, r, N = O.field, O.r, O.N
        for _ in range(25):
            a, b = random_digits(O, rng), random_digits(O, rng)
            x, y = O.from_digits(a), O.from_digits(b)
            assert O.digits(O.add(x, y)) == ramified_digit_add(K, r, N, a, b)
            assert O.digits(O.mul(x, y)) == ramified_digit_mul(K, r, N, a, b)


def test_mul_at_the_largest_coordinates_matches_digit_form_reference():
    # mul packs integer coefficients side by side; every one of them is a
    # sum of products of nonnegative coordinates, so operands whose slot
    # coordinates are all p^{m_k} - 1 reach the largest value of each.  The
    # full product, and one b slot at a time for each twist r j
    for O in ORDERS:
        K, r, N = O.field, O.r, O.N
        top = tuple((mod - 1,) * O.s for mod in O.mods)
        cases = [(top, top)] + [
            (top, tuple(c if k == j else O.witt.zero()
                        for k, c in enumerate(top))) for j in range(O.s)]
        for x, y in cases:
            assert (O.digits(O.mul(x, y))
                    == ramified_digit_mul(K, r, N, O.digits(x), O.digits(y)))


def monomial_digits(O, j, beta):
    """Digits of pi^j<beta>."""
    return (0,) * j + (beta,) + (0,) * (O.N - j - 1)


def test_sparse_products_match_digit_form_reference():
    # mul folds only the output slots that received a term.  pi^i<a>
    # pi^j<b> fills one slot, and is 0 once i + j >= N; a one-slot element
    # (digits only at the levels of slot k) times a dense one, either way
    rng = random.Random(28)
    for O in ORDERS:
        K, r, N = O.field, O.r, O.N
        betas = [1, K.q - 1] + [rng.randrange(K.q) for _ in range(2)]
        for i, j in itertools.product(range(N), repeat=2):
            a, b = rng.choice(betas), rng.choice(betas)
            prod = O.mul(O.teich_term(i, a), O.teich_term(j, b))
            assert O.digits(prod) == ramified_digit_mul(
                K, r, N, monomial_digits(O, i, a), monomial_digits(O, j, b))
            if i + j >= N:
                assert prod == O.zero()
        for k in range(min(O.s, N)):
            for _ in range(5):
                sparse = tuple(rng.randrange(K.q) if level % O.s == k else 0
                               for level in range(N))
                dense = random_digits(O, rng)
                x, y = O.from_digits(sparse), O.from_digits(dense)
                assert sum(map(any, x)) <= 1
                assert (O.digits(O.mul(x, y))
                        == ramified_digit_mul(K, r, N, sparse, dense))
                assert (O.digits(O.mul(y, x))
                        == ramified_digit_mul(K, r, N, dense, sparse))


def test_monomial_times_monomial_folds_one_slot(monkeypatch):
    folded = []
    polyfold = ramified.polyfold

    def counted(*args):
        folded.append(args)
        return polyfold(*args)
    monkeypatch.setattr(ramified, "polyfold", counted)
    for O in ORDERS:
        for i, j in itertools.product(range(O.N), repeat=2):
            folded.clear()
            O.mul(O.teich_term(i, 1), O.teich_term(j, O.field.q - 1))
            assert len(folded) == 1, (O, i, j)


@st.composite
def order_with(draw, count):
    O = draw(st.sampled_from(ORDERS))
    digits = st.lists(st.integers(0, O.field.q - 1),
                      min_size=O.N, max_size=O.N)
    return O, [O.from_digits(draw(digits)) for _ in range(count)]


@PROPERTY
@given(order_with(3))
def test_ring_axioms(case):
    O, (a, b, c) = case
    assert O.add(a, b) == O.add(b, a)
    assert O.add(O.add(a, b), c) == O.add(a, O.add(b, c))
    assert O.add(a, O.neg(a)) == O.zero()
    assert O.sub(a, b) == O.add(a, O.neg(b))
    assert O.mul(O.mul(a, b), c) == O.mul(a, O.mul(b, c))
    assert O.mul(a, O.add(b, c)) == O.add(O.mul(a, b), O.mul(a, c))
    assert O.mul(O.add(b, c), a) == O.add(O.mul(b, a), O.mul(c, a))
    assert O.mul(a, O.one()) == a == O.mul(O.one(), a)
    assert O.mul(a, O.zero()) == O.zero() == O.mul(O.zero(), a)


@PROPERTY
@given(order_with(1))
def test_units_invert(case):
    O, (a,) = case
    if O.residue(a) != 0:
        assert O.mul(a, O.inv(a)) == O.one() == O.mul(O.inv(a), a)


@PROPERTY
@given(order_with(0), st.data())
def test_twist_rule(case, data):
    # x * pi = pi * x^tau for x in W(F_q), tau = sigma^r
    O, _ = case
    W = O.witt
    digs = data.draw(st.lists(st.integers(0, O.field.q - 1),
                              min_size=W.m, max_size=W.m))
    x = W.from_digits(digs)
    pi = O.uniformizer()
    assert O.mul(O.from_witt(x), pi) == O.mul(pi, O.from_witt(W.sigma(x, O.r)))


@PROPERTY
@given(order_with(1))
def test_uniformizer_to_the_s_is_p(case):
    O, (a,) = case
    p = O.from_int(O.field.p)
    assert O.pow(O.uniformizer(), O.s) == p
    assert O.mul(p, a) == O.mul(a, p)


@PROPERTY
@given(order_with(2), st.data())
def test_digits_round_trip(case, data):
    # products too: equal digits must mean equal stored slots
    O, (a, b) = case
    for x in (a, O.mul(a, b), O.sub(a, b)):
        assert O.from_digits(O.digits(x)) == x
    digs = tuple(data.draw(st.lists(st.integers(0, O.field.q - 1),
                                    min_size=O.N, max_size=O.N)))
    assert O.digits(O.from_digits(digs)) == digs
