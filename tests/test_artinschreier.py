"""Additive subgroup polynomials and the reducibility criterion."""

import random

import pytest

from oracles import (additive_from_dense, additive_subgroups,
                     as_reducible_exhaustive, poly_mul, poly_powmod, span,
                     splitting_degree_by_factoring, subgroup_polynomial)
from slopelab.arith import fields
from slopelab.arith.fields import field_make
from slopelab.errors import InternalCheckFailed, PreconditionError
from slopelab.monodromy import artinschreier
from slopelab.monodromy.artinschreier import (_image_table, as_reducible,
                                              as_reducible_oracle)

F2 = field_make(2, 1)
F4 = field_make(2, 2)
F8 = field_make(2, 3)
F9 = field_make(3, 2)
F16 = field_make(2, 4)


def enumerate_subgroups(K):
    """Every additive subgroup of K, in (size, elements) order, as the
    exhaustive reference enumerates them."""
    return additive_subgroups(K, tuple(K.elements()))


def test_trivial_subgroup_polynomial_is_x():
    f = subgroup_polynomial(F4, {0})
    assert f.coeffs == ((0, 1),)


def test_prime_field_polynomial():
    f = subgroup_polynomial(F2, {0, 1})
    # X^2 - X = X^2 + X in characteristic 2
    assert f.coeffs == ((0, 1), (1, 1))


def test_order_two_subgroup_of_f4():
    f = subgroup_polynomial(F4, {0, 1})
    assert f.coeffs == ((0, 1), (1, 1))       # X^2 + X
    twos = [G for G in enumerate_subgroups(F4) if len(G) == 2]
    assert len(twos) == 3


def test_subgroup_counts():
    # chains of F_p-subspaces: 5, 16, 6, 67 for F_4, F_8, F_9, F_16
    assert len(enumerate_subgroups(F4)) == 5
    assert len(enumerate_subgroups(F8)) == 16
    assert len(enumerate_subgroups(F9)) == 6
    assert len(enumerate_subgroups(F16)) == 67


def gaussian_binomial(t, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (t - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def test_subgroup_count_is_a_sum_of_gaussian_binomials():
    for p, t in ((2, 1), (2, 3), (2, 5), (3, 3), (3, 4), (5, 2), (7, 2)):
        K = field_make(p, t)
        subgroups = enumerate_subgroups(K)
        assert len(subgroups) == len(set(subgroups)) == \
            sum(gaussian_binomial(t, k, p) for k in range(t + 1)), (p, t)


def test_non_subgroup_rejected():
    with pytest.raises(PreconditionError):
        subgroup_polynomial(F4, {0, 1, 2})    # not closed
    with pytest.raises(PreconditionError):
        subgroup_polynomial(F4, {1})          # no zero


def test_span_closure():
    # the reference closure in tests/oracles.py
    assert span(F4, [1]) == frozenset({0, 1})
    assert span(F4, [1, 2]) == frozenset(F4.elements())
    assert span(F9, [1]) == frozenset({0, 1, 2})


def test_additivity_exhaustive():
    for K in (F4, F8, F9):
        for G in enumerate_subgroups(K):
            f = subgroup_polynomial(K, G)
            for x in K.elements():
                for y in K.elements():
                    assert f.eval(K.add(x, y)) == K.add(f.eval(x), f.eval(y))


def test_translation_invariance():
    # f_G(X + beta) = f_G(X) for beta in G, checked as polynomials by
    # dense substitution, not just on values
    for K, G in ((F4, {0, 1}), (F9, {0, 1, 2}), (F8, frozenset(F8.elements()))):
        f = subgroup_polynomial(K, G)
        dense = [0] * (f.degree + 1)
        for j, c in f.coeffs:
            dense[K.p ** j] = c
        for beta in G:
            shifted = _compose_linear(K, dense, beta)
            assert fields.poly_trim(shifted) == fields.poly_trim(dense)


def _compose_linear(K, dense, beta):
    """f(X + beta) via Horner in the shifted variable."""
    out = [0]
    for c in reversed(dense):
        out = poly_mul(K, out, [beta, 1])
        out = fields.poly_add(K, out, [c])
    return out


def test_vanishing_on_subgroup():
    for K in (F4, F9, F16):
        for G in enumerate_subgroups(K):
            f = subgroup_polynomial(K, G)
            assert all(f.eval(b) == 0 for b in G)
            assert f.degree == len(G)


SMALL_FIELDS = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1),
                (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2))


def test_line_polynomial_matches_the_product_of_linear_factors():
    # the f_L that as_reducible tests against, X^p - g^(p-1) X, equals
    # prod_{g in L}(X - g) for every line L of K, |K| <= 81
    for p, s in SMALL_FIELDS:
        K = field_make(p, s)
        for L, f, g, _ in _image_table(K, K.q)[1]:
            assert g in L and f == subgroup_polynomial(K, L), (K, sorted(L))


def test_image_table_lists_the_lines_of_f_q_in_sorted_order():
    # (q-1)/(p-1) lines of size p for every F_q inside K, and exactly the
    # size-p subgroups of the reference enumeration, in its order
    for p, s in SMALL_FIELDS:
        K = field_make(p, s, 1)
        for t in (t for t in range(1, s + 1) if s % t == 0):
            q = p ** t
            lines = [L for L, _, _, _ in _image_table(K, q)[1]]
            assert len(lines) == (q - 1) // (p - 1), (K, q)
            assert all(len(L) == p for L in lines), (K, q)
            assert lines == sorted(lines, key=sorted), (K, q)
            copy = tuple(a for a in K.elements() if K.pow(a, q) == a)
            assert lines == [G for G in additive_subgroups(K, copy)
                             if len(G) == p], (K, q)


def test_line_image_is_the_trace_zero_hyperplane_twisted_by_g():
    # the criterion's test for a line L = F_p g: the digits of A dotted
    # with row[i] = Tr(x^i g^(-p)) vanish mod p.  By additive Hilbert 90
    # that is A in {f_L(x) : x in K}, here listed by evaluating the
    # product of the linear factors x - h, h in L, at every x
    for p, s in SMALL_FIELDS:
        K = field_make(p, s)
        theta, table = _image_table(K, K.q)
        assert _trace(K, theta) == 1, K
        for L, _, _, row in table:
            image = set()
            for x in K.elements():
                value = 1
                for h in L:
                    value = K.mul(value, K.sub(x, h))
                image.add(value)
            assert len(image) == K.q // p, (K, sorted(L))
            for A in K.elements():
                hit = sum(d * r for d, r in zip(K.coeffs(A), row)) % p == 0
                assert hit == (A in image), (K, sorted(L), A)


def test_a_theta_of_trace_other_than_one_fails_the_first_hit(monkeypatch):
    # with Tr theta = t the telescoped preimage has f_L(a0) = t A, so every
    # nonzero hit, the first one included, must trip the f_G(a) == A check
    for p, s, q in ((2, 3, 8), (3, 2, 3), (3, 2, 9), (5, 2, 25)):
        K = field_make(p, s)
        _, table = _image_table(K, q)
        hits = [A for A in K.units() if as_reducible(K, q, A)[0]]
        for bad in (t for t in K.elements() if _trace(K, t) != 1):
            with monkeypatch.context() as m:
                m.setattr(artinschreier, "_image_table",
                          lambda K, q, bad=bad: (bad, table))
                for A in hits:
                    with pytest.raises(InternalCheckFailed):
                        as_reducible(K, q, A)


def test_additive_from_dense_rejects_stray_monomial():
    with pytest.raises(PreconditionError):
        additive_from_dense(F4, [0, 1, 0, 1])  # X^3 term


def test_spec_reducibility_examples():
    red, _ = as_reducible(F2, 2, 1)
    assert not red and not as_reducible_oracle(F2, 2, 1)

    red, witness = as_reducible(F4, 4, 1)
    assert red and as_reducible_oracle(F4, 4, 1)
    G, a = witness
    assert G == frozenset({0, 1})
    assert F4.add(F4.mul(a, a), a) == 1       # a = omega, omega^2 + omega = 1

    omega = 2
    red, _ = as_reducible(F4, 2, omega)
    assert not red and not as_reducible_oracle(F4, 2, omega)


def test_agreement_exhaustive():
    cases = [(F2, 2), (F4, 2), (F4, 4), (F8, 2), (F9, 3), (F16, 2), (F16, 4)]
    for K, q in cases:
        for A in K.elements():
            assert as_reducible(K, q, A)[0] == as_reducible_oracle(K, q, A), \
                (K.q, q, A)


def test_linear_criterion_matches_exhaustive_witness():
    # every A, every F_q inside K, |K| <= 81, three moduli per field; the
    # exhaustive walk shares no code with the trace test
    for p, s in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1),
                 (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)):
        for seed in range(3):
            K = field_make(p, s, seed)
            for t in (t for t in range(1, s + 1) if s % t == 0):
                for A in K.elements():
                    assert as_reducible(K, p ** t, A) == \
                        as_reducible_exhaustive(K, p ** t, A), (K, t, A)


def _trace(K, A):
    """Tr_{K/F_p}(A) = sum of the conjugates A^(p^i), i < s."""
    acc = 0
    for i in range(K.s):
        acc = K.add(acc, K.frobenius(A, i))
    return acc


def test_oracle_counts_trace_zero_for_prime_q():
    # X^p - X - A is reducible over K iff Tr_{K/F_p}(A) = 0, which holds
    # for |K|/p values of A: 5 on F_25, 9 on F_27, 7 on F_49
    for p, s in ((5, 2), (3, 3), (7, 2)):
        K = field_make(p, s)
        reducible = [A for A in K.elements() if as_reducible_oracle(K, p, A)]
        assert reducible == [A for A in K.elements() if _trace(K, A) == 0]
        assert len(reducible) == K.q // p


def test_the_oracle_walk_composes_x_to_the_power_k_to_the_m():
    # x -> x^|K| is a K-algebra map of K[X]/(f), so r_m = r_(m-1)(r1) is
    # X^(|K|^m) mod f, here against dense square-and-multiply
    rng = random.Random(7)
    for K, q in ((F4, 2), (F4, 4), (F8, 2), (F9, 3), (F16, 4),
                 (field_make(3, 3), 3), (field_make(5, 2), 5)):
        for A in {0, 1, rng.randrange(K.q), rng.randrange(K.q)}:
            f = [K.neg(A), K.neg(1)] + [0] * (q - 2) + [1]
            r = r1 = fields.poly_frobenius(K, [0, 1], K.s, f)
            for m in range(1, 4):
                assert r == poly_powmod(K, [0, 1], K.q ** m, f), (K, q, A, m)
                r = fields.poly_compose(K, r, r1, f)


def test_the_oracle_raises_x_to_the_power_k_once(monkeypatch):
    calls = []
    frobenius = fields.poly_frobenius

    def spy(K, f, k, mod):
        calls.append((f, k))
        return frobenius(K, f, k, mod)
    monkeypatch.setattr(fields, "poly_frobenius", spy)
    for K, q in ((field_make(3, 3), 3), (field_make(3, 4), 9)):
        for A in K.elements():
            calls.clear()
            as_reducible_oracle(K, q, A)
            assert calls == [([0, 1], K.s)], (K, q, A)


def test_the_oracle_verdict_is_the_gcd_walk_verdict():
    # the least m with a root in the degree-m extension, found by gcds of
    # X^(|K|^m) - X with f and square-and-multiply, falls short of q
    # exactly when the oracle's splitting degree does: every A, every F_q
    # inside F16, F64, F81 and F256, so the non-prime q = 4, 8, 9, 16 too
    for p, s in ((2, 4), (2, 6), (3, 4), (2, 8)):
        K = field_make(p, s)
        for t in (t for t in range(1, s + 1) if s % t == 0):
            q = p ** t
            for A in K.elements():
                f = [K.neg(A), K.neg(1)] + [0] * (q - 2) + [1]
                assert as_reducible_oracle(K, q, A) == \
                    (splitting_degree_by_factoring(K, f) < q), (K, q, A)


def test_the_oracle_takes_no_gcd(monkeypatch):
    calls = []
    gcd = fields.poly_gcd

    def spy(K, f, g):
        calls.append((f, g))
        return gcd(K, f, g)
    monkeypatch.setattr(fields, "poly_gcd", spy)
    for K, q in ((F16, 4), (field_make(3, 3), 3), (field_make(3, 4), 9)):
        for A in K.elements():
            as_reducible_oracle(K, q, A)
    assert calls == []


def test_a_walk_that_never_returns_to_x_fails_the_check(monkeypatch):
    # with composition stuck at its input, r_m = r1 for every m; for
    # q = |K| and A != 0, f has no root in K, so r1 != X and no m <= q
    # closes the walk
    monkeypatch.setattr(fields, "poly_compose", lambda K, g, h, mod: g)
    for K in (F4, F9, F16, field_make(3, 3)):
        for A in K.units():
            with pytest.raises(InternalCheckFailed):
                as_reducible_oracle(K, K.q, A)


def test_agreement_sampled_f27():
    K27 = field_make(3, 3)
    rng = random.Random(5)
    picks = {0, 1} | {rng.randrange(27) for _ in range(5)}
    for A in sorted(picks):
        assert as_reducible(K27, 27, A)[0] == as_reducible_oracle(K27, 27, A)


def test_subfield_requirement():
    with pytest.raises(PreconditionError):
        as_reducible(F8, 4, 1)                # F_4 not inside F_8
    with pytest.raises(PreconditionError):
        as_reducible_oracle(F9, 2, 1)         # wrong characteristic


def test_criterion_rejects_a_non_element():
    for A in (-1, 9):
        with pytest.raises(ValueError):
            as_reducible(F9, 3, A)