"""Laurent slabs, the pure-power projector, and no-solution certificates."""

import random

import pytest

from slopelab.arith.fields import field_make
from slopelab.errors import GuardExceeded, PreconditionError, SolutionFound
from slopelab.monodromy.artinschreier import additive_make
from slopelab.monodromy.slab import (CertificateInapplicable, laurent_projector,
                                     no_solution_certificate, slab_add,
                                     slab_make, slab_mul, slab_pow_p,
                                     slab_scale, slab_to_w_poly)

F3 = field_make(3, 1)
F9 = field_make(3, 2)


def random_slab(field, rng, nvars=2, spread=4):
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        z = tuple(rng.randrange(-spread, spread + 1) for _ in range(nvars))
        t = rng.randrange(-spread, spread + 1)
        terms[(z, t)] = rng.randrange(field.q)
    return slab_make(field, nvars, terms)


def test_make_merges_and_drops_zeros():
    a = slab_make(F3, 1, {((1,), 0): 2})
    b = slab_make(F3, 1, {((1,), 0): 1})
    assert slab_add(a, b).is_zero()
    assert slab_make(F3, 1, {((0,), 0): 0}).is_zero()
    with pytest.raises(ValueError):
        slab_make(F3, 1, {((1, 2), 0): 1})     # arity
    with pytest.raises(ValueError):
        slab_make(F3, 1, {((1,), 0): -1})      # not a code


def test_mul_adds_exponents():
    a = slab_make(F3, 2, {((1, 0), -1): 1})
    b = slab_make(F3, 2, {((2, 1), 3): 2})
    c = slab_mul(a, b)
    assert c.data == ((((3, 1), 2), 2),)


def test_pow_p_is_frobenius():
    rng = random.Random(0)
    for _ in range(50):
        a = random_slab(F9, rng)
        b = random_slab(F9, rng)
        lhs = slab_pow_p(slab_add(a, b))
        rhs = slab_add(slab_pow_p(a), slab_pow_p(b))
        assert lhs == rhs
        assert slab_pow_p(slab_mul(a, b)) == slab_mul(slab_pow_p(a),
                                                      slab_pow_p(b))


def test_projector_keeps_w_powers_only():
    a = slab_make(F3, 2, {
        ((2, 0), -3): 1,      # w itself for M=2, N=3
        ((4, 0), -6): 2,      # w^2
        ((1, 0), -1): 1,      # wrong ratio
        ((2, 1), -3): 1,      # touches z_2
        ((0, 0), 0): 2,       # constant, kept
        ((0, 0), 1): 1,       # pure t, dropped
    })
    p = laurent_projector(a, 2, 3)
    assert p.monomials() == [((0, 0), 0), ((2, 0), -3), ((4, 0), -6)]
    assert slab_to_w_poly(p, 2, 3) == {0: 2, 1: 1, 2: 2}


def test_projector_needs_positive_window():
    a = slab_make(F3, 1, {((1,), -1): 1})
    with pytest.raises(PreconditionError):
        laurent_projector(a, 0, 3)


def test_projector_laws_random():
    # linear, idempotent, commutes with p-th power
    rng = random.Random(1)
    for _ in range(200):
        M = rng.randrange(1, 7)
        N = rng.randrange(1, 7)
        a = random_slab(F9, rng)
        b = random_slab(F9, rng)
        c = rng.randrange(F9.q)
        pa = laurent_projector(a, M, N)
        assert laurent_projector(slab_add(a, b), M, N) == \
            slab_add(pa, laurent_projector(b, M, N))
        assert laurent_projector(slab_scale(c, a), M, N) == slab_scale(c, pa)
        assert laurent_projector(pa, M, N) == pa
        assert laurent_projector(slab_pow_p(a), M, N) == slab_pow_p(pa)


def test_w_poly_rejects_bad_shapes():
    with pytest.raises(ValueError):
        slab_to_w_poly(slab_make(F3, 1, {((1,), -2): 1}), 2, 3)
    with pytest.raises(ValueError):
        slab_to_w_poly(slab_make(F3, 1, {((-2,), 3): 1}), 2, 3)  # w^{-1}
    with pytest.raises(ValueError):
        slab_to_w_poly(slab_make(F3, 2, {((0, 1), 0): 1}), 2, 3)


def frob_minus_id(field):
    return additive_make(field, {0: field.neg(1), 1: 1})


def test_certificate_degree_branch():
    A = slab_make(F3, 1, {((1,), -1): 1})
    B = slab_make(F3, 1, {})
    rep = no_solution_certificate(frob_minus_id(F3), A, B, 1, 1)
    assert rep["branch"] == "degree"
    assert rep["e"] == 1 and rep["conclusion"] == "no-solution"


def test_certificate_search_branch():
    # e = 3 = p, so degree comparison is silent and the finite search runs
    A = slab_make(F3, 1, {((3,), -6): 1, ((3,), 0): 2})
    B = slab_make(F3, 1, {((0,), 0): 1, ((0,), 2): 2})
    rep = no_solution_certificate(frob_minus_id(F3), A, B, 3, 6)
    assert rep["branch"] == "search"
    assert rep["candidates_checked"] == 9
    assert rep["b0"] == 1 and rep["lead"] == 1
    assert rep["conclusion"] == "no-solution"


def test_certificate_detects_actual_solution():
    # F = X^3 and A = (z_1 t^{-1})^3 has the solution x = z_1 t^{-1}
    cube = additive_make(F3, {1: 1})
    A = slab_make(F3, 1, {((3,), -3): 1})
    B = slab_make(F3, 1, {})
    with pytest.raises(SolutionFound):
        no_solution_certificate(cube, A, B, 3, 3)


def test_certificate_shape_rejections():
    F = frob_minus_id(F3)
    empty = slab_make(F3, 1, {})
    good = slab_make(F3, 1, {((2,), -2): 1})
    with pytest.raises(CertificateInapplicable):
        no_solution_certificate(F, slab_make(F3, 1, {((1,), -2): 1, ((2,), -2): 1}),
                                empty, 2, 2)   # mixed z_1 powers
    with pytest.raises(CertificateInapplicable):
        no_solution_certificate(F, slab_make(F3, 1, {((2,), 0): 1}),
                                empty, 2, 2)   # no t^{-N} term
    with pytest.raises(CertificateInapplicable):
        no_solution_certificate(F, slab_make(F3, 1, {((2,), -5): 1}),
                                empty, 2, 2)   # t-order below -N
    with pytest.raises(CertificateInapplicable):
        no_solution_certificate(F, good,
                                slab_make(F3, 1, {((1,), 0): 1}), 2, 2)
    with pytest.raises(CertificateInapplicable):
        no_solution_certificate(additive_make(F3, {}), good, empty, 2, 2)


def test_certificate_foreign_variables_in_b_are_fine():
    A = slab_make(F3, 2, {((1, 0), -1): 2})
    B = slab_make(F3, 2, {((0, 5), -7): 1})
    rep = no_solution_certificate(frob_minus_id(F3), A, B, 1, 1)
    assert rep["b0"] == 0 and rep["conclusion"] == "no-solution"


def test_certificate_guard():
    A = slab_make(F3, 1, {((3,), -6): 1})
    B = slab_make(F3, 1, {})
    with pytest.raises(GuardExceeded):
        no_solution_certificate(frob_minus_id(F3), A, B, 3, 6, guard=8)


def test_certificate_search_over_extension_field():
    # same window over F_9: 81 candidates, still no solution
    A = slab_make(F9, 1, {((3,), -6): 4})
    B = slab_make(F9, 1, {})
    rep = no_solution_certificate(frob_minus_id(F9), A, B, 3, 6)
    assert rep["branch"] == "search"
    assert rep["candidates_checked"] == 81