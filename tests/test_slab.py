"""Laurent slabs, the pure-power projector, and no-solution certificates."""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from oracles import slab_search_direct, w_poly_of_additive
from slopelab.arith.fields import field_make
from slopelab.errors import GuardExceeded, PreconditionError, SolutionFound
from slopelab.monodromy import slab
from slopelab.monodromy.artinschreier import additive_make
from slopelab.monodromy.slab import (laurent_projector, no_solution_certificate,
                                     slab_make, slab_search)

F3 = field_make(3, 1)
F9 = field_make(3, 2)


def random_slab(field, rng, nvars=2, spread=4):
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        z = tuple(rng.randrange(-spread, spread + 1) for _ in range(nvars))
        t = rng.randrange(-spread, spread + 1)
        terms[(z, t)] = rng.randrange(field.q)
    return slab_make(field, nvars, terms)


# slab arithmetic for the projector laws; the certificate itself needs none


def add(a, b):
    acc = dict(a.data)
    for k, c in b.data:
        acc[k] = a.field.add(acc.get(k, 0), c)
    return slab_make(a.field, a.nvars, acc)


def scale(c, a):
    return slab_make(a.field, a.nvars,
                     {k: a.field.mul(c, v) for k, v in a.data})


def pow_p(a):
    K = a.field
    return slab_make(K, a.nvars, {(tuple(e * K.p for e in z), t * K.p):
                                  K.pow(c, K.p) for (z, t), c in a.data})


def test_make_merges_and_drops_zeros():
    a = slab_make(F3, 1, {((1,), 0): 2, ((0,), -1): 1})
    assert a.data == ((((0,), -1), 1), (((1,), 0), 2))
    assert slab_make(F3, 1, {((1,), 0): 2, ((0,), -1): 0}).data == \
        ((((1,), 0), 2),)
    # any z-exponent sequence is read as a tuple, so these two keys are
    # one monomial, and 2 + 1 = 0 in F_3 drops it
    assert slab_make(F3, 1, {(range(1, 2), 0): 2, ((1,), 0): 1}).data == ()
    with pytest.raises(ValueError):
        slab_make(F3, 1, {((1, 2), 0): 1})     # arity
    with pytest.raises(ValueError):
        slab_make(F3, 1, {((1,), 0): -1})      # not a code


def test_projector_keeps_w_powers_only():
    a = slab_make(F3, 2, {
        ((2, 0), -3): 1,      # w itself for M=2, N=3
        ((4, 0), -6): 2,      # w^2
        ((1, 0), -1): 1,      # wrong ratio
        ((2, 1), -3): 1,      # touches z_2
        ((0, 0), 0): 2,       # constant, kept
        ((0, 0), 1): 1,       # pure t, dropped
        ((-2, 0), 3): 1,      # w^{-1}, kept: the window holds every power
    })
    assert laurent_projector(a, 2, 3).data == (
        (((-2, 0), 3), 1), (((0, 0), 0), 2), (((2, 0), -3), 1),
        (((4, 0), -6), 2))


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
        assert laurent_projector(add(a, b), M, N) == \
            add(pa, laurent_projector(b, M, N))
        assert laurent_projector(scale(c, a), M, N) == scale(c, pa)
        assert laurent_projector(pa, M, N) == pa
        assert laurent_projector(pow_p(a), M, N) == pow_p(pa)


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
    with pytest.raises(PreconditionError, match=r"A is not z_1\^M times a t-series"):
        no_solution_certificate(F, slab_make(F3, 1, {((1,), -2): 1, ((2,), -2): 1}),
                                empty, 2, 2)   # mixed z_1 powers
    with pytest.raises(PreconditionError, match=r"A has no t\^\{-N\} term"):
        no_solution_certificate(F, slab_make(F3, 1, {((2,), 0): 1}),
                                empty, 2, 2)   # no t^{-N} term
    with pytest.raises(PreconditionError, match=r"A has t-order below -N"):
        no_solution_certificate(F, slab_make(F3, 1, {((2,), -5): 1}),
                                empty, 2, 2)   # t-order below -N
    with pytest.raises(PreconditionError, match=r"B involves z_1"):
        no_solution_certificate(F, good,
                                slab_make(F3, 1, {((1,), 0): 1}), 2, 2)
    with pytest.raises(PreconditionError, match=r"F must be nonzero"):
        no_solution_certificate(additive_make(F3, {}), good, empty, 2, 2)


def test_certificate_foreign_variables_in_b_are_fine():
    A = slab_make(F3, 2, {((1, 0), -1): 2})
    B = slab_make(F3, 2, {((0, 5), -7): 1})
    rep = no_solution_certificate(frob_minus_id(F3), A, B, 1, 1)
    assert rep["b0"] == 0 and rep["conclusion"] == "no-solution"


def test_certificate_guard(monkeypatch):
    A = slab_make(F3, 1, {((3,), -6): 1})
    B = slab_make(F3, 1, {})

    def no_tables(*args):
        raise AssertionError("search tables built above the guard")
    monkeypatch.setattr(slab, "slab_search", no_tables)
    with pytest.raises(GuardExceeded):
        no_solution_certificate(frob_minus_id(F3), A, B, 3, 6, guard=8)


def test_certificate_search_over_extension_field():
    # same window over F_9: 81 candidates, still no solution
    A = slab_make(F9, 1, {((3,), -6): 4})
    B = slab_make(F9, 1, {})
    rep = no_solution_certificate(frob_minus_id(F9), A, B, 3, 6)
    assert rep["branch"] == "search"
    assert rep["candidates_checked"] == 81


# -- the tabulated search against the candidate-by-candidate oracle ---------


def search_outcome(search, F, delta, target):
    """The count, or the SolutionFound message, as one comparable value."""
    try:
        return ("count", search(F, delta, target))
    except SolutionFound as err:
        return ("solution", str(err))


def test_search_agrees_with_direct_enumeration():
    rng = random.Random(11)
    kinds = {"count": 0, "solution": 0}
    for trial in range(320):
        p = rng.choice((2, 3, 5, 7))
        K = field_make(p, rng.randrange(1, 4))
        # keep the oracle's q^(delta + 1) evaluations small
        delta = rng.choice([d for d in range(3) if K.q ** (d + 1) <= 2500])
        js = rng.sample(range(3), rng.randrange(1, 4))
        F = additive_make(K, {j: rng.randrange(1, K.q) for j in js})
        x = {k: c for k in range(delta + 1) if (c := rng.randrange(K.q))}
        target = w_poly_of_additive(F, x)
        if trial % 2:
            # perturb one coefficient, possibly at a degree F never reaches
            d = rng.choice(sorted(target) + [delta * p ** 2 + 1])
            target[d] = K.add(target.get(d, 0), rng.randrange(1, K.q))
            target = {k: v for k, v in target.items() if v}
        want = search_outcome(slab_search_direct, F, delta, target)
        assert search_outcome(slab_search, F, delta, target) == want, \
            (p, K.s, delta, F.coeffs, target)
        if trial % 2 == 0:
            assert want[0] == "solution"
        kinds[want[0]] += 1
    assert kinds["count"] >= 60 and kinds["solution"] >= 160


def test_search_positions_sharing_a_w_degree():
    # p = 2, F = X + X^2: x_2 w^2 and (x_1 w)^2 both land on w^2
    K = field_make(2, 1)
    F = additive_make(K, {0: 1, 1: 1})
    # F(x) = x_1 w + (x_1 + x_2) w^2 + x_2 w^4 over F_2
    with pytest.raises(SolutionFound, match=r"solution \{1: 1, 2: 1\};"):
        slab_search(F, 2, {1: 1, 4: 1})
    assert slab_search(F, 2, {1: 1, 2: 1, 4: 1}) == 8
    assert slab_search_direct(F, 2, {1: 1, 2: 1, 4: 1}) == 8


def test_search_degree_zero():
    # delta = 0: x is a constant c, and F(c) = c^3 - c on F_9 kills F_3,
    # so F misses some targets and hits others three times
    F = frob_minus_id(F9)
    image = {F.eval(c) for c in range(F9.q)}
    missing = min(set(range(1, F9.q)) - image)
    assert slab_search(F, 0, {0: missing}) == 9
    assert slab_search_direct(F, 0, {0: missing}) == 9
    with pytest.raises(SolutionFound, match=r"solution \{\};"):
        slab_search(F, 0, {})
    hit = min(image - {0})
    first = min(c for c in range(F9.q) if F.eval(c) == hit)
    with pytest.raises(SolutionFound, match=rf"solution \{{0: {first}\}};"):
        slab_search(F, 0, {0: hit})


def test_search_names_the_first_solution_in_product_order():
    # F = X^2 + X on F_4 kills F_2 and sends 2, 3 to 1, so both
    # x = 2 + w and x = 3 + w solve F(x) = 1 + w + w^2
    K = field_make(2, 2)
    F = additive_make(K, {0: 1, 1: 1})
    target = {0: 1, 1: 1, 2: 1}
    assert [c for c in range(K.q) if F.eval(c) == 1] == [2, 3]
    want = ("solution", "projected equation has the solution {0: 2, 1: 1}; "
                        "no certificate exists")
    assert search_outcome(slab_search, F, 1, target) == want
    assert search_outcome(slab_search_direct, F, 1, target) == want


def test_search_workload_bytes_are_pinned():
    # the benchmark's seed-0 batch, loaded by path as its harness does
    path = Path(__file__).resolve().parents[1] / "perfbench" / "search.py"
    spec = importlib.util.spec_from_file_location("perfbench_search", path)
    search = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(search)
    assert hashlib.sha256(search.run(0).encode()).hexdigest() == \
        "b8cbeea74112b7fce324eec64bc18196125c1865dfcc9fcdc9a54d3e52336dc7"
