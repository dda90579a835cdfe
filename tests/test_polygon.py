import itertools
import random
from fractions import Fraction

import pytest

from slopelab.errors import PreconditionError
from slopelab.polygon import (
    NewtonPolygon,
    adjoin,
    attainable,
    compare,
    involution_point,
    is_symmetric,
    lies_on_or_below,
    np_from_breakpoints,
    np_from_points,
    np_make,
    np_merge,
    strata,
    stratify,
    symmetric_adjoin,
)

from oracles import all_polygons, attainable_by_search

F = Fraction


def test_np_make_basic_shapes():
    ss = np_make([(F(1, 2), 2)])
    assert ss.endpoint == (2, 1)

    ordinary = np_make([(0, 1), (1, 1)])
    assert ordinary.endpoint == (2, 1)
    assert ordinary.breakpoints() == ((0, 0), (1, 0), (2, 1))

    two = np_make([(F(1, 3), 3), (F(2, 3), 3)])
    assert two.breakpoints() == ((0, 0), (3, 1), (6, 3))


def test_np_make_merges_and_rejects():
    merged = np_make([(F(1, 2), 2), (F(1, 2), 4)])
    assert merged.segments == ((F(1, 2), 6),)

    with pytest.raises(PreconditionError,
                       match="slopes must not decrease: 1/3 after 2/3"):
        np_make([(F(2, 3), 3), (F(1, 3), 3)])
    with pytest.raises(PreconditionError, match="breakpoint height 1/3"):
        np_make([(F(1, 3), 1), (F(2, 3), 5)])
    with pytest.raises(PreconditionError):
        np_make([(F(3, 2), 2)])
    with pytest.raises(PreconditionError):
        np_make([(F(1, 2), 0)])


def test_value_at_and_str():
    np = np_make([(F(1, 3), 3), (F(2, 3), 3)])
    assert np.value_at(0) == 0
    assert np.value_at(3) == 1
    assert np.value_at(4) == F(5, 3)
    assert np.value_at(6) == 3
    assert str(np) == "(1/3 x3)(2/3 x3)"
    assert np.to_json() == {"segments": [
        {"slope": "1/3", "width": 3}, {"slope": "2/3", "width": 3}]}


def test_order_reflexive_and_examples():
    for e in range(0, 4):
        for nu in all_polygons(4, e):
            assert lies_on_or_below(nu, nu)
    ss = np_make([(F(1, 2), 2)])
    ordinary = np_make([(0, 1), (1, 1)])
    assert lies_on_or_below(ordinary, ss)
    assert not lies_on_or_below(ss, ordinary)
    assert compare(ordinary, ss) == "below"
    assert compare(ss, ordinary) == "above"
    assert compare(ss, ss) == "equal"
    with pytest.raises(PreconditionError,
                       match=r"endpoints differ: \(2, 1\) vs \(4, 2\)"):
        lies_on_or_below(ss, np_make([(F(1, 2), 4)]))


def test_order_is_antisymmetric_exhaustive():
    for e in range(0, 9):
        polys = all_polygons(8, e)
        for a, b in itertools.combinations(polys, 2):
            assert not (lies_on_or_below(a, b) and lies_on_or_below(b, a))


def test_order_is_transitive_sampled():
    rng = random.Random(31)
    polys = all_polygons(7, 4)
    for _ in range(4000):
        a, b, c = rng.choice(polys), rng.choice(polys), rng.choice(polys)
        if lies_on_or_below(a, b) and lies_on_or_below(b, c):
            assert lies_on_or_below(a, c)


def test_adjoin_examples():
    np0 = np_make([(F(1, 2), 6)])
    assert adjoin(np0, (3, 1)) == np_make([(F(1, 3), 3), (F(2, 3), 3)])

    # an existing breakpoint changes nothing
    two = np_make([(F(1, 3), 3), (F(2, 3), 3)])
    assert adjoin(two, (3, 1)) == two

    steep = np_make([(F(2, 3), 3)])
    assert adjoin(steep, (2, 1)) == np_make([(F(1, 2), 2), (1, 1)])


def test_adjoin_reachability_errors():
    np0 = np_make([(F(1, 2), 6)])
    with pytest.raises(PreconditionError, match="incompatible with endpoint"):
        adjoin(np0, (7, 1))
    with pytest.raises(PreconditionError, match="incompatible with endpoint"):
        adjoin(np0, (6, 2))
    with pytest.raises(PreconditionError, match="needs slope above 1"):
        adjoin(np0, (5, 1))  # chord to (6,3) would need slope 2
    with pytest.raises(PreconditionError):
        adjoin(np0, (3, 0))


def test_adjoin_moves_down():
    for e in range(0, 7):
        for np0 in all_polygons(6, e):
            h = np0.width
            for s in range(1, h):
                for r in range(1, s + 1):
                    try:
                        out = adjoin(np0, (s, r))
                    except PreconditionError:
                        continue
                    assert lies_on_or_below(out, np0)


def test_attainable_examples():
    np0 = np_make([(F(1, 2), 6)])
    wit = attainable(np0, F(1, 3))
    assert wit is not None
    assert wit.witness == np_make([(F(1, 3), 3), (F(2, 3), 3)])
    assert wit.insertion == (3, 1)

    assert attainable(np0, F(1, 5)) is None

    steep = np_make([(F(2, 3), 3)])
    wit2 = attainable(steep, F(1, 2))
    assert wit2 is not None
    assert wit2.witness == np_make([(F(1, 2), 2), (1, 1)])

    with pytest.raises(PreconditionError, match="already a slope"):
        attainable(np0, F(1, 2))


def test_attainable_witness_must_avoid_the_straight_chord():
    # hull of the breakpoints plus the new vertex, not the chord from the
    # vertex to the endpoint: the chord here would cross above the chain
    np0 = np_make([(F(2, 5), 5), (1, 2)])
    wit = attainable(np0, F(1, 3))
    assert wit is not None
    assert wit.witness == np_make([(F(1, 3), 3), (F(1, 2), 2), (1, 2)])
    assert lies_on_or_below(wit.witness, np0)


def test_multiplicity_counts_simple_summands():
    # the abstract's hypothesis: ss6 is three copies of slope 1/2, and the
    # attainability witness carries the new slope 1/3 exactly once
    ss6 = np_make([(F(1, 2), 6)])
    assert ss6.multiplicity(F(1, 2)) == 3
    assert ss6.multiplicity(F(1, 3)) == 0
    wit = attainable(ss6, F(1, 3))
    assert wit.witness.multiplicity(F(1, 3)) == 1
    assert wit.witness.multiplicity(F(2, 3)) == 1


def test_attainable_against_exhaustive_search():
    lams = sorted({F(r, s) for s in range(2, 6) for r in range(1, s)})
    checked = 0
    for h in range(2, 7):
        for e in range(0, h + 1):
            for np0 in all_polygons(h, e):
                for lam in lams:
                    if lam in np0.slopes():
                        continue
                    got = attainable(np0, lam)
                    want = attainable_by_search(np0, lam)
                    assert (got is None) == (want is None), (np0, lam)
                    if got is not None:
                        assert lies_on_or_below(got.witness, np0)
                        assert got.witness.width_of_slope(lam) == lam.denominator
                    checked += 1
    assert checked > 800


def test_symmetry_predicates():
    assert is_symmetric(np_make([(F(1, 2), 6)]))
    assert is_symmetric(np_make([(F(1, 3), 3), (F(2, 3), 3)]))
    assert not is_symmetric(np_make([(F(1, 3), 3), (1, 1)]))
    assert is_symmetric(np_make([(0, 1), (F(1, 2), 2), (1, 1)]))


def test_involution_point_formula():
    assert involution_point(3, (3, 1)) == (3, 1)
    assert involution_point(3, (2, 1)) == (4, 2)
    # involutive on the lattice
    rng = random.Random(33)
    for _ in range(50):
        g = rng.randrange(1, 8)
        pt = (rng.randrange(0, 2 * g + 1), rng.randrange(0, g + 1))
        assert involution_point(g, involution_point(g, pt)) == pt


def test_symmetric_adjoin():
    np0 = np_make([(F(1, 2), 6)])
    out = symmetric_adjoin(np0, F(1, 3))
    assert out == np_make([(F(1, 3), 3), (F(2, 3), 3)])
    assert is_symmetric(out)

    with pytest.raises(PreconditionError, match="pairs with itself"):
        symmetric_adjoin(np0, F(1, 2))
    with pytest.raises(PreconditionError):
        symmetric_adjoin(np_make([(F(1, 3), 3), (1, 1)]), F(1, 4))

    # a non-fixed pair: g = 4, lam = 1/3 adjoins (3,1) and its mirror (5,2)
    np1 = np_make([(F(1, 2), 8)])
    out1 = symmetric_adjoin(np1, F(1, 3))
    assert is_symmetric(out1)
    assert out1 == np_make([(F(1, 3), 3), (F(1, 2), 2), (F(2, 3), 3)])

    # the pair lam, 1 - lam needs width 2s, which cannot fit when s > g
    with pytest.raises(PreconditionError, match="pair does not fit"):
        symmetric_adjoin(np_make([(F(1, 2), 4)]), F(1, 3))


def test_symmetric_adjoin_outputs_symmetric_sweep():
    for g in (2, 3, 4):
        np0 = np_make([(F(1, 2), 2 * g)])
        for s in range(2, g + 1):
            for r in range(1, s):
                lam = F(r, s)
                if lam >= F(1, 2) or lam.denominator != s:
                    continue
                out = symmetric_adjoin(np0, lam)
                assert is_symmetric(out)
                assert lies_on_or_below(out, np0)


def test_np_merge():
    a = np_make([(F(1, 2), 2)])
    b = np_make([(0, 1), (1, 1)])
    assert np_merge(a, b) == np_make([(0, 1), (F(1, 2), 2), (1, 1)])


def test_strata_reads_np_star_once_per_column(monkeypatch):
    # random block sums against the per-point definition: (x, y) of the
    # parallelogram is active iff y >= np(*)(x), and sits at level sy - rx;
    # strata itself evaluates np(*) at each x in [0, h] exactly once
    rng = random.Random(3434)
    blocks = [(F(r, s), s) for s in range(1, 6) for r in range(1, s + 1)
              if F(r, s).denominator == s]
    value_at = NewtonPolygon.value_at
    reads = []

    def counted(self, x):
        reads.append(self)
        return value_at(self, x)

    checked = 0
    while checked < 60:
        np0 = np_merge(*(np_make([b]) for b in
                         rng.sample(blocks, rng.randrange(1, 4))))
        den = rng.randrange(2, 8)
        lam = F(rng.randrange(1, den), den)
        try:
            want = stratify(np0, lam)
        except PreconditionError:
            continue
        h, c = np0.endpoint
        monkeypatch.setattr(NewtonPolygon, "value_at", counted)
        del reads[:]
        st = strata(h - c, c, np0, lam)
        monkeypatch.undo()
        assert st == want
        assert sum(1 for poly in reads if poly == st.np_star) == h + 1
        s, r = lam.denominator, lam.numerator
        active = {(x, y) for x, y in st.region
                  if y >= st.np_star.value_at(x)}
        assert st.active == active
        assert {pt: j for j, pts in st.layers.items() for pt in pts} == \
            {(x, y): s * y - r * x for x, y in active}
        checked += 1
