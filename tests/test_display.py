import math
import random
from fractions import Fraction

import pytest

from slopelab.arith import witt_for
from slopelab.arith.twisted import TwistedPoly
from slopelab.display import (
    DeformationSpec,
    Display,
    charpoly,
    charpoly_polygon,
    deformation,
    display_from_charpoly,
    split_display,
)
from slopelab.errors import PreconditionError
from slopelab.polygon import (coord_name, np_make, np_merge, parallelogram,
                              strata, stratify)

from oracles import cayley_hamilton_holds, t_substitute_numeric

F = Fraction


def ring927():
    return witt_for(3, 2, 5)


def slope_23_display(W):
    """d=1, c=2, free entries (0, 0, 1): the one-dimensional slope 2/3 block."""
    return Display(W, 1, 2, {(1, 3): W.one()})


def test_constructor_enforces_the_normal_form():
    W = ring927()
    disp = slope_23_display(W)
    assert disp.free == {(1, 3): W.one()}
    # every entry outside S is the skeleton: 1 on the sub-diagonal, else 0
    assert {(i, j) for i in range(1, 4) for j in range(1, 4)
            if disp.entry(i, j) != W.zero()} == {(2, 1), (3, 2), (1, 3)}
    assert disp.entry(2, 1) == disp.entry(3, 2) == W.one()

    # zero free entries are dropped
    assert Display(W, 1, 2, {(1, 3): W.one(), (1, 1): W.zero()}).free == \
        {(1, 3): W.one()}

    # a non-unit or missing corner at (1, h)
    with pytest.raises(PreconditionError):
        Display(W, 1, 2, {(1, 3): W.from_int(3)})
    with pytest.raises(PreconditionError):
        Display(W, 1, 2, {})
    # a position outside S, on the skeleton or off it
    with pytest.raises(PreconditionError):
        Display(W, 1, 2, {(1, 3): W.one(), (2, 1): W.one()})
    with pytest.raises(PreconditionError):
        Display(W, 1, 2, {(1, 3): W.one(), (3, 3): W.one()})
    # block sizes below 1
    with pytest.raises(PreconditionError):
        Display(W, 0, 2, {(1, 2): W.one()})
    with pytest.raises(PreconditionError):
        Display(W, 1, 0, {(1, 1): W.one()})


def test_charpoly_frozen_small_cases():
    W = ring927()
    chi = charpoly(slope_23_display(W))
    p2 = W.from_int(9)
    assert chi.coeffs == {3: W.one(), 0: W.neg(p2)}

    half = Display(W, 1, 1, {(1, 2): W.one()})
    chi2 = charpoly(half)
    assert chi2.coeffs == {2: W.one(), 0: W.neg(W.from_int(3))}

    assert charpoly_polygon(chi) == np_make([(F(2, 3), 3)])
    assert charpoly_polygon(chi2) == np_make([(F(1, 2), 2)])


def test_charpoly_against_cayley_hamilton_action():
    # chi(F) must kill the generator e_1 under the raw semilinear action;
    # this exercises the coefficient formula with no shared code
    rng = random.Random(41)
    for d, c in [(1, 2), (1, 1), (2, 2), (3, 2), (2, 3)]:
        W = witt_for(3, 2, d + c + 2)
        for _ in range(4):
            free = {}
            for (i, j) in [(i, j) for i in range(1, d + 1)
                           for j in range(d, d + c + 1)]:
                free[(i, j)] = W.from_digits(
                    [rng.randrange(9) for _ in range(W.m)])
            free[(1, d + c)] = W.from_digits(
                [rng.randrange(1, 9)] + [rng.randrange(9) for _ in range(W.m - 1)])
            disp = Display(W, d, c, free)
            assert cayley_hamilton_holds(disp, charpoly(disp))


def test_charpoly_additive_in_each_slot():
    rng = random.Random(42)
    W = witt_for(3, 2, 6)
    d, c = 2, 2
    h = d + c
    base_free = {(1, h): W.one()}
    disp = Display(W, d, c, base_free)
    chi0 = charpoly(disp)
    for (i, j) in disp.free_slots():
        if j == h and i == 1:
            continue
        b = W.from_digits([rng.randrange(9) for _ in range(W.m)])
        disp2 = Display(W, d, c, {**base_free, (i, j): b})
        chi2 = charpoly(disp2)
        x, y = j + 1 - i, j - d
        correction = W.scalar_mul(3 ** y, W.sigma(b, h - y - d))
        for k in set(chi0.coeffs) | set(chi2.coeffs):
            want = chi0.coeff(k)
            if k == h - x:
                want = W.sub(want, correction)
            assert chi2.coeff(k) == want


def test_charpoly_reads_only_the_stored_entries(monkeypatch):
    # chi sums the stored free entries; scanning all d(c+1) slots of S for
    # the few that are set is work a sparse display does not need
    W = ring927()
    disp = Display(W, 2, 3, {(1, 5): W.one(), (2, 3): W.from_int(2)})
    scans = []
    monkeypatch.setattr(Display, "free_slots",
                        lambda self: scans.append(self) or [])
    chi = charpoly(disp)
    assert scans == []
    assert chi.coeffs.keys() == {5, 3, 0}


def test_split_display_polygon_matches_sum():
    W = witt_for(3, 1, 10)
    for pieces in [[(1, 2)], [(2, 3)], [(1, 2), (2, 3)], [(1, 3), (1, 2), (1, 2)],
                   [(1, 4), (3, 4)]]:
        disp = split_display(W, pieces)
        parts = [np_make([(F(r, s), s)]) for r, s in pieces]
        assert charpoly_polygon(charpoly(disp)) == np_merge(*parts)


def _refusal(build):
    try:
        return build()
    except PreconditionError as err:
        return f"refused: {err}"


def test_the_display_route_is_the_polygon_route():
    # `certify` reads the base polygon and `polygon.stratify` alone; the
    # split display, its charpoly and `deformation` are the oracle.  Block
    # sums up to height 9, with H1/1 blocks (d = 0) among them, and every
    # slope r/s, s <= 7, below, at and above the base slopes
    rng = random.Random(34)
    blocks = [(r, s) for s in range(1, 6) for r in range(1, s + 1)
              if math.gcd(r, s) == 1]
    slopes = sorted({F(r, s) for s in range(1, 8) for r in range(s)})
    bases = [[(1, 1)], [(1, 1), (1, 1)], [(1, 1), (1, 2), (1, 2)]]
    while len(bases) < 40:
        pieces = [rng.choice(blocks) for _ in range(rng.randrange(1, 4))]
        if sum(s for _, s in pieces) <= 9:
            bases.append(pieces)
    refused = cases = 0
    for pieces in bases:
        c = sum(r for r, _ in pieces)
        W = witt_for(3, 1, c + 1)
        np0 = np_merge(*(np_make([(F(r, s), s)]) for r, s in pieces))
        disp = _refusal(lambda: split_display(W, pieces))
        if not isinstance(disp, str):
            assert charpoly_polygon(charpoly(disp)) == np0, pieces
        for lam in slopes:
            via_display = disp if isinstance(disp, str) else _refusal(
                lambda: deformation(disp, lam).strat)
            assert via_display == _refusal(lambda: stratify(np0, lam)), \
                (pieces, lam)
            refused += isinstance(via_display, str)
            cases += 1
    # both kinds of case are exercised
    assert 0 < refused < cases


def test_display_from_charpoly_round_trip():
    rng = random.Random(43)
    W = witt_for(3, 2, 8)
    h, d = 5, 2
    coeffs = {}
    for x in range(1, h):
        v = max(0, x - d) + rng.randrange(0, 2)
        coeffs[x] = W.from_digits(
            [0] * v + [rng.randrange(9) for _ in range(W.m - v)])
    coeffs[h] = W.from_digits([0] * (h - d) + [rng.randrange(1, 9), 0, 0])
    coeffs = {x: v for x, v in coeffs.items() if v != W.zero()}
    disp = display_from_charpoly(W, d, coeffs)
    chi = charpoly(disp)
    for x, ax in coeffs.items():
        assert chi.coeff(h - x) == W.neg(ax)


def test_parallelogram_row_description():
    pts = parallelogram(2, 3)
    assert set(pts) == {(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2)}
    for d, c in [(1, 1), (3, 3), (4, 2), (1, 4)]:
        pts = parallelogram(d, c)
        for y in range(c):
            row = sorted(x for x, yy in pts if yy == y)
            assert row == list(range(y + 1, y + d + 1))


def test_strata_running_instance():
    np0 = np_make([(F(1, 2), 6)])
    st = strata(3, 3, np0, F(1, 3))
    assert len(st.region) == 9
    assert st.np_star == np_make([(F(1, 3), 3), (F(2, 3), 3)])
    assert st.active == {(2, 1), (3, 1), (3, 2), (4, 2)}
    assert st.layer(0) == {(3, 1)}
    assert st.layer(1) == {(2, 1)}
    assert st.layer(2) == {(4, 2)}
    assert st.layer(3) == {(3, 2)}
    # layers partition the active set
    union = set()
    for j, layer in st.layers.items():
        assert not (union & layer)
        union |= layer
    assert union == st.active


def test_strata_anchor_layer():
    # P(0) = {(s, r)} on instances satisfying the hypotheses; modest sweep
    for s, r in [(3, 1), (4, 1), (5, 2), (5, 3)]:
        for d, c in [(s, s), (s - r + 1, r + 1)]:
            if c <= r or d < s - r or d + c > 14:
                continue
            np0 = np_make([(F(c, d + c), d + c)])
            if F(r, s) >= F(c, d + c):
                continue
            st = strata(d, c, np0, F(r, s))
            assert st.layer(0) == {(s, r)}, (s, r, d, c)


@pytest.mark.parametrize("p, pieces, lam", [
    (2, [(1, 2)] * 3, F(1, 3)),
    (3, [(1, 2)] * 3, F(1, 3)),
    (3, [(1, 3), (1, 2), (1, 2)], F(1, 4)),
    (3, [(4, 5), (4, 5)], F(3, 5)),
    (3, [(1, 2)] * 5, F(2, 5)),
], ids=["ss6-p2", "ss6-p3", "H1/3+ss4", "H4/5+H4/5", "ss10"])
def test_deformation_chi_is_the_charpoly_of_the_t_substitution(p, pieces,
                                                               lam):
    # deformation() writes its parameters into chi without forming the
    # deformed display; here the display is formed by the full product
    # (A + TC, B + TD) and its chi compared at seeded parameter values
    s = lam.denominator
    W = witt_for(p, s, 2 * s + 2)
    disp = split_display(W, pieces)
    spec = deformation(disp, lam)
    d, c, h = disp.d, disp.c, disp.h
    params = spec.parameters()
    assert [coord_name(x, y) for x, y, _ in params] == \
        sorted(coord_name(x, y) for x, y in spec.strat.active)
    assert {(x, y): twist for x, y, twist in params} == \
        {(x, y): h - d - y for x, y in spec.strat.active}

    rng = random.Random(p * 100 + s)
    for _ in range(2):
        values = {pt: rng.randrange(W.field.q) for pt in spec.strat.active}
        # u(x, y) sits at T_{i,k} with k = y + 1 and i = d + y + 1 - x
        t_matrix = {(d + y + 1 - x, y + 1):
                    W.teichmuller(v) if v else W.zero()
                    for (x, y), v in values.items()}
        matrix = t_substitute_numeric(disp, t_matrix)
        # the substitution leaves every entry outside S as it was, so the
        # skeleton is untouched and the S part is a normal display again
        slots = set(disp.free_slots())
        assert all(v == disp.entry(i, j) for (i, j), v in matrix.items()
                   if (i, j) not in slots)
        deformed = Display(W, d, c, {pos: matrix[pos] for pos in slots})
        chi = spec.specialize(values)
        assert chi == charpoly(deformed)
        assert cayley_hamilton_holds(deformed, chi)


def test_deformation_running_instance():
    W = witt_for(3, 2, 8)
    disp = split_display(W, [(1, 2), (1, 2), (1, 2)])
    spec = deformation(disp, F(1, 3))
    assert sorted(spec.parameters()) == sorted(
        [(3, 1, 2), (2, 1, 2), (3, 2, 1), (4, 2, 1)])
    assert spec.deformed_polygon() == np_make([(F(1, 3), 3), (F(2, 3), 3)])

    # all parameters to zero recovers the base charpoly
    at_zero = spec.specialize({pt: 0 for pt in spec.strat.active})
    assert at_zero.coeffs == charpoly(disp).coeffs


def test_deformation_rejects_bad_slopes():
    W = witt_for(3, 2, 8)
    disp = split_display(W, [(1, 2), (1, 2), (1, 2)])
    with pytest.raises(PreconditionError):
        deformation(disp, F(1, 2))
    with pytest.raises(PreconditionError):
        deformation(disp, F(2, 3))
    # attainability failure: slope 1/5 under endpoint (6,3) has no room
    with pytest.raises(PreconditionError):
        deformation(disp, F(1, 5))


def test_deformation_specialized_polygon_generic_values():
    W = witt_for(3, 2, 8)
    disp = split_display(W, [(1, 2), (1, 2), (1, 2)])
    spec = deformation(disp, F(1, 3))
    g = W.field.generator()
    values = {pt: g for pt in spec.strat.active}
    chi = spec.specialize(values)
    assert charpoly_polygon(chi) == np_make([(F(1, 3), 3), (F(2, 3), 3)])


@pytest.mark.parametrize("segments", [[(F(1, 3), 3)], [(F(1, 3), 6)],
                                      [(F(1, 2), 4)]])
def test_strata_needs_the_polygon_to_end_at_the_region_corner(segments):
    # a polygon of another width or height is not a polygon of an h = 6,
    # c = 3 display; the parallelogram would be cut by the wrong line
    np0 = np_make(segments)
    with pytest.raises(PreconditionError) as err:
        strata(3, 3, np0, F(1, 3))
    assert f"endpoint {np0.endpoint} is not (d + c, c) = (6, 3)" in \
        str(err.value)
