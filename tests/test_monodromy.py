"""Slope normalization, the equation tower, and the certificate legs."""

import json
import math
import random
from fractions import Fraction

import pytest

from slopelab.arith import witt_for
from slopelab.arith.fields import field_make, field_modulus, polymulmod, power
from slopelab.arith.twisted import TwistedPoly
from slopelab.display import (Display, charpoly, charpoly_polygon,
                              deformation, split_display)
from slopelab.errors import InternalCheckFailed, PreconditionError
from slopelab.monodromy.certify import largeness_certificate
from slopelab.monodromy.equations import (EqTerm, MonodromyEquation,
                                          demazure_slope, first_witt_equation,
                                          graded_equations, monodromy_equation)
from slopelab.monodromy.slab import laurent_projector, slab_make
from slopelab.polygon import coord_name

from oracles import splitting_degree_by_factoring


def running_instance(m=8):
    ring = witt_for(3, 3, m)
    base = split_display(ring, [(1, 2)] * 3)
    return ring, base, deformation(base, Fraction(1, 3))


# -- demazure slope -------------------------------------------------------


def test_demazure_examples():
    ring = witt_for(3, 3, 6)
    p = 3
    chi = TwistedPoly(ring, {3: ring.one(), 0: ring.neg(ring.from_int(p * p))})
    assert demazure_slope(chi).lam == Fraction(2, 3)
    chi2 = TwistedPoly(ring, {
        2: ring.one(),
        1: ring.neg(ring.from_int(p)),
        0: ring.neg(ring.from_int(p ** 3)),
    })
    assert demazure_slope(chi2).lam == 1


def test_demazure_normalized_digits():
    # chi_0 of the self-product base at its own slope 1/2: the nonzero
    # pi-digits of a_x = A_x p^{-x/2} in the s = 2 ramified ring
    ring, base, _ = running_instance()
    data = demazure_slope(charpoly(base))
    assert data.lam == Fraction(1, 2)
    assert data.coeffs == {2: {2: 1}, 4: {2: 2}, 6: {0: 1}}


def test_demazure_all_zero_rejected():
    ring = witt_for(3, 2, 4)
    chi = TwistedPoly(ring, {2: ring.one()})
    with pytest.raises(PreconditionError):
        demazure_slope(chi)


def test_demazure_matches_least_polygon_slope():
    rng = random.Random(11)
    ring = witt_for(3, 2, 6)
    checked = 0
    for _ in range(25):
        d = rng.randrange(1, 3)
        c = rng.randrange(1, 3)
        h = d + c
        free = {}
        for i in range(1, d + 1):
            for j in range(d, h + 1):
                if rng.random() < 0.5:
                    free[(i, j)] = ring.from_int(rng.randrange(1, 9))
        free[(1, h)] = ring.teichmuller(rng.randrange(1, ring.field.q))
        disp = Display(ring, d, c, free)
        chi = charpoly(disp)
        try:
            np0 = charpoly_polygon(chi)
        except PreconditionError:
            continue
        assert demazure_slope(chi).lam == np0.slopes()[0]
        checked += 1
    assert checked >= 15


# -- the v-equation -------------------------------------------------------


def test_monodromy_equation_running_instance():
    _, _, spec = running_instance()
    eq = monodromy_equation(spec)
    assert (eq.h, eq.d, eq.lam) == (6, 3, Fraction(1, 3))
    got = {(x, t.kind, t.j, t.value, t.twist)
           for x, ts in eq.terms.items() for t in ts}
    assert got == {
        (2, "symbol", 1, "u(2,1)", 2),
        (2, "const", 4, 1, 0),
        (3, "symbol", 0, "u(3,1)", 2),
        (3, "symbol", 3, "u(3,2)", 1),
        (4, "symbol", 2, "u(4,2)", 1),
        (4, "const", 5, 2, 0),
        (6, "const", 3, 1, 0),
    }


def test_level_zero_layer_is_the_anchor():
    # reduction mod the maximal ideal keeps layer 0 only: the single
    # anchor symbol at x = s with twist h-d-r, on v^{sigma^{h-s}}
    _, _, spec = running_instance()
    eq = monodromy_equation(spec)
    layer0 = eq.layer(0)
    assert len(layer0) == 1
    x, term = layer0[0]
    assert x == 3 and term == EqTerm("symbol", 0, "u(3,1)", 2)
    layer1 = eq.layer(1)
    assert [(x, t.value, t.twist) for x, t in layer1] == [(2, "u(2,1)", 2)]


def test_no_deformation_room_gives_leading_part_only():
    # single piece of slope 2/3 deformed at 1/2: the only active lattice
    # point is the anchor, so the anchor is the only parameter
    ring = witt_for(3, 2, 6)
    base = split_display(ring, [(2, 3)])
    spec = deformation(base, Fraction(1, 2))
    eq = monodromy_equation(spec)
    symbols = [(x, t) for x, ts in eq.terms.items() for t in ts
               if t.kind == "symbol"]
    assert len(symbols) == 1
    assert symbols[0][0] == 2 and symbols[0][1].j == 0


def test_slope_not_below_base_reported():
    _, _, spec = running_instance()
    bad = spec._replace(lam=Fraction(1, 2))
    with pytest.raises(PreconditionError):
        monodromy_equation(bad)


# -- first Witt reduction -------------------------------------------------


def test_first_witt_running_instance():
    _, _, spec = running_instance()
    fw = first_witt_equation(
        spec.base.ring.field, spec.base.h, spec.base.d, spec.lam, seed=0)
    p = 3
    assert fw["exponents"] == [p ** 6 - p ** 3, p ** 2]
    assert fw["factored"] == [p ** 3, p ** 3 - 1]
    assert fw["exponents"][0] == fw["factored"][0] * fw["factored"][1]
    assert fw["separable_degree"] == 26 == fw["group_order"]
    assert fw["symbol"] == "u(3,1)"
    assert len(fw["samples"]) == 16
    assert all(26 % deg == 0 for _, deg in fw["samples"])
    assert fw["attained"]
    again = first_witt_equation(
        spec.base.ring.field, spec.base.h, spec.base.d, spec.lam, seed=0)
    assert again["samples"] == fw["samples"]


def test_first_witt_degrees_against_factoring():
    # independent check of every sampled splitting degree by actually
    # factoring X^{q-1} - w over the cubic extension, whose tables only
    # this test builds
    for p in (3, 2):
        ring = witt_for(p, 3, 8)
        spec = deformation(split_display(ring, [(1, 2)] * 3), Fraction(1, 3))
        fw = first_witt_equation(ring.field, 6, 3, Fraction(1, 3), seed=0)
        ext = field_make(p, 9)
        q1 = p ** 3 - 1
        assert len(fw["samples"]) == 16
        for u, deg in fw["samples"]:
            w = ext.pow(u, fw["exponents"][1])
            f = [0] * (q1 + 1)
            f[q1] = 1
            f[0] = ext.neg(w)
            assert splitting_degree_by_factoring(ext, f) == deg


def test_first_witt_degree_is_the_least_period_at_p5():
    # q - 1 = 124 = 2^2 * 31 has a square factor, so the order is stripped
    # twice at 2; here it is the least k >= 1 with w^k = 1, found by
    # repeated multiplication in F_5[x]/(f), f the modulus of F_{5^9}
    ring = witt_for(5, 3, 8)
    spec = deformation(split_display(ring, [(1, 2)] * 3), Fraction(1, 3))
    fw = first_witt_equation(
        spec.base.ring.field, spec.base.h, spec.base.d, spec.lam, seed=0)
    f, Q = field_modulus(5, 9), 5 ** 9
    e = fw["exponents"][1] * ((Q - 1) // 124) % (Q - 1)
    one = [1] + [0] * 8
    for u, deg in fw["samples"]:
        w = power(lambda a, b: polymulmod(5, f, a, b), one,
                  [u // 5 ** i % 5 for i in range(9)], e)
        k, acc = 1, w
        while acc != one:
            k, acc = k + 1, polymulmod(5, f, acc, w)
        assert k == deg
    assert {deg for _, deg in fw["samples"]} >= {124, 62, 31, 4}


def test_first_witt_anchor_is_the_level_0_point():
    # random block sums drawn as in gate 3 of test_acceptance: the level-0
    # layer of every spec is the anchor u(s, r) alone, twisted by
    # h - d - r, which first_witt_equation reads off lam instead of
    # searching the monodromy equation for it
    rng = random.Random(20261019)
    cand = [(rb, sb) for sb in range(1, 5) for rb in range(1, sb + 1)
            if math.gcd(rb, sb) == 1]
    for p in (2, 3):
        built = 0
        while built < 12:
            s = rng.choice([3, 4, 5])
            r = rng.choice([r for r in range(1, s) if math.gcd(r, s) == 1])
            lam = Fraction(r, s)
            pool = [b for b in cand if Fraction(*b) > lam]
            pieces = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
            h = sum(sb for _, sb in pieces)
            c = sum(rb for rb, _ in pieces)
            if h > 10 or c == h:
                continue
            ring = witt_for(p, s, max(2 * s + 2, c + 1))
            try:
                spec = deformation(split_display(ring, pieces), lam)
            except PreconditionError:     # lam not attainable
                continue
            built += 1
            d = spec.base.d
            assert spec.strat.layer(0) == {(s, r)}, (pieces, lam)
            assert monodromy_equation(spec).layer(0) == [
                (s, EqTerm("symbol", 0, coord_name(s, r), h - d - r))]
            fw = first_witt_equation(spec.base.ring.field, h, d, lam, seed=0)
            assert fw["symbol"] == coord_name(s, r)
            assert fw["exponents"][1] == p ** (h - d - r)


# -- graded tower ---------------------------------------------------------


def test_graded_running_instance():
    ring, _, spec = running_instance()
    eqs = graded_equations(spec)
    assert [g.level for g in eqs] == [1, 2, 3]
    p = 3

    lvl1 = eqs[0].terms
    assert len(lvl1) == 1
    t = lvl1[0]
    assert (t.kind, t.value, t.u_exp, t.t_exp, t.w_sub, t.w_exp) == \
        ("symbol", "u(2,1)", p ** 2, p ** 4 - p ** 6, 0, p ** 4)

    lvl2 = eqs[1].terms
    assert any(t.w_sub == 1 for t in lvl2)

    lvl3 = eqs[2].terms
    assert any(t.kind == "symbol" and t.value == "u(3,2)" for t in lvl3)
    assert any(t.kind == "const" and t.x == 6 and t.value == 1 for t in lvl3)


def test_graded_rejects_symbol_off_its_level():
    # at slope 1/3 a symbol at x = 1 sits on a level j = 3y - 1, never j = 1
    _, _, spec = running_instance()
    eq = MonodromyEquation(6, 3, Fraction(1, 3),
                           {1: (EqTerm("symbol", 1, "u(1,0)", 0),)})
    with pytest.raises(InternalCheckFailed, match="off level 1"):
        graded_equations(spec, eq)


@pytest.mark.parametrize("p, pieces, lam", [
    (3, [(1, 2)] * 3, Fraction(1, 3)),
    (5, [(1, 2)] * 3, Fraction(1, 3)),
    (3, [(1, 2)] * 4, Fraction(1, 4)),
    (3, [(1, 3), (1, 2), (1, 2)], Fraction(1, 4)),
    (3, [(4, 5), (4, 5)], Fraction(3, 5)),
], ids=["ss6-p3", "ss6-p5", "ss8", "H1/3+ss4", "H4/5+H4/5"])
def test_every_symbol_enters_the_equation_with_sign_plus_one(p, pieces, lam):
    # the graded leg puts the distinguished symbol into A with coefficient
    # +1, so setting u(x, y) = g must change a_x = -A_x by
    # +p^y <g^{p^twist}>, the other parameters at 0;
    # chi = F^h - sum A_x F^{h-x} carries the parameter with sign -1
    s, r = lam.denominator, lam.numerator
    ring = witt_for(p, s, 2 * s + 2)
    spec = deformation(split_display(ring, pieces), lam)
    eq = monodromy_equation(spec)
    h, g = spec.base.h, ring.field.generator()
    symbols = [(x, t) for x, ts in eq.terms.items() for t in ts
               if t.kind == "symbol"]
    assert len(symbols) == len(spec.strat.active)
    for x, t in symbols:
        y, rest = divmod(t.j + r * x, s)
        assert rest == 0 and t.value == f"u({x},{y})"
        values = dict.fromkeys(spec.strat.active, 0)
        values[x, y] = g
        a_x = ring.neg(spec.specialize(values).coeff(h - x))
        change = ring.sub(a_x, ring.neg(spec.chi.coeff(h - x)))
        lift = ring.teichmuller(ring.field.frobenius(g, t.twist))
        assert change == ring.scalar_mul(p ** y, lift)
        assert t.to_json()["sign"] == 1


@pytest.mark.parametrize("p, pieces, lam", [
    (3, [(1, 2)] * 3, Fraction(1, 3)),
    (5, [(1, 2)] * 3, Fraction(1, 3)),
    (3, [(1, 2)] * 5, Fraction(1, 5)),
    (3, [(1, 2)] * 7, Fraction(2, 7)),
    (3, [(1, 3), (1, 2), (1, 2)], Fraction(1, 4)),
    (3, [(4, 5), (4, 5)], Fraction(3, 5)),
    (3, [(2, 3), (2, 3)], Fraction(3, 5)),
], ids=["ss6-p3", "ss6-p5", "ss10", "ss14", "H1/3+ss4", "H4/5+H4/5",
        "H2/3+H2/3"])
def test_graded_legs_lose_nothing_without_b(p, pieces, lam):
    # the terms other than the distinguished z_1^M t^{-N} are z_1-free and
    # sit at t^(p^(h-x) - p^h), x >= 1; the window keeps a z_1-free
    # monomial only at t^0, so B, built here from seeded values as the
    # graded legs once did, projects to zero at every point they try;
    # the legs take M and N from the point, so the tower must hold that
    # distinguished term exactly once there
    s = lam.denominator
    ring = witt_for(p, s, 2 * s + 2)
    K = ring.field
    spec = deformation(split_display(ring, pieces), lam)
    eq = monodromy_equation(spec)
    graded = graded_equations(spec, eq)
    rng = random.Random(0)
    seen = 0
    for ell in (1, s):
        for x0, y0 in sorted(spec.strat.layer(ell)):
            M, N = p ** (eq.h - eq.d - y0), p ** eq.h - p ** (eq.h - x0)
            rest = [t for t in graded[ell - 1].terms
                    if not (t.kind == "symbol" and t.w_sub == 0
                            and t.x == x0 and t.u_exp == M
                            and t.t_exp == -N)]
            assert len(graded[ell - 1].terms) - len(rest) == 1, (ell, x0)
            assert all(t.x >= 1 and t.t_exp < 0 for t in rest), (ell, x0)
            b = {}
            for t in rest:
                c = t.value if t.kind == "const" else rng.randrange(1, K.q)
                if t.w_sub > 0:
                    c = K.mul(c, rng.randrange(1, K.q))
                b[(0,), t.t_exp] = K.add(b.get(((0,), t.t_exp), 0), c)
            B = slab_make(K, 1, b)
            assert laurent_projector(B, M, N).data == (), (ell, x0)
            seen += len(B.data)
    assert seen > 0


def test_graded_references_only_earlier_unknowns():
    _, _, spec = running_instance()
    strat = spec.strat
    anchor = (spec.lam.denominator, spec.lam.numerator)
    for g in graded_equations(spec):
        for t in g.terms:
            assert 0 <= t.w_sub < g.level
            if t.kind == "symbol":
                x = t.x
                y = next(y for (xx, y) in strat.region if xx == x
                         and t.value == f"u({x},{y})")
                earlier = {pt for j, layer in strat.layers.items()
                           if j <= g.level for pt in layer}
                assert (x, y) in earlier | {anchor}


def test_equation_json_round_trip():
    ring, _, spec = running_instance()
    eq = monodromy_equation(spec)
    blob = json.dumps(eq.to_json(), sort_keys=True)
    assert "u(3,1)" in blob


# -- certificate ----------------------------------------------------------


def test_certificate_legs_small_guard():
    # equation legs certify cheaply; the closure leg honestly declines
    # when the guard cannot fit the required quotient depth
    _, _, spec = running_instance()
    rep = largeness_certificate(spec.np0, spec.lam, 3, guard=20000)
    assert rep["pieces"] == [0, 1, 3]
    by_piece = {leg["piece"]: leg for leg in rep["legs"]}
    assert by_piece[0]["status"] == "certified"
    assert by_piece[1]["status"] == "certified"
    assert by_piece[3]["status"] == "certified"
    assert by_piece["closure"]["status"] == "failed"
    assert rep["verdict"] == "inconclusive"
    ev = by_piece[1]["evidence"]
    assert (ev["point"], ev["M"], ev["N"], ev["e"]) == ([2, 1], 9, 648, 9)
    assert ev["certificate"]["branch"] == "degree"
    json.dumps(rep)


def test_certificate_rejects_numerator_s_minus_1():
    ring = witt_for(3, 4, 10)
    base = split_display(ring, [(5, 6)])
    spec = deformation(base, Fraction(3, 4))
    with pytest.raises(PreconditionError):
        largeness_certificate(spec.np0, spec.lam, 3)


def test_certificate_rejects_small_s():
    ring = witt_for(3, 2, 6)
    base = split_display(ring, [(2, 3)])
    spec = deformation(base, Fraction(1, 2))
    with pytest.raises(PreconditionError):
        largeness_certificate(spec.np0, spec.lam, 3)


def test_certificate_rejects_slope_not_below():
    # 3/5 passes the numerator screen (3 <= 5-2) but sits above the base
    # slope 1/2, so the strictly-below precondition fires
    _, _, spec = running_instance()
    with pytest.raises(PreconditionError,
                       match="not strictly below the base slopes"):
        largeness_certificate(spec.np0, Fraction(3, 5), 3)