"""End-to-end acceptance gates, one test per guarantee.

Run with -v to get exactly one pass/fail line per gate.  Frozen counts
and payloads were produced by the generators below under the fixed seeds
and cross-checked against the independent oracles in the sibling test
modules before being written down here.
"""

import json
import random
import time
from fractions import Fraction as F
from math import gcd

from slopelab.arith.fields import field_make
from slopelab.arith.ramified import order_over
from slopelab.arith.witt import witt_for
from slopelab.display import (charpoly, charpoly_polygon, deformation,
                              split_display)
from slopelab.errors import GuardExceeded, SolutionFound
from slopelab.monodromy.artinschreier import (additive_make, as_reducible,
                                              as_reducible_oracle)
from slopelab.monodromy.equations import first_witt_equation
from slopelab.monodromy.slab import (laurent_projector, no_solution_certificate,
                                     slab_make)
from slopelab.polygon import attainable, np_make, np_merge, strata
from slopelab.unitgroup import (commutator_class, commutator_span,
                                generation_report, p2_power_report,
                                pth_power_check)

from oracles import subgroup_polynomial


def running_instance():
    """Slope-1/2 base of height 6, deformed toward 1/3."""
    ring = witt_for(3, 3, 8)
    return deformation(split_display(ring, [(3, 6)]), F(1, 3))


RUNNING_STAR = np_make([(F(1, 3), 3), (F(2, 3), 3)])


def test_gate_1_strata_layers_across_all_small_slopes():
    # Sweep every single-slope base above lam = r/s with 3 <= s <= 8,
    # r <= s - 2, height <= 14.  Where the one-step-up row exists
    # (c >= r + 2) the anchor layer is exactly {(s, r)} and the depth-1
    # and depth-s layers are populated.  On the boundary c = r + 1 the
    # depth-s layer has no room and must come out empty; the other two
    # claims still hold there.
    t0 = time.monotonic()
    interior = boundary = 0
    for s in range(3, 9):
        for r in range(1, s - 1):
            if gcd(r, s) != 1:
                continue
            lam = F(r, s)
            for h in range(2, 15):
                for c in range(1, h):
                    d = h - c
                    if F(c, h) <= lam:
                        continue
                    np0 = np_make([(F(c, h), h)])
                    if attainable(np0, lam) is None:
                        continue
                    st = strata(d, c, np0, lam)
                    assert st.layer(0) == frozenset({(s, r)}), (s, r, d, c)
                    assert st.layer(1), (s, r, d, c)
                    if c == r + 1:
                        assert not st.layer(s), (s, r, d, c)
                        boundary += 1
                    else:
                        assert st.layer(s), (s, r, d, c)
                        interior += 1
    assert interior == 323
    assert boundary == 39
    assert time.monotonic() - t0 < 10.0


def test_gate_2_charpoly_polygon_matches_block_sum():
    # Every multiset of coprime blocks (r, s) with total height <= 8
    # and both d >= 1 and c >= 1: the charpoly polygon of the product
    # display must equal the merged polygon of the summands.
    t0 = time.monotonic()
    W = witt_for(3, 1, 10)
    blocks = sorted((r, s) for s in range(1, 9) for r in range(0, s + 1)
                    if gcd(r, s) == 1)
    cases = 0

    def grow(start, acc, height):
        nonlocal cases
        if acc and sum(s - r for r, s in acc) and sum(r for r, _ in acc):
            got = charpoly_polygon(charpoly(split_display(W, list(acc))))
            want = np_merge(*[np_make([(F(r, s), s)]) for r, s in acc])
            assert got == want, acc
            cases += 1
        for k in range(start, len(blocks)):
            r, s = blocks[k]
            if height + s <= 8:
                acc.append((r, s))
                grow(k, acc, height + s)
                acc.pop()

    grow(0, [], 0)
    assert cases == 322
    assert time.monotonic() - t0 < 5.0


def test_gate_3_deformed_polygon_hits_target():
    spec = running_instance()
    assert spec.strat.np_star == RUNNING_STAR
    assert spec.deformed_polygon() == RUNNING_STAR
    # unit values for the parameters keep the polygon on target, not
    # just the symbolic units-by-convention computation
    ring = spec.base.ring
    rng = random.Random(11)
    for vals in ([{pt: 1 for pt in spec.strat.active}] +
                 [{pt: rng.randrange(1, ring.field.q)
                   for pt in spec.strat.active} for _ in range(3)]):
        assert charpoly_polygon(spec.specialize(vals)) == RUNNING_STAR

    rng = random.Random(20260823)
    cand = [(rb, sb) for sb in range(1, 5) for rb in range(1, sb + 1)
            if gcd(rb, sb) == 1]
    built = 0
    while built < 20:
        s = rng.choice([3, 4, 5])
        r = rng.choice([r for r in range(1, s) if gcd(r, s) == 1])
        lam = F(r, s)
        pool = [b for b in cand if F(b[0], b[1]) > lam]
        if not pool:
            continue
        pieces = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
        h = sum(sb for _, sb in pieces)
        c = sum(rb for rb, _ in pieces)
        if h > 10 or c == h:
            continue
        np0 = np_merge(*[np_make([(F(rb, sb), sb)]) for rb, sb in pieces])
        if attainable(np0, lam) is None:
            continue
        ringi = witt_for(3, s, max(2 * s + 2, c + 2))
        speci = deformation(split_display(ringi, pieces), lam)
        assert speci.deformed_polygon() == speci.strat.np_star, (pieces, lam)
        built += 1


def test_gate_4_reducibility_criterion_agrees_with_factoring():
    t0 = time.monotonic()
    table = [(2, 2, 1), (2, 2, 2), (4, 2, 2), (4, 2, 4), (8, 2, 3), (9, 3, 2)]
    checked = 0
    for q, p, deg in table:
        K = field_make(p, deg)
        for A in K.elements():
            verdict, witness = as_reducible(K, q, A)
            assert verdict == as_reducible_oracle(K, q, A), (q, p, deg, A)
            if verdict:
                G, a = witness
                assert subgroup_polynomial(K, G).eval(a) == A
            checked += 1
    assert checked == 43
    assert time.monotonic() - t0 < 30.0


def _random_slab(K, rng, nvars=2, spread=4):
    data = {}
    for _ in range(rng.randrange(1, 6)):
        z = tuple(rng.randrange(-spread, spread + 1) for _ in range(nvars))
        data[(z, rng.randrange(-spread, spread + 1))] = rng.randrange(1, K.q)
    return slab_make(K, nvars, data)


def _slab_add(a, b):
    acc = dict(a.data)
    for k, c in b.data:
        acc[k] = a.field.add(acc.get(k, 0), c)
    return slab_make(a.field, a.nvars, acc)


def _slab_pow_p(a):
    K = a.field
    return slab_make(K, a.nvars, {(tuple(e * K.p for e in z), t * K.p):
                                  K.pow(c, K.p) for (z, t), c in a.data})


def test_gate_5_no_solution_certificates_and_projector_laws():
    fields = [field_make(2, 1), field_make(3, 1), field_make(2, 2),
              field_make(3, 2), field_make(5, 1)]
    rng = random.Random(97)
    certified = {"degree": 0, "search": 0}
    solutions = guarded = attempts = 0
    while sum(certified.values()) < 60 and attempts < 400:
        attempts += 1
        K = rng.choice(fields)
        n = rng.choice([1, 1, 2])
        coeffs = {n: rng.randrange(1, K.q)}
        for j in range(n):
            if rng.random() < 0.5:
                c = rng.randrange(K.q)
                if c:
                    coeffs[j] = c
        Fp = additive_make(K, coeffs)
        pn = K.p ** n
        if attempts % 2:
            # steer half the draws into the bounded-search branch,
            # which needs p^n | gcd(M, N)
            M, N = pn * rng.randrange(1, 4), pn * rng.randrange(1, 4)
        else:
            M, N = rng.randrange(1, 9), rng.randrange(1, 9)
        entries = {((M, 0), -N): rng.randrange(1, K.q)}
        if rng.random() < 0.4:
            entries[((M, 0), -N + rng.randrange(1, 4))] = rng.randrange(1, K.q)
        A = slab_make(K, 2, entries)
        bdata = {}
        for _ in range(rng.randrange(0, 3)):
            bdata[((0, rng.randrange(0, 3)), rng.randrange(-2, 3))] = \
                rng.randrange(1, K.q)
        B = slab_make(K, 2, bdata)
        try:
            rep = no_solution_certificate(Fp, A, B, M, N, guard=10 ** 5)
        except GuardExceeded:
            guarded += 1
            continue
        except SolutionFound:
            # a genuine solution surfaced; the refusal is the point
            solutions += 1
            continue
        assert rep["conclusion"] == "no-solution"
        if rep["branch"] == "search":
            # the enumeration covered the whole forced-degree space
            assert rep["candidates_checked"] == K.q ** (rep["e"] // pn + 1)
        certified[rep["branch"]] += 1
    assert (attempts, solutions, guarded) == (89, 29, 0)
    assert certified == {"degree": 39, "search": 21}

    rng = random.Random(601)
    for _ in range(1000):
        K = rng.choice(fields)
        M, N = rng.randrange(1, 7), rng.randrange(1, 7)
        x = _random_slab(K, rng)
        y = _random_slab(K, rng)
        px = laurent_projector(x, M, N)
        assert laurent_projector(px, M, N) == px
        assert laurent_projector(_slab_pow_p(x), M, N) == _slab_pow_p(px)
        assert (laurent_projector(_slab_add(x, y), M, N)
                == _slab_add(px, laurent_projector(y, M, N)))


def test_gate_6_power_congruences():
    # commutator_class re-derives its closed form on every call, so the
    # exhaustive loops double as formula verification
    F9 = field_make(3, 2)
    comm9 = order_over(F9, 1, 4)
    for n in (1, 2):
        got = {commutator_class(comm9, x, y, n)
               for x in F9.elements() for y in F9.elements()}
        assert got == commutator_span(F9, 1, n)
    pow9 = order_over(F9, 1, 8)
    rng = random.Random(7)
    betas = [pow9.zero(), pow9.one()] + [
        pow9.from_digits(tuple(rng.randrange(9) for _ in range(pow9.N)))
        for _ in range(3)]
    for n in (1, 2):
        for alpha in F9.elements():
            for beta in betas:
                assert pth_power_check(pow9, alpha, beta, n)

    total = 0
    for p, s, r in ((5, 2, 1), (3, 3, 1), (3, 3, 2)):
        K = field_make(p, s)
        comm = order_over(K, r, 2 * s + 1)
        powc = order_over(K, r, 3 * s + 2)
        # each span lists q^2 values; build it once per (K, r, n)
        spans = {n: commutator_span(K, r, n) for n in range(1, 2 * s)}
        rng = random.Random(1000 * p + s + r)
        for _ in range(2000):
            n = rng.randrange(1, 2 * s)
            x, y = rng.randrange(K.q), rng.randrange(K.q)
            assert commutator_class(comm, x, y, n) in spans[n]
            total += 1
        for _ in range(1500):
            n = rng.randrange(1, 3)
            alpha = rng.randrange(K.q)
            beta = powc.from_digits(tuple(rng.randrange(K.q)
                                          for _ in range(powc.N)))
            assert pth_power_check(powc, alpha, beta, n)
            total += 1
    assert total == 10500

    # p = 2 breaks the depth-one congruence: the observed class is
    # alpha + alpha^2, and every nonzero alpha is a counterexample
    ctx2 = order_over(field_make(2, 3), 1, 8)
    rep = p2_power_report(ctx2)
    assert rep["holds"]
    assert rep["failing_alphas"] == list(range(1, 8))
    assert rep["level"] == 6
    assert not pth_power_check(ctx2, 1, ctx2.zero(), 1)


def test_gate_7_generation_tower():
    t0 = time.monotonic()
    F9 = field_make(3, 2)
    for n in range(1, 7):
        covered = [j for j in (0, 1, 2) if j < n]
        rep = generation_report(F9, 1, n, covered)
        assert rep["generates"], n
        assert rep["order"] == 8 * 9 ** (n - 1), n
        assert (rep["q"], rep["lambda"], rep["covered"]) == (9, "1/2", covered)
    for n in (2, 3, 4):
        assert not generation_report(F9, 1, n, [0])["generates"], n
    assert time.monotonic() - t0 < 60.0


def test_gate_8_first_level_splitting_data():
    spec = running_instance()
    data = first_witt_equation(spec.base.ring.field.p, spec.base.h,
                               spec.base.d, spec.lam, seed=0)
    p, h, s = spec.base.ring.field.p, spec.base.h, spec.lam.denominator
    assert (p, h, s) == (3, 6, 3)
    assert data["exponents"] == [702, 9]
    assert data["factored"] == [27, 26]
    assert p ** h - p ** (h - s) == p ** (h - s) * (p ** s - 1) == 702
    assert data["separable_degree"] == 26
    assert data["group_order"] == 26
    assert len(data["samples"]) == 16
    assert all(26 % deg == 0 for _, deg in data["samples"])
    assert data["attained"]


def test_gate_9_cli_certificate_end_to_end(tmp_path):
    from slopelab.cli import main
    out = tmp_path / "cert.json"
    rc = main(["certify", "--base", "ss6", "--lambda", "1/3",
               "--format", "json", "-o", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "large"
    assert rep["pieces"] == [0, 1, 3]
    assert all(leg["status"] == "certified" for leg in rep["legs"])
    # numerator s-1 and slope-not-below-base both refuse up front
    assert main(["certify", "--base", "ss6", "--lambda", "2/3"]) == 2
    assert main(["certify", "--base", "ss6", "--lambda", "3/5"]) == 2
