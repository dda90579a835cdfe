import hashlib
import random

import pytest

import slopelab.arith.fields as fields
from slopelab.arith import field_make
from slopelab.arith.fields import (FieldSpec, _count_monic_irreducibles,
                                   _irreducible, base_p_digits, field_modulus,
                                   poly_add, poly_compose, poly_frobenius,
                                   poly_gcd, poly_rem, poly_trim, polymulmod,
                                   power, prime_power)

from oracles import (field_digit_add, field_digit_neg,
                     irreducible_by_trial_division, poly_mul, poly_powmod)


def test_modulus_is_irreducible_small():
    for p, s in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        F = field_make(p, s)
        prime = field_make(p, 1)
        # no root in F_p: the remainder by X - a is the value at a
        assert all(poly_rem(prime, F.modulus, [prime.neg(a), 1])
                   for a in range(p))
        # every element satisfies x^q = x, and the multiplicative group is
        # cyclic of order q - 1 (checked separately), which pins down F_q
        for a in F.elements():
            assert F.pow(a, F.q) == a


def test_field_axioms_exhaustive_up_to_q9():
    # F_2 has the degenerate Zech table [None]: 1 + g^0 = 0
    for p, s in [(2, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        F = field_make(p, s)
        els = F.elements()
        for a in els:
            assert F.add(a, 0) == a
            assert F.mul(a, 1 if F.q > 1 else a) == a
            assert F.add(a, F.neg(a)) == 0
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        for a in F.units():
            assert F.mul(a, F.inv(a)) == 1


def test_generator_has_full_order():
    for p, s in [(2, 2), (2, 4), (3, 2), (3, 3), (5, 2), (2, 6)]:
        F = field_make(p, s)
        g = F.generator()
        assert F.order(g) == F.q - 1
        seen = set()
        x = 1
        for _ in range(F.q - 1):
            seen.add(x)
            x = F.mul(x, g)
        assert len(seen) == F.q - 1


def test_frobenius_is_pth_power_and_additive():
    rng = random.Random(1)
    for p, s in [(2, 3), (3, 2), (3, 3)]:
        F = field_make(p, s)
        for _ in range(50):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            assert F.frobenius(a, 1) == F.pow(a, p)
            assert F.frobenius(F.add(a, b), 1) == F.add(F.frobenius(a, 1), F.frobenius(b, 1))
        # frobenius has order s
        a = F.generator()
        assert F.frobenius(a, s) == a
        assert any(F.frobenius(a, k) != a for k in range(1, s))


def test_subfield_and_embedding():
    F27 = field_make(3, 3)
    sub = F27.subfield_elements(3)
    assert sorted(sub) == [0, 1, 2]

    F16 = field_make(2, 4)
    img = F16.subfield_elements(4)
    assert len(img) == 4
    # the copy of F_4 is closed under the field operations of F_16
    for a in img:
        for b in img:
            assert F16.add(a, b) in img and F16.mul(a, b) in img


def test_seed_selects_distinct_moduli():
    a = field_make(3, 3, seed=0)
    b = field_make(3, 3, seed=1)
    assert a.modulus != b.modulus
    # both define fields of the same size with the same scalar subfield
    assert a.q == b.q == 27
    assert field_make(3, 3, seed=0).modulus == a.modulus


def test_add_matches_digitwise_carryless():
    def check(F, pairs):
        p, s = F.p, F.s
        for a, b in pairs:
            assert F.add(a, b) == field_digit_add(p, s, a, b)
            assert F.neg(b) == field_digit_neg(p, s, b)
            assert F.sub(a, b) == field_digit_add(p, s, a, field_digit_neg(p, s, b))

    for p, s in [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2)]:
        F = field_make(p, s)
        check(F, [(a, b) for a in F.elements() for b in F.elements()])
    rng = random.Random(5)
    for p, s in [(2, 11), (3, 7)]:
        F = field_make(p, s)
        check(F, [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(2000)])


def test_reducible_modulus_is_rejected():
    # x^3 + 1 = (x + 1)(x^2 + x + 1) over F_2: x passes the prime-divisor
    # test for q - 1 = 7 but has order 3, so x^7 != 1
    with pytest.raises(ValueError, match="not irreducible"):
        FieldSpec(2, 3, (1, 0, 0, 1))
    # all 121 monic moduli of these degrees: the check is exactly irreducibility
    for p, s in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]:
        for enc in range(p ** s):
            modulus = tuple(enc // p ** i % p for i in range(s)) + (1,)
            try:
                FieldSpec(p, s, modulus)
                built = True
            except ValueError:
                built = False
            assert built == _irreducible(p, list(modulus)), modulus


def test_poly_rem_by_zero_polynomial_raises():
    with pytest.raises(ZeroDivisionError):
        poly_rem(field_make(3, 1), [1, 2], [])


def test_poly_gcd_basics():
    # gcd over F_2 of x^2+1 = (x+1)^2 and x+1
    F2 = field_make(2, 1)
    g = poly_gcd(F2, [1, 0, 1], [1, 1])
    assert g == [1, 1]


# -- the shared kernels ------------------------------------------------------


def test_poly_frobenius_matches_square_and_multiply():
    # f^(p^k) mod a modulus, against dense square-and-multiply; k runs
    # past s, and f = 0, k = 0 and deg f > deg mod all occur.  The last
    # modulus per field is not monic, so each fold divides by its lead.
    rng = random.Random(11)
    for p, s in [(2, 2), (3, 2), (5, 2), (3, 3), (3, 6)]:
        K = field_make(p, s)
        for t in range(5):
            d = rng.randrange(1, 6)
            lead = 1 if t < 4 else rng.randrange(2, K.q)
            mod = [rng.randrange(K.q) for _ in range(d)] + [lead]
            for f in ([], [1], [rng.randrange(K.q) for _ in range(3 * d)]):
                f = poly_trim(f)
                for k in range(s + 3):
                    assert poly_frobenius(K, f, k, mod) == \
                        poly_powmod(K, f, p ** k, mod), (K, f, k, mod)


def test_poly_compose_is_the_sum_of_powers_of_h():
    # g(h) mod a random dense monic modulus against sum g_i h^i built from
    # the reference product and powers; deg h > 1 runs Horner on inputs the
    # Artin-Schreier oracle, whose h is linear, never reaches
    rng = random.Random(31)
    for p, s in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]:
        K = field_make(p, s)
        for _ in range(6):
            d = rng.randrange(2, 7)
            mod = [rng.randrange(K.q) for _ in range(d)] + [1]
            g = poly_trim([rng.randrange(K.q)
                           for _ in range(rng.randrange(9))])
            h = poly_trim([rng.randrange(K.q) for _ in range(d + 2)])
            want = []
            for i, c in enumerate(g):
                term = poly_mul(K, [c], poly_powmod(K, h, i, mod))
                want = poly_rem(K, poly_add(K, want, term), mod)
            assert poly_compose(K, g, h, mod) == want, (K, g, h, mod)
    assert poly_compose(K, [], h, mod) == []
    assert poly_compose(K, [0, 1], [], mod) == []


def test_polymulmod_is_the_field_product():
    rng = random.Random(0)
    for p, s in [(2, 3), (3, 2), (5, 2), (2, 9), (3, 5)]:
        F = field_make(p, s)
        pairs = ([(a, b) for a in F.elements() for b in F.elements()]
                 if F.q <= 25 else
                 [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(300)])
        for a, b in pairs:
            prod = polymulmod(p, F.modulus, F.coeffs(a), F.coeffs(b))
            assert len(prod) == s
            assert F.encode(prod) == F.mul(a, b)


def test_polymulmod_over_z_mod_n_matches_schoolbook():
    # n need not be prime: (Z/27)[x]/(x^3 + 2x + 7), reduced term by term
    n, modulus = 27, (7, 2, 0, 1)
    rng = random.Random(1)
    for _ in range(200):
        a = [rng.randrange(n) for _ in range(3)]
        b = [rng.randrange(n) for _ in range(3)]
        full = [0] * 5
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                full[i + j] += x * y
        for k in (4, 3):
            c, full[k] = full[k], 0
            for i in range(3):
                full[k - 3 + i] -= c * modulus[i]
        assert polymulmod(n, modulus, a, b) == [c % n for c in full[:3]]


def test_power_agrees_with_builtin_pow_and_rejects_negative_exponents():
    def mul(a, b):
        return a * b % 1009
    for a in (0, 1, 2, 1008):
        for e in range(40):
            assert power(mul, 1, a, e) == pow(a, e, 1009)
    with pytest.raises(ValueError, match="negative exponent"):
        power(mul, 1, 2, -1)


def test_power_makes_bitlen_plus_popcount_minus_two_products():
    # the accumulator starts at the lowest set bit, so a^1 takes no product
    # and no call multiplies by one
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b % 1009
    for e, products in {0: 0, 1: 0, 2: 1, 3: 2, 8: 3, 728: 13}.items():
        calls.clear()
        assert power(mul, 1, 3, e) == pow(3, e, 1009)
        assert len(calls) == products, e
        assert all(1 not in pair for pair in calls)


def test_field_modulus_is_the_modulus_of_field_make():
    for p, s in [(2, 1), (2, 4), (3, 3), (5, 2)]:
        for seed in range(4):
            assert field_modulus(p, s, seed) == field_make(p, s, seed).modulus


def test_field_modulus_builds_no_tables(monkeypatch):
    built = []
    init = FieldSpec.__init__

    def spy(self, p, s, *args):
        built.append((p, s))
        init(self, p, s, *args)
    monkeypatch.setattr(FieldSpec, "__init__", spy)
    # 3^15 has 14.3M elements; only its modulus is asked for
    f = field_modulus(3, 15, 1)
    assert len(f) == 16 and f[-1] == 1 and _irreducible(3, list(f))
    assert all(s == 1 for _, s in built)


def test_irreducible_matches_trial_division():
    # every monic polynomial of these degrees; the counts also tie the
    # enumeration to the Mobius count that seeds index into
    for p, top in [(2, 10), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2)]:
        for s in range(1, top + 1):
            found = 0
            for enc in range(p ** s):
                f = base_p_digits(enc, p, s) + [1]
                irreducible = _irreducible(p, f)
                assert irreducible == irreducible_by_trial_division(p, f), f
                found += irreducible
            assert found == _count_monic_irreducibles(p, s), (p, s)


def test_field_modulus_grid_is_pinned():
    # every seed below the irreducible count of F_729 (116), of F_{2^9} (56)
    # and of degree 3 over F_7 (112), and the seeds leg 0 runs at p = 7 and
    # p = 101; the hash was recorded under the full Rabin criterion
    grid = ([(3, 6, k) for k in range(116)] + [(2, 9, k) for k in range(56)]
            + [(7, 3, k) for k in range(112)]
            + [(7, 9, k) for k in (0, 13, 51)]
            + [(101, 3, k) for k in (0, 13, 51)])
    text = "".join(f"{p} {s} {k} {list(field_modulus(p, s, k))}\n"
                   for p, s, k in grid)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7fd1b7fe5ed4436051276186e8036872ee99dce3519dc8bbf3e3d35ba039c3a0")


def test_field_modulus_scan_stops_at_the_first_common_factor(monkeypatch):
    # seed 100 of F_729 is candidate 638; the full Rabin criterion made 11
    # p-th-power passes for each, 7,018 in all
    passes = []
    frobenius = fields.poly_frobenius

    def spy(K, f, k, mod):
        passes.append(k)
        return frobenius(K, f, k, mod)
    monkeypatch.setattr(fields, "poly_frobenius", spy)
    assert field_modulus.__wrapped__(3, 6, 100) == (1, 2, 1, 2, 1, 2, 1)
    assert sum(passes) == 508


def test_prime_power_decoding():
    assert prime_power(729) == (3, 6)
    assert prime_power(2) == (2, 1)
    assert prime_power(1000000007) == (1000000007, 1)
    for q in (0, 1, 12, 36, 1000):
        assert prime_power(q) is None
