"""Command-line surface: grammars, report contracts, exit codes."""

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import slopelab.arith.fields as fields
import slopelab.arith.witt as witt
import slopelab.display as display
import slopelab.monodromy.certify as certify
import slopelab.monodromy.equations as equations
import slopelab.polygon as polygon
import slopelab.unitgroup as unitgroup
from slopelab.arith.fields import FieldSpec, field_make
from slopelab.arith.ramified import RamifiedOrder
from slopelab.arith.witt import WittRing, witt_for
from slopelab.cli import build_parser, main, parse_base
from slopelab.errors import SolutionFound
from slopelab.polygon import np_from_breakpoints, np_make, np_merge
from slopelab.serialize import np_from_json


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_attain_reports_witness(capsys):
    rc, out = run(capsys, "np", "attain", "--poly", "1/2x6", "--lambda", "1/3")
    assert rc == 0
    assert out == 'attainable, witness "(1/3 x3)(2/3 x3)"\n'


def test_attain_negative_is_still_a_clean_answer(capsys):
    rc, out = run(capsys, "np", "attain", "--poly", "1/2x6", "--lambda", "1/5")
    assert rc == 0
    assert out == "not attainable\n"


@pytest.mark.parametrize("argv, digest", [
    (("attain", "--poly", "1/2x6", "--lambda", "1/3"),
     "481f08545f86cf041fdd7facb787a70c3b842990336d82801b54021751ac1360"),
    (("compare", "1/3x3,2/3x3", "1/2x6"),
     "99070381db88bbf84f95026ac0c0a8501d9fe22ce739e92c258b72d276c3b0e6"),
], ids=["attain", "compare"])
def test_np_json_bytes_are_pinned(capsys, argv, digest):
    # the polygon and witness records reach the report only through their
    # to_json dicts; a record that reached canonical_dumps itself would be
    # written as a JSON list
    rc, out = run(capsys, "np", *argv, "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compare_text(capsys):
    rc, out = run(capsys, "np", "compare", "1/2x6", "1/2x6")
    assert (rc, out) == (0, "equal\n")
    rc, out = run(capsys, "np", "compare", "1/3x3 2/3x3", "1/2x6")
    assert (rc, out) == (0, "below\n")
    rc, out = run(capsys, "np", "compare", "1/2x6", "1/3x3 2/3x3")
    assert (rc, out) == (0, "above\n")


def test_adjoin_json_round_trips(capsys):
    rc, out = run(capsys, "np", "adjoin", "--poly", "1/2x6",
                  "--point", "3,1", "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["pretty"] == "(1/3 x3)(2/3 x3)"
    assert np_from_json(rep["result"]) == np_from_breakpoints([(0, 0), (3, 1),
                                                              (6, 3)])


def test_symmetric_json_bytes_are_pinned(capsys):
    rc, out = run(capsys, "np", "symmetric", "--poly", "1/2x6",
                  "--lambda", "1/3", "--format", "json")
    assert rc == 0
    assert json.loads(out)["pretty"] == "(1/3 x3)(2/3 x3)"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d45db9766ede7938ac7c8c000562aa6aa8f1d29a8ec8593957f20f582e0c7016"


def test_symmetric_needs_a_symmetric_polygon(capsys):
    rc, _ = run(capsys, "np", "symmetric", "--poly", "1/3x3",
                "--lambda", "1/3")
    assert rc == 2


def test_adjoin_unreachable_point(capsys):
    rc, _ = run(capsys, "np", "adjoin", "--poly", "1/2x6", "--point", "9,1")
    assert rc == 2


def test_deform_text_lines(capsys):
    rc, out = run(capsys, "deform", "--base", "ss6", "--lambda", "1/3")
    assert rc == 0
    assert out.splitlines() == [
        "strata {(2,1),(3,1),(3,2),(4,2)} and 4-term chi",
        "np(*) = (1/3 x3)(2/3 x3)",
        "equation terms at F-offsets [2, 3, 4, 6]",
    ]


def test_deform_json_contract(capsys, tmp_path):
    out = tmp_path / "deform.json"
    rc = main(["deform", "--base", "ss6", "--lambda", "1/3",
               "--format", "json", "-o", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["chi_terms"] == 4
    assert np_from_json(rep["deformed_polygon"]) == np_from_breakpoints(
        [(0, 0), (3, 1), (6, 3)])
    assert rep["base"] == {"d": 3, "c": 3, "polygon": {
        "segments": [{"slope": "1/2", "width": 6}]}}
    # repeated runs are byte-identical
    again = tmp_path / "again.json"
    main(["deform", "--base", "ss6", "--lambda", "1/3",
          "--format", "json", "-o", str(again)])
    assert out.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("argv, digest", [
    (("--base", "ss6", "--lambda", "1/3"),
     "fa29002bc846e42daf468e229cbd5c4ae9bb3711598a418ce8694333e14c6dd7"),
    (("--base", "H1/3+ss4", "--lambda", "1/4"),
     "1e32dccb2eaff68dc8bfff1ecf42d2ab8019261d65b6b8f347a59f89344647fb"),
    (("--base", "ss8", "--lambda", "1/4", "--p", "2"),
     "6d63d5b2dbdd7f228858efad4da25aafbd58e85a9c04144ff657a4d1ae1f8e24"),
    (("--base", "H4/5+H4/5", "--lambda", "3/5"),
     "9de92148d6bf246a4badd224da945ffc4c3d40d3a5bd85928a59a872607072c0"),
    (("--base", "ss10", "--lambda", "2/5"),
     "931354740db94cba25119e1cd0474b9c6e5b2c0162bec48ad777f551b243aa5e"),
    (("--base", "ss14", "--lambda", "2/7"),
     "433bd977fb96fc70ad15617ef24a0b8203e87f99d131341ed6dca81c468b96f5"),
    (("--base", "ss14", "--lambda", "3/7"),
     "037ca810c69dec519cbb03bde42998e2dd089f4353c769f54d8b49ce8989ed50"),
    (("--base", "H2/3+H2/3", "--lambda", "3/5"),
     "e3f61396b563a555aed48a1c31da2c0fb93279a6d51f327ef60621ab424e92a0"),
], ids=["ss6", "H1/3+ss4", "ss8-p2", "H4/5+H4/5", "ss10", "ss14-2/7",
        "ss14-3/7", "H2/3+H2/3"])
def test_deform_json_bytes_are_pinned(capsys, argv, digest):
    # the strata, the symbolic charpoly and the equation, byte for byte
    rc, out = run(capsys, "deform", *argv, "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("--base", "ss14", "--lambda", "2/7"),
     "5484d217de7dcc92ef94526d907eef486f2248c4a92c41452072c910bbb65941"),
    (("--base", "H4/5+H4/5", "--lambda", "3/5"),
     "9cec7c0af3782a38b057aa555f00c34127909ea4287fcab070be121d502a5f2f"),
], ids=["ss14-2/7", "H4/5+H4/5"])
def test_deform_text_bytes_are_pinned(capsys, argv, digest):
    # the strata, the chi term count, np(*) and the equation offsets
    rc, out = run(capsys, "deform", *argv, "--format", "text")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deform_builds_only_the_prime_field(capsys, monkeypatch):
    # the base is a sum of blocks over F_p, so W_m(F_p) carries every
    # digit, and F_{5^7} is never built; the digest is the one W_m(F_{5^7})
    # gave
    made, make = [], fields.field_make

    def spy(p, s, seed=0):
        made.append(s)
        return make(p, s, seed)
    monkeypatch.setattr(fields, "field_make", spy)
    monkeypatch.setattr(witt, "field_make", spy)
    rc, out = run(capsys, "deform", "--base", "ss14", "--lambda", "2/7",
                  "--p", "5", "--format", "json")
    assert rc == 0 and made and set(made) == {1}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f0d8a2c8d3a443c33a6a3c237af7279033f49c57f9c2c1db99bdd32e0c3df6da"


@pytest.mark.parametrize("argv, digest", [
    (("--q", "9", "--field", "F729", "--all"),
     "ee9d051a35be4f31e99455559840462bee20cb230e4b2fdb99a7ee4980a633d5"),
    (("--q", "64", "--field", "F64", "--all"),
     "1891b04e1ed39de3ed94ad4eb2ab12560a3a4ae3ce95f94cd8084fb63f7c533a"),
    (("--q", "16", "--field", "F256", "--all"),
     "e99f04b23d02bd24578252f1119b0a9716f96c9daea23081b6b71e8a05300414"),
    (("--q", "729", "--field", "F729", "--a", "7"),
     "16eeb623e86e32cd234878fee29d036f6579d9f446d6a57d5744e6544457f748"),
    # the oracle's walks on the largest f, of degree 27 and 729
    (("--q", "27", "--field", "F729", "--all"),
     "101e3d2874150e568ad3a26252ad4120447c29848f08c14d6c822e516814c7f6"),
    (("--q", "729", "--field", "F729", "--all"),
     "5e78352ee289e52159190e3dc00f4492f3e4073e33fcd1826dd66316a6dd2506"),
], ids=["F9-in-F729", "F64", "F16-in-F256", "F729-a7", "F27-in-F729",
        "F729"])
def test_as_json_bytes_are_pinned(capsys, argv, digest):
    # the criterion's witnesses and the oracle's verdicts; the digests
    # come from the exhaustive walk over every subgroup of F_q
    rc, out = run(capsys, "as", "test", *argv, "--format", "json",
                  "--seed", "0")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_as_over_f256_with_q_256_agrees(capsys):
    # all 255 lines of F_256, against the factoring oracle; digest as above
    rc, out = run(capsys, "as", "test", "--q", "256", "--field", "F256",
                  "--a", "7", "--format", "json", "--seed", "0")
    assert rc == 0
    assert json.loads(out)["agree"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b29260aad2a5418b5e23708022e9e86b009ec00498a97f376113d5c0ecfb4ddd"


@pytest.mark.parametrize("argv, code, digest", [
    (("--base", "ss6", "--lambda", "1/3"), 0,
     "30fc2f19b37f55e86fa99c399ef743616474cf16f05c0b576dfd20d2fbc7f8be"),
    (("--base", "ss6", "--lambda", "1/3", "--p", "2", "--guard", "100000"), 0,
     "82ea876a5bb9dd03357c1f5a8f84db4c70965a0311539a3133af080d56a46577"),
    (("--base", "ss8", "--lambda", "1/4", "--p", "3"), 3,
     "8028b76bab9aa935e3343ad2eb20ef3e01aeaf8b0f5d465f98ea6d6bea918226"),
    (("--base", "H4/5+H4/5", "--lambda", "3/5"), 3,
     "8300a483a3f8461efb94ea93318f16311dd24f6868e4e5ce73b75f96db6ca4f3"),
    (("--base", "ss10", "--lambda", "1/5", "--p", "3"), 3,
     "1d901cee8a5881b0941c7909a167ff1239b4cdebd7fd5146296fb58a7f15ec63"),
    (("--base", "ss14", "--lambda", "2/7", "--p", "3"), 3,
     "e647e4d37fb82bad84547387415caa0a6ef0a60de54b4e594e0a431b4271608c"),
    (("--base", "ss6", "--lambda", "1/3", "--p", "5"), 3,
     "419bbe878803a8efb2a560c2005a2f8dbb52d084392367ef1b59d14ef22625b0"),
    (("--base", "H1/3+ss4", "--lambda", "1/4"), 3,
     "28c4f982c23f3c9cb5bd51539be232099db9bd73259215a917a3056add380be0"),
    # the graded legs read no seeded value, so the seed moves only leg 0
    (("--base", "ss6", "--lambda", "1/3", "--seed", "5"), 0,
     "7b0f1dd4bf6d5a4ca4d1e948816ab9d6dce0b05a62854f3b998d104482afac7b"),
    # leg 0 fails: its largest sampled degree is 171 of 342
    (("--base", "ss6", "--lambda", "1/3", "--p", "7", "--seed", "51"), 3,
     "c179ab124ef3dc64df48b17ca6e3e13ec97a305db3b3e763005fc8b26a90a54a"),
    # h - d - r = 2, so leg 0's exponents are [234, 9]
    (("--base", "H1/1+ss4", "--lambda", "1/3", "--seed", "0"), 0,
     "56057af2b710e3075830e683e1e747ba29acf0f8206d86cc569a54a53eb4dbe1"),
], ids=["ss6", "ss6-p2", "ss8-p3", "H4/5+H4/5", "ss10-p3", "ss14-p3",
        "ss6-p5", "H1/3+ss4", "ss6-seed5", "ss6-p7-seed51", "H1/1+ss4"])
def test_certify_json_bytes_are_pinned(capsys, argv, code, digest):
    # all three legs; the closure leg multiplies in the ramified order
    rc, out = run(capsys, "certify", *argv, "--format", "json",
                  *(() if "--seed" in argv else ("--seed", "0")))
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_REFUSE_MONODROMY_EQUATION = """
import sys
import slopelab.monodromy.equations as equations

def refuse(*args, **kwargs):
    raise AssertionError("certify built the monodromy equation")

equations.monodromy_equation = refuse
from slopelab.cli import main
sys.exit(main(["certify", "--base", "ss6", "--lambda", "1/3",
               "--format", "json"]))
"""


def test_certify_builds_no_monodromy_equation():
    # leg 0 reads its anchor from the stratum; a fresh process, so that
    # certify's `from .equations import` binds the refusing function
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run([sys.executable, "-c", _REFUSE_MONODROMY_EQUATION],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "30fc2f19b37f55e86fa99c399ef743616474cf16f05c0b576dfd20d2fbc7f8be"


@pytest.mark.parametrize("base, precisions", [
    ("ss20", (11, 19)),
    ("ss6", (4, 8)),
])
def test_certify_report_does_not_depend_on_the_precision(capsys, base,
                                                         precisions):
    # certify has no precision: it reads the base polygon, which the
    # display route gives at any precision that keeps the constant term
    # p^c, and deform works its precision out as max(2s + 2, c + 1)
    pieces = parse_base(base)
    np0 = np_merge(*(np_make([(Fraction(r, s), s)]) for r, s in pieces))
    for m in precisions:
        spec = display.deformation(
            display.split_display(witt_for(3, 3, m), pieces), Fraction(1, 3))
        assert spec.np0 == np0
    # c = 10 >= 2s + 2 = 8 for ss20, which a fixed 2s + 2 refused
    assert main(["certify", "--base", base, "--lambda", "1/3"]) == \
        (3 if base == "ss20" else 0)
    assert main(["deform", "--base", base, "--lambda", "1/3"]) == 0
    assert "precondition" not in capsys.readouterr().err


@pytest.mark.parametrize("p, digest", [
    ("3", "30fc2f19b37f55e86fa99c399ef743616474cf16f05c0b576dfd20d2fbc7f8be"),
    ("2", "d23a9580eea41111829ef3f063a6f141a56d6d75ac71ee073098ba0d0b5c417b"),
])
def test_certify_builds_no_display(capsys, monkeypatch, p, digest):
    # the legs read the base polygon and its strata; no Witt ring, split
    # display or charpoly is on the path
    def refuse(*args, **kwargs):
        raise AssertionError("certify built a display")
    monkeypatch.setattr(witt, "witt_for", refuse)
    monkeypatch.setattr(display, "split_display", refuse)
    monkeypatch.setattr(display, "charpoly", refuse)
    rc, out = run(capsys, "certify", "--base", "ss6", "--lambda", "1/3",
                  "--p", p, "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["certify", "deform"])
def test_strata_region_above_guard_exits_2_before_building_anything(
        capsys, monkeypatch, command):
    # ss20000 has d = c = 10000: plot's region guard, charged before F_q
    built = []
    for mod in (fields, witt, certify):
        monkeypatch.setattr(mod, "field_make", lambda *args: built.append(args))
    t0 = time.monotonic()
    assert main([command, "--base", "ss20000", "--lambda", "1/3"]) == 2
    assert time.monotonic() - t0 < 1.0
    assert built == []
    assert capsys.readouterr() == ("", (
        "slopelab: precondition violated: region of d * c = 100000000 points "
        "exceeds guard 10000000\n"))
    assert main([command, "--base", "ss200", "--lambda", "1/3",
                 "--guard", "9999"]) == 2
    assert built == []


def test_certify_refuses_a_long_leg_0_modulus_scan_before_building_anything(
        capsys, monkeypatch):
    # seed 2,000,000 indexes irreducible 2,000,000 of the 4,483,696 of
    # degree 9 over F_7, so leg 0 would test about 9 * 2,000,001 candidates
    built = []
    for mod in (fields, witt, certify):
        monkeypatch.setattr(mod, "field_make", lambda *args: built.append(args))
    monkeypatch.setattr(equations, "field_modulus",
                        lambda *args: built.append(args))
    t0 = time.monotonic()
    assert main(["certify", "--base", "ss6", "--lambda", "1/3", "--p", "7",
                 "--seed", "2000000"]) == 2
    assert time.monotonic() - t0 < 1.0
    assert built == []
    assert capsys.readouterr() == ("", (
        "slopelab: precondition violated: leg 0's modulus scan of about "
        "3s * (seed index + 1) = 18000009 candidates (irreducibles of degree "
        "9 over F_7 have density about 1/9) exceeds guard 10000000\n"))
    # p = 2 has 56 irreducibles of degree 9: seed 55 expects 504 candidates
    assert main(["certify", "--base", "ss6", "--lambda", "1/3", "--p", "2",
                 "--seed", "55", "--guard", "503"]) == 2
    assert built == []


def test_certify_admits_a_leg_0_modulus_scan_at_the_guard(capsys):
    rc, out = run(capsys, "certify", "--base", "ss6", "--lambda", "1/3",
                  "--p", "2", "--seed", "55", "--guard", "504")
    assert (rc, out) == (3, "pieces {0,1,3} certified, {closure} failed, "
                            "verdict inconclusive\n")


@pytest.mark.parametrize("base", ["ss24", "ss40"])
def test_certify_tall_base_refuses_its_search_without_forming_it(capsys,
                                                                 base):
    # delta + 1 > guard.bit_length() refuses q^(delta+1) before forming it
    t0 = time.monotonic()
    rc, out = run(capsys, "certify", "--base", base, "--lambda", "1/3",
                  "--format", "json")
    assert time.monotonic() - t0 < 2.0
    assert rc == 3
    attempts = [a["error"] for leg in json.loads(out)["legs"][1:3]
                for a in leg["evidence"]["attempts"]]
    assert attempts and all(
        re.fullmatch(r"search space 27\^\d+ exceeds guard 10000000", e)
        for e in attempts)


@pytest.mark.parametrize("argv, digest", [
    (["--p", "3", "--s", "3", "--n", "3"],
     "c773c0eab419d28d021071e374aeed61d16301fbe74fdd042e107807356075b4"),
    (["--p", "2", "--s", "3", "--n", "4"],      # q^2 <= 500: every pair
     "0b0d0e9d117758597913934eff58dd245743fbe68b534067ee6c1c09cfb7aec7"),
    (["--p", "5", "--s", "3", "--r", "2", "--n", "2"],
     "2b863d638fe66b374570bc430904297ef08b9bdb74d613b3a8606990e08f83f5"),
    (["--p", "3", "--s", "2", "--n", "6"],
     "277fc69391bf5d026240bb57dcee6afaa84875f4bf6aaf41a7428510aa961f7f"),
])
def test_units_json_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    # the commutator sweep, the p-th-power checks and the generation order;
    # every level they read comes from the slots, so no digit is expanded
    expanded = []
    digits = WittRing.digits
    monkeypatch.setattr(WittRing, "digits",
                        lambda self, a: expanded.append(a) or digits(self, a))
    rc, out = run(capsys, "units", "verify", *argv, "--format", "json",
                  "--seed", "0")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert expanded == []


@pytest.mark.parametrize("seed", [0, 5])
def test_units_verify_checks_each_distinct_pair_once_without_inverses(
        capsys, monkeypatch, seed):
    # at q = 27 the sweep draws 500 pairs; each distinct pair is checked
    # once per depth n <= s + 1, from uv - vu = ab - ba with no Newton
    # inverse, so every product multiplies two pi-monomials: one nonzero
    # slot each, none when the digit x or y is 0
    rng = random.Random(seed)
    drawn = {(rng.randrange(27), rng.randrange(27)) for _ in range(500)}
    inverted, calls, inside, slots = [], [], [], []
    inv, mul = RamifiedOrder.inv, RamifiedOrder.mul
    commutator_class = unitgroup.commutator_class

    def counted_inv(self, a):
        if inside:
            inverted.append(a)
        return inv(self, a)

    def counted_mul(self, a, b):
        if inside:
            slots.append(tuple(sum(map(any, c)) for c in (a, b)))
        return mul(self, a, b)

    def marked(ctx, x, y, n):
        calls.append((n, x, y))
        inside.append(n)
        try:
            return commutator_class(ctx, x, y, n)
        finally:
            inside.pop()
    monkeypatch.setattr(RamifiedOrder, "inv", counted_inv)
    monkeypatch.setattr(RamifiedOrder, "mul", counted_mul)
    monkeypatch.setattr(unitgroup, "commutator_class", marked)
    assert main(["units", "verify", "--p", "3", "--s", "3", "--n", "3",
                 "--seed", str(seed)]) == 0
    assert inverted == []
    # commutator_class multiplies ab, then ba
    assert slots == [pair for _, x, y in calls
                     for pair in ((x != 0, y != 0), (y != 0, x != 0))]
    assert len(calls) == 4 * len(drawn) < 4 * 500
    assert set(calls) == {(n, x, y) for n in range(1, 5) for x, y in drawn}


def test_certify_small_guard_is_honestly_inconclusive(capsys):
    rc, out = run(capsys, "certify", "--base", "ss6", "--lambda", "1/3",
                  "--guard", "20000")
    assert rc == 3
    assert "verdict inconclusive" in out
    assert "pieces {0,1,3} certified" in out
    assert "{closure} failed" in out


def test_certify_solution_found_exits_3(capsys, monkeypatch):
    def found(*args, **kwargs):
        raise SolutionFound("projected equation has a solution")
    monkeypatch.setattr(certify, "largeness_certificate", found)
    assert main(["certify", "--base", "ss6", "--lambda", "1/3"]) == 3
    assert "no certificate" in capsys.readouterr().err


def test_certify_rejects_top_numerator(capsys):
    assert main(["certify", "--base", "ss6", "--lambda", "2/3"]) == 2


@pytest.mark.parametrize("extra", [[], ["--p", "2", "--guard", "100000"]])
def test_certify_builds_no_field_of_degree_3s(capsys, monkeypatch, extra):
    # leg 0 samples the cubic extension F_{p^9} by its modulus alone; the
    # cache is cleared so that every field certify asks for is built here
    built, init = [], FieldSpec.__init__

    def spy(self, p, s, *args):
        built.append(s)
        init(self, p, s, *args)
    monkeypatch.setattr(FieldSpec, "__init__", spy)
    field_make.cache_clear()
    assert main(["certify", "--base", "ss6", "--lambda", "1/3", *extra]) == 0
    assert "verdict large" in capsys.readouterr().out
    assert 3 in built and 9 not in built


@pytest.mark.parametrize("base, lam, seconds", [("ss8", "1/4", 2.0),
                                                 ("ss10", "1/5", 5.0)])
def test_certify_deep_slopes_at_p3_fail_only_at_the_closure(capsys, base, lam,
                                                            seconds):
    t0 = time.monotonic()
    rc, out = run(capsys, "certify", "--base", base, "--lambda", lam,
                  "--p", "3", "--format", "json")
    assert time.monotonic() - t0 < seconds
    assert rc == 3
    rep = json.loads(out)
    s = int(lam.split("/")[1])
    assert rep["verdict"] == "inconclusive"
    assert {l["piece"]: l["status"] for l in rep["legs"]} == {
        0: "certified", 1: "certified", s: "certified", "closure": "failed"}


def test_as_exhaustive_agreement(capsys):
    rc, out = run(capsys, "as", "test", "--q", "4", "--field", "F4", "--all")
    assert (rc, out) == (0, "4/4 agreement criterion vs oracle\n")


def test_as_single_element_with_witness(capsys):
    rc, out = run(capsys, "as", "test", "--q", "4", "--field", "F4",
                  "--a", "1", "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    case = rep["cases"][0]
    assert case["criterion"] and case["oracle"]
    assert case["witness"] == {"subgroup": [0, 1], "preimage": 2}


def test_as_needs_a_target(capsys):
    assert main(["as", "test", "--q", "4", "--field", "F4"]) == 4
    assert capsys.readouterr() == (
        "", "slopelab: parse error: as test needs --all or --a CODE\n")


def test_as_rejects_non_subfield(capsys):
    assert main(["as", "test", "--q", "4", "--field", "F9", "--all"]) == 2


@pytest.mark.parametrize("name", ["F1000000007",
                                  "F" + "9" * 30])
def test_as_huge_field_name_exits_2_before_decoding_it(capsys, monkeypatch,
                                                       name):
    decoded = []
    monkeypatch.setattr(fields, "prime_power", lambda q: decoded.append(q))
    t0 = time.monotonic()
    assert main(["as", "test", "--q", "2", "--field", name, "--all"]) == 2
    assert time.monotonic() - t0 < 3.0
    assert decoded == []
    assert "exceeds guard" in capsys.readouterr().err


def test_as_field_name_that_is_no_prime_power_exits_4(capsys):
    assert main(["as", "test", "--q", "2", "--field", "F12", "--all"]) == 4
    assert "not a prime power" in capsys.readouterr().err


def test_as_field_above_guard_exits_2_before_building_it(capsys, monkeypatch):
    # only outermost builds count: on a cold modulus cache, building F_4
    # tests its modulus for irreducibility over F_2, which it builds
    # through the same module global
    built, make, depth = [], fields.field_make, [0]

    def spy(*args):
        if not depth[0]:
            built.append(args)
        depth[0] += 1
        try:
            return make(*args)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(fields, "field_make", spy)
    assert main(["as", "test", "--q", "9", "--field", "F729", "--all",
                 "--guard", "728"]) == 2
    assert built == []
    assert main(["as", "test", "--q", "2", "--field", "F4", "--all",
                 "--guard", "4"]) == 0
    assert built == [(2, 2, 0)]


@pytest.mark.parametrize("argv, code, err", [
    (("--q", "3", "--field", "F59049", "--a", "-1"), 4,
     "parse error: --a -1 is not an element of F_59049"),
    (("--q", "3", "--field", "F59049", "--a", "59049"), 4,
     "parse error: --a 59049 is not an element of F_59049"),
    (("--q", "4", "--field", "F59049"), 4,
     "parse error: as test needs --all or --a CODE"),
    (("--q", "4", "--field", "F59049", "--all"), 2,
     "precondition violated: F_4 does not embed in F_59049"),
    (("--q", "1", "--field", "F59049", "--a", "3"), 2,
     "precondition violated: F_1 does not embed in F_59049"),
    # the order: guard, prime power, --a/--all, embedding
    (("--q", "4", "--field", "F59049", "--a", "-1"), 4,
     "parse error: --a -1 is not an element of F_59049"),
    (("--q", "4", "--field", "F12", "--a", "-1"), 4,
     "parse error: 12 is not a prime power"),
    (("--q", "4", "--field", "F59049", "--a", "-1", "--guard", "59048"), 2,
     "precondition violated: F_59049 exceeds guard 59048"),
], ids=["a-negative", "a-too-large", "no-target", "no-embedding", "q-1",
        "a-before-embedding", "prime-power-before-a", "guard-first"])
def test_as_refuses_before_building_the_field(capsys, monkeypatch, argv,
                                              code, err):
    built = []
    monkeypatch.setattr(fields, "field_make",
                        lambda *args: built.append(args))
    assert main(["as", "test", *argv]) == code
    assert capsys.readouterr() == ("", f"slopelab: {err}\n")
    assert built == []


def test_units_verify_text(capsys):
    rc, out = run(capsys, "units", "verify", "--p", "3", "--s", "2",
                  "--n", "3")
    assert rc == 0
    assert out.splitlines() == [
        "commutator classes ok (3 depths)",
        "p-th power congruence ok",
        "generation true (order 648)",
    ]


def test_units_verify_residue_only_fails(capsys):
    rc, out = run(capsys, "units", "verify", "--p", "3", "--s", "2",
                  "--n", "2", "--covered", "0")
    assert rc == 3
    assert "generation false (order 8)" in out


@pytest.mark.parametrize("s, covered", [
    ("2", "5"), ("2", "-1"), ("2", "0,1,3"), ("4", "9")],
    ids=["5", "-1", "0,1,3", "s4-9"])
def test_units_verify_covered_piece_out_of_range_exits_2(capsys, monkeypatch,
                                                         s, covered):
    # an explicit piece is never dropped; only the default [0, 1] is
    # clipped to the pieces below n; the refusal comes before the work
    called = []
    with monkeypatch.context() as m:
        m.setattr(unitgroup, "commutator_class",
                  lambda *args: called.append(args))
        assert main(["units", "verify", "--p", "3", "--s", s, "--n", "3",
                     f"--covered={covered}"]) == 2
    assert called == []
    assert "covered pieces must lie in [0, 3)" in capsys.readouterr().err
    rc, out = run(capsys, "units", "verify", "--p", "3", "--s", "2",
                  "--n", "1", "--format", "json")
    assert rc == 0
    assert json.loads(out)["covered"] == [0]


@pytest.mark.parametrize("argv", [["--covered="], ["--covered", ","]],
                         ids=["empty", "comma"])
def test_units_verify_empty_covered_means_no_pieces(capsys, argv):
    # an empty piece list is explicit, so it is not the default [0, 1]
    rc, out = run(capsys, "units", "verify", "--p", "3", "--s", "2",
                  "--n", "2", "--format", "json", *argv)
    assert rc == 3
    rep = json.loads(out)
    assert rep["covered"] == []
    assert rep["generation"]["order"] == 1


def test_units_verify_p2_reports_depth_one_finding(capsys):
    rc, out = run(capsys, "units", "verify", "--p", "2", "--s", "3",
                  "--n", "2", "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    finding = rep["pth_power"]["depth_one_finding"]
    assert finding["observed_law"] == "alpha + alpha^2"
    assert finding["holds"]
    assert finding["failing_alphas"] == list(range(1, 8))


@pytest.mark.parametrize("p", ["2", "3"])
def test_units_verify_builds_two_order_contexts(capsys, monkeypatch, p):
    # one for the commutators, the congruences and the p = 2 report, one
    # for the generation echelon
    built, init = [], RamifiedOrder.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(RamifiedOrder, "__init__", counted)
    assert main(["units", "verify", "--p", p, "--s", "3", "--n", "3"]) == 0
    assert len(built) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n, message", [
    ("2", "|G/G_n| = 530712 exceeds guard 10"),
    ("10" * 6, "|G/G_n| = 728*729^101010101009 exceeds guard 10"),
])
def test_units_verify_above_guard_exits_2_before_any_commutator(
        capsys, monkeypatch, n, message):
    called = []
    monkeypatch.setattr(unitgroup, "commutator_class",
                        lambda *args: called.append(args))
    t0 = time.monotonic()
    assert main(["units", "verify", "--p", "3", "--s", "6", "--n", n,
                 "--guard", "10"]) == 2
    assert time.monotonic() - t0 < 1.0
    assert called == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("p, s, spans", [
    ("3", "8", "(8 + 1)*6561^2 = 387420489"),
    ("5", "5", "(5 + 1)*3125^2 = 58593750"),
])
def test_units_verify_commutator_spans_above_guard_exit_2_before_field(
        capsys, monkeypatch, p, s, spans):
    # |G/G_n| = q - 1 is within the default guard, but commutator_span
    # would list q^2 closed forms at each of s + 1 depths
    built = []
    monkeypatch.setattr(fields, "field_make", lambda *args: built.append(args))
    t0 = time.monotonic()
    assert main(["units", "verify", "--p", p, "--s", s, "--n", "1"]) == 2
    assert time.monotonic() - t0 < 1.0
    assert built == []
    assert capsys.readouterr().err == (
        f"slopelab: precondition violated: commutator spans: {spans} "
        "closed forms exceeds guard 10000000\n")


@pytest.mark.parametrize("p, s", [("3", "13"), ("2", "22")])
def test_units_verify_large_field_exits_2_before_building_it(
        capsys, monkeypatch, p, s):
    built = []
    monkeypatch.setattr(fields, "field_make", lambda *args: built.append(args))
    t0 = time.monotonic()
    assert main(["units", "verify", "--p", p, "--s", s, "--n", "1",
                 "--guard", "10"]) == 2
    assert time.monotonic() - t0 < 1.0
    assert built == []
    assert f"|G/G_n| = ({p}^{s} - 1)*{p}^0 exceeds guard 10" in \
        capsys.readouterr().err


_P_COMMANDS = {
    "units": ["units", "verify", "--s", "2", "--n", "2"],
    "certify": ["certify", "--base", "ss6", "--lambda", "1/3"],
    "deform": ["deform", "--base", "ss6", "--lambda", "1/3"],
}


@pytest.mark.parametrize("command", sorted(_P_COMMANDS))
def test_non_prime_p_is_a_parse_error(capsys, command):
    assert main([*_P_COMMANDS[command], "--p", "4"]) == 4
    assert capsys.readouterr().err == \
        "slopelab: parse error: p = 4 is not prime\n"


@pytest.mark.parametrize("command", sorted(_P_COMMANDS))
def test_p_above_guard_exits_2_before_testing_primality(capsys, monkeypatch,
                                                        command):
    decoded = []
    monkeypatch.setattr(fields, "prime_power", lambda q: decoded.append(q))
    assert main([*_P_COMMANDS[command], "--p", "1000000007",
                 "--guard", "1000"]) == 2
    assert decoded == []
    assert "p = 1000000007 exceeds guard 1000" in capsys.readouterr().err


@pytest.mark.parametrize("argv, q", [
    (["--lambda", "1/40"], "3^40"),
    (["--lambda", "1/100000"], "3^100000"),
    (["--lambda", "1/3", "--p", "7919"], "7919^3"),
])
def test_certify_field_above_guard_exits_2_before_building_it(
        capsys, monkeypatch, argv, q):
    # q = p^s is refused before F_q is built; a long s is refused by
    # 2^s > guard, before p^s is formed
    built = []
    for mod in (fields, witt, certify):
        monkeypatch.setattr(mod, "field_make", lambda *args: built.append(args))
    t0 = time.monotonic()
    assert main(["certify", "--base", "ss6", *argv]) == 2
    assert time.monotonic() - t0 < 1.0
    assert built == []
    assert capsys.readouterr().err == \
        f"slopelab: precondition violated: q = {q} exceeds guard 10000000\n"


def test_plot_svg_shape(tmp_path):
    out = tmp_path / "fig.svg"
    rc = main(["plot", "--d", "3", "--c", "3", "--lambda", "1/3",
               "-o", str(out)])
    assert rc == 0
    svg = out.read_text()
    assert svg.count("<circle") == 9
    assert svg.count("<polyline") >= 2
    assert "stroke-dasharray" in svg


@pytest.mark.parametrize("d, c", [(2, 2), (3, 3)])
def test_plot_region_refuses_a_polygon_of_another_endpoint(capsys, d, c):
    # a height-1 polygon over a height-c region: no svg, exit 2
    assert main(["plot", "--d", str(d), "--c", str(c), "--lambda", "1/3",
                 "--poly", "1/3x3"]) == 2
    assert capsys.readouterr() == ("", (
        "slopelab: precondition violated: polygon endpoint (3, 1) is not "
        f"(d + c, c) = ({d + c}, {c})\n"))


@pytest.mark.parametrize("d, c", [(0, 0), (0, 3), (3, 0), (-1, 2)])
def test_plot_region_refuses_block_sizes_below_1(capsys, monkeypatch, d, c):
    built = []
    monkeypatch.setattr(polygon, "strata", lambda *args: built.append(args))
    assert main(["plot", "--d", str(d), "--c", str(c),
                 "--lambda", "1/3"]) == 2
    assert built == []
    assert capsys.readouterr() == ("", (
        "slopelab: precondition violated: block sizes d, c must be "
        "positive\n"))


def test_plot_polygon_svg_bytes_are_pinned(capsys):
    rc, out = run(capsys, "plot", "--poly", "1/3x3,2/3x3")
    assert rc == 0
    assert out.count("<circle") == 3
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "786e814f6d35d5bbcab3f123461cf73af715b71488359aab289e387009a8f17f"


@pytest.mark.parametrize("argv, digest", [
    (["--d", "3", "--c", "3", "--lambda", "1/3"],
     "bcf4bd6b15ecd1d0cdd3c5020c748b6345ed972fe54559320c0f303b0c5ce859"),
    (["--d", "3", "--c", "3", "--lambda", "1/3", "--poly", "1/2x6"],
     "bcf4bd6b15ecd1d0cdd3c5020c748b6345ed972fe54559320c0f303b0c5ce859"),
    (["--d", "5", "--c", "4", "--lambda", "1/5"],
     "4272f4a82f8f2a3cee6007a796fd5a39593dd4cdabff1dcd6c9d605f44424ca2"),
], ids=["3x3", "3x3-given-polygon", "5x4"])
def test_plot_region_svg_bytes_are_pinned(capsys, argv, digest):
    rc, out = run(capsys, "plot", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_outdir_env_var_resolves_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("SLOPELAB_OUTDIR", str(tmp_path))
    rc = main(["np", "attain", "--poly", "1/2x6", "--lambda", "1/3",
               "--format", "json", "-o", "wit.json"])
    assert rc == 0
    rep = json.loads((tmp_path / "wit.json").read_text())
    assert rep["attainable"]


def test_parse_errors_exit_4(capsys):
    assert main(["np", "attain", "--poly", "bogusx3", "--lambda", "1/3"]) == 4
    assert "segment 1" in capsys.readouterr().err
    assert main(["np", "compare", "1/2x2,1/0x2", "1/2x4"]) == 4
    assert capsys.readouterr() == ("", "slopelab: parse error: segment 2 "
                                   "('1/0x2'): zero denominator\n")
    assert main(["np", "attain", "--poly", "1/2x6", "--lambda", "x"]) == 4
    assert main(["certify", "--base", "h7", "--lambda", "1/3"]) == 4
    assert main(["certify", "--lambda", "1/3"]) == 4            # missing flag
    assert main(["nope"]) == 4
    assert main(["np", "compare", "1/2x6", "1/2x6",
                 "--format", "yaml"]) == 4
    assert main(["units", "verify", "--p", "3", "--s", "2", "--n", "2",
                 "--covered", "a,b"]) == 4
    capsys.readouterr()
    # --all and --a name the cases two ways, so the pair is refused
    assert main(["as", "test", "--q", "3", "--field", "F9", "--all",
                 "--a", "5"]) == 4
    assert capsys.readouterr() == ("", "slopelab: parse error: argument "
                                   "--a: not allowed with argument --all\n")


@pytest.mark.parametrize("a, b", [
    ('{"segments":[]}', '{"segments":[]}'),
    ('{"segments":[]}', "1/2x2"),
    ("1/2x2", " "),
    ("", "1/2x2"),
])
def test_an_empty_polygon_exits_4_in_both_grammars(capsys, a, b):
    assert main(["np", "compare", a, b]) == 4
    assert capsys.readouterr() == ("", "slopelab: parse error: empty polygon\n")


@pytest.mark.parametrize("content, inline", [
    ('{"x": 1}', False), ("[]", False), ("not json", False), (None, False),
    ('{"segments":[{"slope":"1/0","width":6}]}', True),
], ids=["no-segments", "a-list", "not-json", "a-directory",
        "inline-zero-denominator"])
def test_a_bad_polygon_json_exits_4_in_both_forms(capsys, tmp_path, content,
                                                  inline):
    poly = content
    if not inline:
        path = tmp_path / "bad.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        poly = str(path)
    assert main(["np", "compare", poly, "1/2x2"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("slopelab: parse error: polygon JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content, inline", [
    ('{"x": 1}', True), ('{"x": 1}', False), ("[]", False),
    ('{"segments": [{"slope": "1/2"}]}', True),
], ids=["no-segments-inline", "no-segments", "a-list", "no-width"])
def test_a_polygon_json_of_the_wrong_shape_names_the_shape(capsys, tmp_path,
                                                          content, inline):
    poly = content
    if not inline:
        path = tmp_path / "bad.json"
        path.write_text(content)
        poly = str(path)
    assert main(["np", "compare", poly, "1/2x2"]) == 4
    assert capsys.readouterr() == ("", (
        'slopelab: parse error: polygon JSON: expected {"segments": '
        '[{"slope": "r/s", "width": n}, ...]}\n'))


@pytest.mark.parametrize("width", ["6.5", "6.0", '"6"', "true"])
def test_polygon_json_width_must_be_an_integer(capsys, width):
    # 6.5 used to be truncated to 6 and compare equal to 1/2x6, and true
    # was read as width 1
    poly = '{"segments":[{"slope":"1/2","width":%s}]}' % width
    assert main(["np", "compare", poly, "1/2x6"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"slopelab: precondition violated: width "
                   f"{json.loads(width)!r} must be a positive integer\n")


@pytest.mark.parametrize("base, lam, slopes", [
    ("H1/5+ss6", "1/3", "1/5, 1/2"), ("ss10", "3/5", "1/2")])
def test_a_slope_not_below_the_base_exits_2(capsys, base, lam, slopes):
    assert main(["certify", "--base", base, "--lambda", lam]) == 2
    assert capsys.readouterr() == ("", (
        f"slopelab: precondition violated: slope {lam} is not strictly "
        f"below the base slopes {slopes}\n"))


def test_an_unwritable_report_path_exits_4(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    assert main(["certify", "--base", "ss6", "--lambda", "1/3",
                 "-o", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and not path.exists()
    assert err.startswith("slopelab: parse error: cannot write the report: ")
    assert err.count("\n") == 1


def test_format_svg_outside_plot_is_rejected(capsys):
    assert main(["np", "compare", "1/2x6", "1/2x6", "--format", "svg"]) == 4


def _leaf_flags(parser, path=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), {opt for a in parser._actions
                               for opt in a.option_strings} - {"-h", "--help"}
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_flags(child, path + (name,))


# one malformed value per typed flag of every command; the refusals were
# recorded when each command still parsed its flags in its own body
_MALFORMED = [
    (["np", "compare", "bogus", "1/2x6"], 4,
     "parse error: segment 1 ('bogus'): expected slope x width, like 1/2x6"),
    (["np", "compare", "1/2x6", "{bad"], 4,
     "parse error: polygon JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (["np", "compare", "1/2x6", "3/2x2"], 2,
     "precondition violated: slope 3/2 outside [0,1]"),
    (["np", "compare", "1/2x6", "no-such-polygon.json"], 4,
     "parse error: segment 1 ('no-such-polygon.json'): expected slope x "
     "width, like 1/2x6"),
    (["np", "adjoin", "--poly", "1/2x6", "--point", "3;1"], 4,
     "parse error: '3;1' is not a lattice point, expected s,r"),
    (["np", "adjoin", "--poly", "", "--point", "3,1"], 4,
     "parse error: empty polygon"),
    (["np", "adjoin", "--poly", "1/2x6", "--point", "7,1"], 2,
     "precondition violated: (7, 1) incompatible with endpoint (6, 3)"),
    (["np", "symmetric", "--poly", "1/2x6", "--lambda", "x"], 4,
     "parse error: 'x' is not a fraction: Invalid literal for Fraction: 'x'"),
    (["np", "symmetric", "--poly", "1/2x0", "--lambda", "1/3"], 2,
     "precondition violated: width 0 must be a positive integer"),
    (["np", "attain", "--poly", "1/2xx6", "--lambda", "1/3"], 4,
     "parse error: segment 1 ('1/2xx6'): expected slope x width, like 1/2x6"),
    (["np", "attain", "--poly", "1/2x6", "--lambda", "2/0"], 4,
     "parse error: '2/0' is not a fraction: Fraction(2, 0)"),
    (["np", "attain", "--poly", '{"segments": [{"slope": "1/2"}]}',
      "--lambda", "1/3"], 4,
     'parse error: polygon JSON: expected {"segments": [{"slope": "r/s", '
     '"width": n}, ...]}'),
    (["deform", "--base", "H1/0", "--lambda", "1/3"], 4,
     "parse error: '1/0' is not a fraction: Fraction(1, 0)"),
    (["deform", "--base", "ss3", "--lambda", "1/3"], 4,
     "parse error: ss height 3 must be even and positive"),
    (["deform", "--base", "Q3", "--lambda", "1/3"], 4,
     "parse error: base piece 'Q3': expected Hr/s or ssN"),
    (["deform", "--base", "ss6", "--lambda", "abc"], 4,
     "parse error: 'abc' is not a fraction: Invalid literal for Fraction: "
     "'abc'"),
    (["deform", "--base", "ss6", "--lambda", "3/2"], 4,
     "parse error: deformation slope 3/2 outside (0, 1)"),
    (["deform", "--base", "H3/2", "--lambda", "1/3"], 4,
     "parse error: block slope 3/2 outside (0, 1]"),
    # only the Hr/s spelling names a block: no decimal, exponent or bare r
    (["deform", "--base", "H0.5+ss4", "--lambda", "1/3"], 4,
     "parse error: base piece 'H0.5': expected Hr/s or ssN"),
    (["deform", "--base", "H1e0+ss4", "--lambda", "1/3"], 4,
     "parse error: base piece 'H1e0': expected Hr/s or ssN"),
    (["deform", "--base", "H1+ss4", "--lambda", "1/3"], 4,
     "parse error: base piece 'H1': expected Hr/s or ssN"),
    (["deform", "--base", "H-1/2+ss4", "--lambda", "1/3"], 4,
     "parse error: base piece 'H-1/2': expected Hr/s or ssN"),
    (["deform", "--base", "H\u0661/\u0663+ss4", "--lambda", "1/3"], 4,
     "parse error: base piece 'H\u0661/\u0663': expected Hr/s or ssN"),
    (["deform", "--base", "ss\u0666", "--lambda", "1/3"], 4,
     "parse error: base piece 'ss\u0666': expected Hr/s or ssN"),
    (["deform", "--base", "ss\u00b2", "--lambda", "1/3"], 4,
     "parse error: base piece 'ss\u00b2': expected Hr/s or ssN"),
    (["deform", "--base", "H1/1", "--lambda", "1/3"], 2,
     "precondition violated: h = 1 needs 1 <= d <= h - 1"),
    (["certify", "--base", "ss6", "--lambda", "a/b"], 4,
     "parse error: 'a/b' is not a fraction: Invalid literal for Fraction: "
     "'a/b'"),
    (["certify", "--base", "ss6x", "--lambda", "1/3"], 4,
     "parse error: base piece 'ss6x': expected Hr/s or ssN"),
    (["certify", "--base", "ss6", "--lambda", "1/2"], 2,
     "precondition violated: need denominator s >= 3, slope is 1/2"),
    (["certify", "--base", "H0/1", "--lambda", "1/3"], 4,
     "parse error: block slope 0 outside (0, 1]"),
    (["as", "test", "--q", "9", "--field", "G9", "--all"], 4,
     "parse error: 'G9' is not a field name like F9"),
    (["as", "test", "--q", "9", "--field", "F1", "--all"], 4,
     "parse error: field size 1 too small"),
    (["as", "test", "--q", "3", "--field", "F6", "--all"], 4,
     "parse error: 6 is not a prime power"),
    (["units", "verify", "--p", "3", "--s", "3", "--n", "3",
      "--covered", "1,x"], 4,
     "parse error: '1,x' is not a comma-separated piece list"),
    (["units", "verify", "--p", "3", "--s", "3", "--n", "3",
      "--covered", "5"], 2,
     "precondition violated: covered pieces must lie in [0, 3)"),
    (["plot", "--poly", "1/2x"], 4,
     "parse error: segment 1 ('1/2x'): expected slope x width, like 1/2x6"),
    (["plot", "--d", "3", "--c", "3", "--lambda", "1/x"], 4,
     "parse error: '1/x' is not a fraction: Invalid literal for Fraction: "
     "'1/x'"),
    (["plot", "--d", "3", "--c", "3", "--lambda", "1/3", "--poly", "zz"], 4,
     "parse error: segment 1 ('zz'): expected slope x width, like 1/2x6"),
    (["plot", "--poly", '{"segments": []}'], 4, "parse error: empty polygon"),
]


@pytest.mark.parametrize("argv, code, message", _MALFORMED,
                         ids=[" ".join(argv) for argv, _, _ in _MALFORMED])
def test_a_malformed_flag_keeps_its_refusal(capsys, argv, code, message):
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"slopelab: {message}\n")


def test_a_parse_error_is_named_before_a_precondition(capsys):
    # two faults: the base cannot be read, and a slope of denominator 2 is
    # refused by `certify`; the base is parsed with the other flags
    assert main(["certify", "--base", "Q3", "--lambda", "1/2"]) == 4
    assert capsys.readouterr() == ("", (
        "slopelab: parse error: base piece 'Q3': expected Hr/s or ssN\n"))


@pytest.mark.parametrize("block", ["H2/4", "H3/3"])
def test_a_block_not_in_lowest_terms_exits_4(capsys, block):
    # H2/4 used to be read as H1/2, a height-2 block in a height-4 slot
    assert main(["deform", "--base", f"{block}+ss2", "--lambda", "1/3"]) == 4
    assert capsys.readouterr() == ("", (
        f"slopelab: parse error: block '{block}': a simple block needs r/s "
        "in lowest terms\n"))
    assert parse_base("H1/1+H2/3+H4/5") == [(1, 1), (2, 3), (4, 5)]


def test_each_command_takes_only_the_flags_it_reads():
    reported = {"-o", "--out", "--format"}
    seeded = reported | {"--seed", "--guard"}
    assert dict(_leaf_flags(build_parser())) == {
        "np compare": reported,
        "np adjoin": reported | {"--poly", "--point"},
        "np symmetric": reported | {"--poly", "--lambda"},
        "np attain": reported | {"--poly", "--lambda"},
        "deform": reported | {"--guard", "--base", "--lambda", "--p"},
        "certify": seeded | {"--base", "--lambda", "--p"},
        "as test": seeded | {"--q", "--field", "--all", "--a"},
        "units verify": seeded | {"--p", "--s", "--r", "--n", "--covered"},
        "plot": {"-o", "--out", "--guard", "--poly", "--d", "--c",
                 "--lambda"},
    }


@pytest.mark.parametrize("argv", [
    ["np", "compare", "1/2x6", "1/2x6", "--seed", "0"],
    ["as", "test", "--q", "9", "--field", "F81", "--all", "--precision", "5"],
    ["certify", "--base", "ss6", "--lambda", "1/3", "--precision", "9"],
    ["deform", "--base", "ss6", "--lambda", "1/3", "--seed", "2"],
    ["deform", "--base", "ss6", "--lambda", "1/3", "--precision", "9"],
    ["plot", "--poly", "1/3x3", "--format", "svg"],
])
def test_a_flag_the_command_does_not_read_exits_4(capsys, argv):
    assert main(argv) == 4
    assert "unrecognized arguments" in capsys.readouterr().err


def test_plot_region_above_guard_exits_2_before_building_it(capsys,
                                                            monkeypatch):
    built = []
    monkeypatch.setattr(polygon, "strata", lambda *args: built.append(args))
    t0 = time.monotonic()
    # the default guard 10^7 admits a 400 x 400 region, not 4000 x 4000
    assert main(["plot", "--d", "4000", "--c", "4000", "--lambda", "1/3"]) == 2
    assert time.monotonic() - t0 < 1.0
    assert built == []
    assert capsys.readouterr() == ("", (
        "slopelab: precondition violated: region of d * c = 16000000 points "
        "exceeds guard 10000000\n"))
    assert main(["plot", "--d", "400", "--c", "400", "--lambda", "1/3",
                 "--guard", "159999"]) == 2
    assert built == []


def test_plot_region_svg_above_guard_exits_2_before_building_it(capsys,
                                                                monkeypatch):
    # 10^6 points pass the point guard 10^7, but their circles would take
    # up to 50 bytes each
    built = []
    monkeypatch.setattr(polygon, "strata", lambda *args: built.append(args))
    t0 = time.monotonic()
    assert main(["plot", "--d", "1000", "--c", "1000", "--lambda", "1/3"]) == 2
    assert time.monotonic() - t0 < 1.0
    assert built == []
    assert capsys.readouterr() == ("", (
        "slopelab: precondition violated: SVG of d * c = 1000000 circles, up "
        "to 50000000 bytes, exceeds guard 10000000\n"))


def _assert_identical_under_optimize(*args, returncode=0):
    # every self-check raises explicitly, so python -O cannot drop one
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["-m", "slopelab.cli", *args, "--format", "json"]
    plain, optimized = (subprocess.run([sys.executable, *flags, *argv],
                                       env=env, capture_output=True, timeout=300)
                        for flags in ([], ["-O"]))
    assert plain.returncode == optimized.returncode == returncode
    assert plain.stdout and plain.stdout == optimized.stdout


def test_units_verify_is_identical_under_optimize():
    _assert_identical_under_optimize("units", "verify", "--p", "2", "--s", "3",
                                     "--n", "2")


def test_certify_is_identical_under_optimize():
    _assert_identical_under_optimize("certify", "--base", "ss6", "--lambda",
                                     "1/3", "--p", "2", "--guard", "100000")


def test_certify_leg0_order_check_is_identical_under_optimize():
    # slope 1/4 at p = 3 samples F_{3^12} by its modulus; inconclusive (3)
    # only at the closure leg
    _assert_identical_under_optimize("certify", "--base", "ss8", "--lambda",
                                     "1/4", "--p", "3", returncode=3)


def test_as_is_identical_under_optimize():
    _assert_identical_under_optimize("as", "test", "--q", "9", "--field",
                                     "F81", "--all")
