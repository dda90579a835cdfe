"""Command-line front end.

Subcommands:
    np compare | adjoin | symmetric | attain    polygon queries
    deform                                      strata, deformed chi, equation
    certify                                     end-to-end largeness certificate
    as test                                     reducibility criterion vs oracle
    units verify                                filtration sweeps and generation
    plot                                        SVG of the lattice region

Exit codes: 0 success, 2 precondition violation, 3 a certificate or
verification came back negative or an internal check failed, 4 malformed
input or a report path that cannot be written.

JSON output is canonical (sorted keys, fixed separators, no timestamps):
an invocation repeated with the same flags produces identical bytes.
Polygons are written inline as slope x width segments, e.g. "1/2x6" or
"1/3x3,2/3x3", or as the JSON form {"segments": [...]}; base displays
come from the constructors "Hr/s" (one simple block, r/s in lowest
terms), sums like "H1/2+H2/3", and "ssN" (N/2 half-slope blocks).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys

from .errors import (CliParseError, GuardExceeded, InternalCheckFailed,
                     PreconditionError, SolutionFound)
from .serialize import canonical_dumps

# Each command imports the modules it runs when it runs, so that a run
# loads only the code on its path.

SCALE = 20          # svg units per lattice step
PAD = 30


# -- input grammars -------------------------------------------------------


_SEGMENT = re.compile(r"^(\d+(?:/\d+)?)x(\d+)$")


def parse_polygon(text: str):
    from fractions import Fraction
    from .polygon import np_make
    from .serialize import np_from_json
    text = text.strip()
    inline = text.startswith("{")
    if inline or text.endswith(".json") and os.path.exists(text):
        try:
            if inline:
                data = json.loads(text)
            else:
                with open(text) as fh:
                    data = json.load(fh)
        except (OSError, ValueError) as err:
            raise CliParseError(f"polygon JSON: {err}")
        # np_make's own refusals are PreconditionErrors and pass through
        try:
            np0 = np_from_json(data)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise CliParseError(
                'polygon JSON: expected {"segments": [{"slope": "r/s", '
                '"width": n}, ...]}') from None
    else:
        segments = []
        for k, token in enumerate(t for t in re.split(r"[,\s]+", text) if t):
            m = _SEGMENT.match(token)
            if not m:
                raise CliParseError(f"segment {k + 1} ({token!r}): expected "
                                    "slope x width, like 1/2x6")
            try:
                slope = Fraction(m.group(1))
            except ZeroDivisionError:
                raise CliParseError(f"segment {k + 1} ({token!r}): zero "
                                    "denominator") from None
            segments.append((slope, int(m.group(2))))
        np0 = np_make(segments)
    if not np0.segments:
        raise CliParseError("empty polygon")
    return np0


def parse_fraction(text: str) -> Fraction:
    from fractions import Fraction
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise CliParseError(f"{text!r} is not a fraction: {err}")
    return value


def parse_point(text: str) -> tuple:
    m = re.match(r"^\(?\s*(\d+)\s*,\s*(\d+)\s*\)?$", text.strip())
    if not m:
        raise CliParseError(f"{text!r} is not a lattice point, expected s,r")
    return int(m.group(1)), int(m.group(2))


def parse_base(text: str) -> list:
    """Display constructor grammar: Hr/s blocks and ssN sums, joined by +."""
    pieces = []
    for part in text.split("+"):
        part = part.strip()
        # [0-9], not \d or isdigit(), which take digits of every script
        if ss := re.fullmatch(r"ss([0-9]+)", part):
            height = int(ss[1])
            if height <= 0 or height % 2:
                raise CliParseError(f"ss height {height} must be even and positive")
            pieces.extend([(1, 2)] * (height // 2))
        elif block := re.fullmatch(r"H([0-9]+)/([0-9]+)", part):
            frac = parse_fraction(part[1:])
            if not 0 < frac <= 1:
                raise CliParseError(f"block slope {frac} outside (0, 1]")
            if math.gcd(*map(int, block.groups())) > 1:
                raise CliParseError(f"block {part!r}: a simple block needs "
                                    "r/s in lowest terms")
            pieces.append((frac.numerator, frac.denominator))
        else:
            raise CliParseError(f"base piece {part!r}: expected Hr/s or ssN")
    return pieces


def parse_field_name(text: str) -> int:
    """The size q named by "Fq"; `prime_power` decodes it once q is bounded."""
    m = re.match(r"^F(\d+)$", text.strip())
    if not m:
        raise CliParseError(f"{text!r} is not a field name like F9")
    q = int(m.group(1))
    if q < 2:
        raise CliParseError(f"field size {q} too small")
    return q


def check_prime(p: int, guard: int) -> None:
    """Refuse p above the guard (exit 2) before trial division decides
    whether it is prime (exit 4)."""
    from .arith.fields import prime_power
    if p > guard:
        raise GuardExceeded(f"p = {p} exceeds guard {guard}")
    if prime_power(p) != (p, 1):
        raise CliParseError(f"p = {p} is not prime")


def check_region(d: int, c: int, guard: int) -> None:
    """Refuse a strata region of d * c lattice points above the guard."""
    if d * c > guard:
        raise GuardExceeded(
            f"region of d * c = {d * c} points exceeds guard {guard}")


def parse_covered(text: str) -> list:
    try:
        return sorted({int(t) for t in text.split(",") if t.strip() != ""})
    except ValueError:
        raise CliParseError(f"{text!r} is not a comma-separated piece list")


# -- output plumbing ------------------------------------------------------


def _resolve_out(path: str | None) -> str | None:
    if path is None or os.path.isabs(path):
        return path
    outdir = os.environ.get("SLOPELAB_OUTDIR")
    return os.path.join(outdir, path) if outdir else path


def _emit(args, payload: str) -> None:
    path = _resolve_out(args.out)
    if path is None:
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as err:
        raise CliParseError(f"cannot write the report: {err}")


def _report(args, report: dict, text: str) -> None:
    payload = canonical_dumps(report) if args.fmt == "json" else text + "\n"
    _emit(args, payload)


def _point_set(points) -> str:
    return "{" + ",".join(f"({x},{y})" for x, y in sorted(points)) + "}"


# -- np -------------------------------------------------------------------


def cmd_np(args) -> int:
    from .polygon import adjoin, attainable, compare, symmetric_adjoin
    if args.action == "compare":
        rel = compare(args.a, args.b)
        _report(args, {"relation": rel, "a": args.a.to_json(),
                       "b": args.b.to_json()}, rel)
        return 0
    np0 = args.poly
    if args.action == "attain":
        wit = attainable(np0, args.lam)
        report = {"polygon": np0.to_json(), "slope": str(args.lam),
                  "attainable": wit is not None,
                  "witness": wit.to_json() if wit else None}
        _report(args, report, f'attainable, witness "{wit.witness}"' if wit
                else "not attainable")
        return 0
    if args.action == "adjoin":
        given, out = {"point": list(args.point)}, adjoin(np0, args.point)
    else:
        given = {"slope": str(args.lam)}
        out = symmetric_adjoin(np0, args.lam)
    _report(args, {"input": np0.to_json(), **given, "result": out.to_json(),
                   "pretty": str(out)}, str(out))
    return 0


# -- deform / certify -----------------------------------------------------


def _check_deformation(args) -> None:
    if not 0 < args.lam < 1:
        raise CliParseError(f"deformation slope {args.lam} outside (0, 1)")
    s = args.lam.denominator
    check_prime(args.p, args.guard)
    # 2^s > guard already refuses a long s, before p^s is formed
    if s > args.guard.bit_length() or args.p ** s > args.guard:
        raise GuardExceeded(f"q = {args.p}^{s} exceeds guard {args.guard}")
    c = sum(r for r, _ in args.base)
    check_region(sum(w for _, w in args.base) - c, c, args.guard)


def cmd_deform(args) -> int:
    from .arith.witt import witt_for
    from .display import deformation, split_display
    from .monodromy.equations import monodromy_equation
    _check_deformation(args)
    s, c = args.lam.denominator, sum(r for r, _ in args.base)
    # the base is a sum of blocks over F_p: chi is integral and sigma fixes
    # Z/p^m, so W_m(F_p) gives the bytes W_m(F_{p^s}) would; m keeps +-p^c
    ring = witt_for(args.p, 1, max(2 * s + 2, c + 1))
    spec = deformation(split_display(ring, args.base), args.lam)
    eq = monodromy_equation(spec)
    deformed = spec.to_json()
    # count the coefficients below the monic leading term
    terms = len(deformed["chi"]) - 1
    np_star = spec.deformed_polygon()
    report = {
        "base": {"d": spec.base.d, "c": spec.base.c,
                 "polygon": spec.np0.to_json()},
        "slope": str(spec.lam),
        "deformation": deformed,
        "chi_terms": terms,
        "deformed_polygon": np_star.to_json(),
        "equation": eq.to_json(),
    }
    text = "\n".join([
        f"strata {_point_set(spec.strat.active)} and {terms}-term chi",
        f"np(*) = {np_star}",
        f"equation terms at F-offsets {sorted(eq.terms)}",
    ])
    _report(args, report, text)
    return 0


def cmd_certify(args) -> int:
    from fractions import Fraction
    from .arith.fields import modulus_scan
    from .monodromy.certify import check_slope_shape, largeness_certificate
    from .polygon import np_make, np_merge
    # the slope shape first: the polygon would refuse it less specifically
    check_slope_shape(args.lam)
    _check_deformation(args)
    # leg 0 scans for the seeded modulus of F_Q, Q = p^(3s)
    deg = 3 * args.lam.denominator
    scan = modulus_scan(args.p, deg, args.seed)
    if scan > args.guard:
        raise GuardExceeded(
            f"leg 0's modulus scan of about 3s * (seed index + 1) = {scan} "
            f"candidates (irreducibles of degree {deg} over F_{args.p} have "
            f"density about 1/{deg}) exceeds guard {args.guard}")
    np0 = np_merge(*(np_make([(Fraction(r, s), s)]) for r, s in args.base))
    cert = largeness_certificate(np0, args.lam, args.p, args.guard, args.seed)
    good = [l["piece"] for l in cert["legs"] if l["status"] == "certified"]
    bad = [l["piece"] for l in cert["legs"] if l["status"] != "certified"]
    bits = [f"pieces {{{','.join(map(str, good))}}} certified"]
    if bad:
        bits.append(f"{{{','.join(map(str, bad))}}} failed")
    bits.append(f"verdict {cert['verdict']}")
    _report(args, cert, ", ".join(bits))
    return 0 if cert["verdict"] == "large" else 3


# -- as -------------------------------------------------------------------


def cmd_as(args) -> int:
    from .arith.fields import field_make, prime_power
    from .monodromy.artinschreier import (as_reducible, as_reducible_oracle,
                                          check_subfield)
    q = args.field
    if q > args.guard:
        raise GuardExceeded(f"F_{q} exceeds guard {args.guard}")
    ps = prime_power(q)
    if ps is None:
        raise CliParseError(f"{q} is not a prime power")
    if not args.all:
        if args.a is None:
            raise CliParseError("as test needs --all or --a CODE")
        if not 0 <= args.a < q:
            raise CliParseError(f"--a {args.a} is not an element of F_{q}")
    check_subfield(*ps, args.q)             # refuse before building F_q
    K = field_make(*ps, args.seed)
    values = list(K.elements()) if args.all else [args.a]
    cases = []
    for A in values:
        red, witness = as_reducible(K, args.q, A)
        orc = as_reducible_oracle(K, args.q, A)
        entry = {"a": A, "criterion": red, "oracle": orc}
        if witness is not None:
            G, pre = witness
            entry["witness"] = {"subgroup": sorted(G), "preimage": pre}
        cases.append(entry)
    agreed = sum(1 for c in cases if c["criterion"] == c["oracle"])
    report = {"field": f"F{K.q}", "q": args.q, "cases": cases,
              "agreements": agreed, "total": len(cases),
              "agree": agreed == len(cases)}
    _report(args, report,
            f"{agreed}/{len(cases)} agreement criterion vs oracle")
    return 0 if report["agree"] else 3


# -- units ----------------------------------------------------------------


def cmd_units(args) -> int:
    from .arith.fields import field_make
    from .arith.ramified import order_over
    from .unitgroup import (commutator_class, commutator_span,
                            generation_report, p2_power_report,
                            pth_power_check, quotient_order)
    p, s, r, n = args.p, args.s, args.r, args.n
    if not (0 < r < s and math.gcd(r, s) == 1):
        raise PreconditionError(f"slope {r}/{s} must be reduced and in (0, 1)")
    check_prime(p, args.guard)
    quotient_order(p, s, n, args.guard)     # refuse before building F_q
    spans = (s + 1) * p ** (2 * s)          # closed forms commutator_span lists
    if spans > args.guard:
        raise GuardExceeded(f"commutator spans: ({s} + 1)*{p ** s}^2 = "
                            f"{spans} closed forms exceeds guard {args.guard}")
    K = field_make(p, s, args.seed)
    # only the default is clipped; generation_report refuses explicit
    # pieces outside [0, n), so it runs before the other stages
    covered = (args.covered if args.covered is not None
               else [i for i in (0, 1) if i < n])
    gen = generation_report(K, r, n, covered, guard=args.guard)

    # one context serves every stage: the commutator at depth n <= s + 1
    # reads level n + 1, the congruence at depth k level (k + 1)s + 1
    power_depth = 1 if p >= 3 else 2
    ctx = order_over(K, r, (power_depth + 1) * s + 2)
    depths = []
    pair_budget = 500
    if K.q ** 2 > pair_budget:
        rng = random.Random(args.seed)
        pairs = [(rng.randrange(K.q), rng.randrange(K.q))
                 for _ in range(pair_budget)]
    else:
        pairs = [(x, y) for x in K.elements() for y in K.elements()]
    for depth in range(1, s + 2):
        for x, y in dict.fromkeys(pairs):       # a repeat checks nothing new
            commutator_class(ctx, x, y, depth)       # self-checking
        full = commutator_span(K, r, depth) == frozenset(K.elements())
        depths.append({"n": depth, "full": full,
                       "expected_full": (depth + 1) % s != 0,
                       "pairs": len(pairs)})
    commutator_ok = all(d["full"] == d["expected_full"] for d in depths)

    betas = [ctx.zero(), ctx.one()]
    power_ok = all(pth_power_check(ctx, alpha, beta, power_depth)
                   for alpha in K.elements() for beta in betas)
    power = {"depth": power_depth, "alphas": K.q, "ok": power_ok}
    if p == 2:
        power["depth_one_finding"] = p2_power_report(ctx)

    ok = commutator_ok and power_ok and gen["generates"]
    report = {"p": p, "s": s, "q": K.q, "lambda": f"{r}/{s}", "n": n,
              "covered": covered,
              "commutator": {"depths": depths, "ok": commutator_ok},
              "pth_power": power,
              "generation": gen,
              "ok": ok}
    text = "\n".join([
        f"commutator classes ok ({len(depths)} depths)"
        if commutator_ok else "commutator span mismatch",
        "p-th power congruence ok" if power_ok
        else f"p-th power congruence failed at depth {power_depth}",
        f"generation {str(gen['generates']).lower()} (order {gen['order']})",
    ])
    _report(args, report, text)
    return 0 if ok else 3


# -- plot -----------------------------------------------------------------


def _svg(width: int, height: int, body: list) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def _polyline(points, stroke: str, dash: str = "") -> str:
    attr = f' stroke-dasharray="{dash}"' if dash else ""
    pts = " ".join(f"{x},{y}" for x, y in points)
    return (f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="2"{attr}/>')


def _circle(cx: int, cy: int, fill: str) -> str:
    return f'<circle cx="{cx}" cy="{cy}" r="4" fill="{fill}"/>'


def cmd_plot(args) -> int:
    from fractions import Fraction
    from .polygon import np_make, strata
    region = (args.d, args.c, args.lam) != (None, None, None)
    if region:
        if None in (args.d, args.c, args.lam):
            raise CliParseError("plot needs all of --d, --c, --lambda")
        d, c = args.d, args.c
        if d < 1 or c < 1:
            raise PreconditionError("block sizes d, c must be positive")
        check_region(d, c, args.guard)
        h, top = d + c, c
        # one circle line per region point, none wider than this one
        size = d * c * (len(_circle(PAD + SCALE * h, 2 * PAD + SCALE * c,
                                    "#ccc")) + 1)
        if size > args.guard:
            raise GuardExceeded(f"SVG of d * c = {d * c} circles, up to "
                                f"{size} bytes, exceeds guard {args.guard}")
        np0 = args.poly or np_make([(Fraction(c, h), h)])
        st = strata(d, c, np0, args.lam)
    elif args.poly:
        np0 = args.poly
        h, top = np0.endpoint[0], max(1, int(np0.endpoint[1]))
    else:
        raise CliParseError("plot needs --poly or the --d/--c/--lambda region")
    height = 2 * PAD + SCALE * top
    width = 2 * PAD + SCALE * h

    def to(x, y):
        return PAD + SCALE * int(x), height - PAD - SCALE * int(y)

    body = [_polyline([to(0, 0), to(h, 0)], "#999"),
            _polyline([to(0, 0), to(0, top)], "#999")]
    if region:
        body += [
            _polyline([to(*v) for v in
                       ((1, 0), (d, 0), (h - 1, c - 1), (c, c - 1), (1, 0))],
                      "#888", dash="2,2"),
            _polyline([to(*bp) for bp in np0.breakpoints()], "#bbb", dash="6,3"),
            _polyline([to(*bp) for bp in st.np_star.breakpoints()], "#1a6"),
        ]
        body += [_circle(*to(*pt), "#1a6" if pt in st.active else "#ccc")
                 for pt in sorted(st.region)]
    else:
        body.append(_polyline([to(*bp) for bp in np0.breakpoints()], "#1a6"))
        body += [_circle(*to(*bp), "#1a6") for bp in np0.breakpoints()]
    _emit(args, _svg(width, height, body))
    return 0


# -- wiring ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliParseError(message)


def build_parser() -> argparse.ArgumentParser:
    # one parent per flag, so each leaf command takes only the flags it
    # reads; attaching them to the group parsers as well would let the
    # leaf's defaults clobber values parsed at the group level
    def flag(*names, **kwargs):
        parent = _Parser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    out = flag("-o", "--out", default=None)
    fmt = flag("--format", dest="fmt", choices=("json", "text"), default="text")
    seed = flag("--seed", type=int, default=0)
    guard = flag("--guard", type=int, default=10 ** 7)
    reported = [out, fmt]
    seeded = reported + [seed, guard]

    top = _Parser(prog="slopelab", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    np_p = sub.add_parser("np")
    np_sub = np_p.add_subparsers(dest="action", required=True)
    cmp_p = np_sub.add_parser("compare", parents=reported)
    cmp_p.add_argument("a", type=parse_polygon)
    cmp_p.add_argument("b", type=parse_polygon)
    adj_p = np_sub.add_parser("adjoin", parents=reported)
    adj_p.add_argument("--poly", type=parse_polygon, required=True)
    adj_p.add_argument("--point", type=parse_point, required=True)
    for name in ("symmetric", "attain"):
        pp = np_sub.add_parser(name, parents=reported)
        pp.add_argument("--poly", type=parse_polygon, required=True)
        pp.add_argument("--lambda", dest="lam", type=parse_fraction,
                        required=True)

    # deform reads no seeded value: its ring is W_m(F_p)
    for name, flags in (("deform", reported + [guard]), ("certify", seeded)):
        pp = sub.add_parser(name, parents=flags)
        pp.add_argument("--base", type=parse_base, required=True)
        pp.add_argument("--lambda", dest="lam", type=parse_fraction,
                        required=True)
        pp.add_argument("--p", type=int, default=3)

    as_p = sub.add_parser("as")
    as_sub = as_p.add_subparsers(dest="action", required=True)
    test_p = as_sub.add_parser("test", parents=seeded)
    test_p.add_argument("--q", type=int, required=True)
    test_p.add_argument("--field", type=parse_field_name, required=True)
    which = test_p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true")
    which.add_argument("--a", type=int, default=None)

    units_p = sub.add_parser("units")
    units_sub = units_p.add_subparsers(dest="action", required=True)
    verify_p = units_sub.add_parser("verify", parents=seeded)
    verify_p.add_argument("--p", type=int, required=True)
    verify_p.add_argument("--s", type=int, required=True)
    verify_p.add_argument("--r", type=int, default=1)
    verify_p.add_argument("--n", type=int, required=True)
    verify_p.add_argument("--covered", type=parse_covered, default=None)

    plot_p = sub.add_parser("plot", parents=[out, guard])
    plot_p.add_argument("--poly", type=parse_polygon, default=None)
    plot_p.add_argument("--d", type=int, default=None)
    plot_p.add_argument("--c", type=int, default=None)
    plot_p.add_argument("--lambda", dest="lam", type=parse_fraction,
                        default=None)
    return top


_DISPATCH = {"np": cmd_np, "deform": cmd_deform, "certify": cmd_certify,
             "as": cmd_as, "units": cmd_units, "plot": cmd_plot}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except CliParseError as err:
        print(f"slopelab: parse error: {err}", file=sys.stderr)
        return 4
    except PreconditionError as err:
        print(f"slopelab: precondition violated: {err}", file=sys.stderr)
        return 2
    except InternalCheckFailed as err:
        print(f"slopelab: internal check failed: {err}", file=sys.stderr)
        return 3
    except SolutionFound as err:
        print(f"slopelab: no certificate: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())