"""Slope normalization of charpolys and the monodromy-equation tower.

From chi = F^h - sum A_x F^{h-x} with least polygon slope lam = r/s, the
normalized coefficients a_x = A_x p^{-lam x} live in the ramified slope
order; their pi-digit expansions, together with the deformation symbols,
assemble the equation satisfied by a slope-lam vector v:

    v^{sigma^h} = sum_x a_x v^{sigma^{h-x}}.

Terms sort into levels j = sy - rx.  Reducing to the residue field keeps
the level-0 layer, which under the positioning hypotheses is the single
anchor symbol, giving the Kummer-type first Witt equation; the higher
graded equations couple each new level to the previous ones.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from ..arith.fields import (_factor, base_p_digits, field_modulus,
                            polymulmod, power)
from ..errors import InternalCheckFailed, PreconditionError
from ..polygon import check_below_base, coord_name

if TYPE_CHECKING:
    from ..arith.twisted import TwistedPoly
    from ..display import DeformationSpec


class DemazureData(NamedTuple):
    lam: Fraction
    coeffs: dict            # x -> pi-digits of a_x below pi^{2s}


def demazure_slope(chi: TwistedPoly) -> DemazureData:
    """Least slope lam = min_x ord(A_x)/x, with the pi-digits of the
    normalized a_x = A_x p^{-lam x}."""
    h = chi.degree()
    if h is None or chi.ring.ord(chi.coeff(h)) != 0:
        raise PreconditionError("charpoly must be monic in F")
    pairs = []
    for k, v in chi.ord_map().items():
        if k == h or v is None:
            continue
        pairs.append((h - k, v))
    if not pairs:
        raise PreconditionError("all lower coefficients vanish: slope undefined")
    lam = min(Fraction(v, x) for x, v in pairs)
    ring = chi.ring
    out = {}
    for x, _ in pairs:
        ax = ring.neg(chi.coeff(h - x))
        out[x] = _pi_digits(ring, ax, x, lam)
    return DemazureData(lam, out)


def _pi_digits(ring, ax, x: int, lam: Fraction) -> dict:
    """pi-digit expansion of A_x p^{-lam x} below pi^{2s}: Witt digit t of
    A_x sits at pi-exponent j = s t - r x.  Negative j means
    ord(A_x) < lam x."""
    s, r = lam.denominator, lam.numerator
    out = {}
    for t, digit in enumerate(ring.digits(ax)):
        if digit == 0:
            continue
        j = s * t - r * x
        if j < 0:
            raise PreconditionError(
                f"coefficient at F^(h-{x}) has valuation below {lam}*{x}")
        if j < 2 * s:
            out[j] = digit
    return out


class EqTerm(NamedTuple):
    """One summand of a_x: either a residue constant at pi^j or a formal
    parameter p^{j/s}<u>^{sigma^twist}."""

    kind: str               # "const" | "symbol"
    j: int                  # pi-exponent; fractional exponent is j/s
    value: int | str        # field element (const) or symbol name
    twist: int              # Frobenius twist on the symbol; 0 for consts

    def to_json(self) -> dict:
        # every term enters with sign +1; docs/certificates.md says why
        return {
            "kind": self.kind,
            "level": self.j,
            "value": self.value,
            "twist": self.twist,
            "sign": 1,
        }


class MonodromyEquation(NamedTuple):
    h: int
    d: int
    lam: Fraction
    terms: dict             # x -> tuple of EqTerm; multiplies v^{sigma^{h-x}}

    @property
    def s(self) -> int:
        return self.lam.denominator

    @property
    def r(self) -> int:
        return self.lam.numerator

    def layer(self, j: int) -> list:
        """All (x, term) at level j across the equation."""
        return [(x, t) for x, ts in sorted(self.terms.items())
                for t in ts if t.j == j]

    def to_json(self) -> dict:
        s = self.s
        return {
            "h": self.h,
            "d": self.d,
            "slope": str(self.lam),
            "terms": {str(x): [dict(t.to_json(),
                                    exponent=str(Fraction(t.j, s)))
                               for t in ts]
                      for x, ts in sorted(self.terms.items())},
        }


def monodromy_equation(spec: DeformationSpec) -> MonodromyEquation:
    """Assemble the v-equation of a one-new-slope deformation.

    Requires lam strictly below every base slope, which forces all level-0
    residue constants a_{x,0} to vanish; a violation is reported rather
    than silently folded in.
    """
    lam = spec.lam
    s, r = lam.denominator, lam.numerator
    check_below_base(spec.np0, lam)
    ring = spec.base.ring
    h, d = spec.base.h, spec.base.d
    # a_x = -chi_{h-x}: the base constants, and each parameter with sign +1
    symbols: dict[int, list[EqTerm]] = {}
    for x, y, twist in spec.parameters():
        symbols.setdefault(x, []).append(
            EqTerm("symbol", s * y - r * x, coord_name(x, y), twist))
    terms: dict[int, list[EqTerm]] = {}
    for x in range(1, h + 1):
        ax = ring.neg(spec.chi.coeff(h - x))
        digit_map = _pi_digits(ring, ax, x, lam) if not ring.is_zero(ax) else {}
        if digit_map.get(0):
            raise PreconditionError(
                f"residue constant a_({x},0) = {digit_map[0]} nonzero; "
                "the base polygon touches the slope line")
        bucket = [EqTerm("const", j, digit, 0)
                  for j, digit in sorted(digit_map.items())]
        bucket += symbols.get(x, [])
        if bucket:
            terms[x] = tuple(sorted(bucket, key=lambda t: (t.j, t.kind, str(t.value))))
    return MonodromyEquation(h, d, lam, terms)


# -- the residue-field reduction ------------------------------------------


_SAMPLES = 16   # splitting-degree samples drawn by first_witt_equation


def first_witt_equation(p: int, h: int, d: int, lam: Fraction,
                        seed: int = 0) -> dict:
    """Leg 0's evidence over F_q, q = p^s, for a base of height h and
    dimension d: the level-0 reduction at the anchor u = u(s, r), the one
    level-0 point of the stratum, twisted by sigma^{h-d-r} ("The anchor is
    the point (s, r)" in docs/certificates.md).  It is the Kummer relation
    t^{p^{h-s}(p^s - 1)} = u^{p^{h-d-r}}.

    The _SAMPLES splitting-degree samples specialize u to units of the
    cubic extension F_Q, Q = q^3, and measure the order of u^{p^{h-d-r}}
    modulo (q-1)-th powers: every sample must divide p^s - 1 and generic
    ones attain it.  That order is the multiplicative order of
    w = u^{p^{h-d-r} (Q-1)/(q-1)} in F_q^x, computed by square-and-multiply
    in F_p[x]/(f) on f = `field_modulus(p, 3s)`, so no table of F_Q is
    built.  Any modulus presents F_Q up to isomorphism, so the first one
    serves, and seed draws only the samples.
    """
    s, r = lam.denominator, lam.numerator
    q = p ** s
    group_order = q - 1
    rng = random.Random(seed)
    big_q = q ** 3
    ext_modulus = field_modulus(p, 3 * s)

    def mul(a, b):
        return polymulmod(p, ext_modulus, a, b)

    one = base_p_digits(1, p, 3 * s)
    u_exp = p ** (h - d - r)
    exponent = u_exp * ((big_q - 1) // group_order) % (big_q - 1)
    samples = []
    attained = False
    for _ in range(_SAMPLES):
        u = rng.randrange(1, big_q)
        w = power(mul, one, base_p_digits(u, p, 3 * s), exponent)
        if power(mul, one, w, group_order) != one:
            raise InternalCheckFailed(f"no splitting degree for sample {u}")
        deg = group_order
        for t in _factor(group_order):
            while deg % t == 0 and power(mul, one, w, deg // t) == one:
                deg //= t
        if deg == group_order:
            attained = True
        samples.append([u, deg])
    return {
        "exponents": [p ** h - p ** (h - s), u_exp],
        "factored": [p ** (h - s), q - 1],
        "separable_degree": q - 1,
        "group_order": group_order,
        "symbol": coord_name(s, r),
        "samples": samples,
        "attained": attained,
    }


# -- graded tower ---------------------------------------------------------


class GradedTerm(NamedTuple):
    j: int                  # level of this summand
    x: int
    t_exp: int              # exponent of t, global normalization folded in
    w_sub: int              # index of the earlier unknown w_{ell - j}
    w_exp: int              # its power p^{h-x}
    kind: str               # "const" | "symbol"
    value: int | str
    u_exp: int              # p^{h-d-y} for symbols, 0 for consts


class GradedEquation(NamedTuple):
    """w_ell^{p^h} - w_ell^{p^{h-s}} = sum of the recorded terms."""

    level: int
    terms: tuple


def graded_equations(spec: DeformationSpec,
                     eq: MonodromyEquation | None = None) -> list[GradedEquation]:
    """The tower for ell = 1..s.

    Level ell collects, for 1 <= j <= ell, the level-j residue constants
    and the level-j parameters, each weighted by t^{p^{h-x} - p^h} and the
    earlier unknown w_{ell-j}^{p^{h-x}}.  The level-0 anchor is already
    absorbed into the left side by the normalization t = v_0.
    """
    if eq is None:
        eq = monodromy_equation(spec)
    h, d, s, r = eq.h, eq.d, eq.s, eq.r
    p = spec.base.ring.field.p
    out = []
    for ell in range(1, s + 1):
        terms = []
        for j in range(1, ell + 1):
            for x, t in eq.layer(j):
                if t.kind == "const":
                    terms.append(GradedTerm(
                        j, x, p ** (h - x) - p ** h, ell - j, p ** (h - x),
                        "const", t.value, 0))
                else:
                    y = (j + r * x) // s
                    if s * y - r * x != j:
                        raise InternalCheckFailed(f"symbol at x = {x} off level {j}")
                    terms.append(GradedTerm(
                        j, x, p ** (h - x) - p ** h, ell - j, p ** (h - x),
                        "symbol", t.value, p ** (h - d - y)))
        out.append(GradedEquation(ell, tuple(terms)))
    return out
