"""Displays in normal form and their deformation calculus.

A display here is an h x h matrix over a Witt ring, h = d + c, in the
block shape (A B; C D) with A of size d x d, always in normal form: 1 on
the sub-diagonal (shift sub-diagonals in A and D, a single 1 at (d+1, d)
in C), free entries only at

    S = {(i, j) : 1 <= i <= d, d <= j <= h},

and a unit at (1, h).  `Display` stores only the free entries, and its
constructor refuses a position outside S and a non-unit at (1, h), so
every display is normal.  The characteristic polynomial of Frobenius is
then read off additively from the free entries:

    chi = F^h - sum_{x=1}^{h} A_x F^{h-x},
    A_x = sum_{(i,j) in S, j+1-i = x} p^{j-d} a_{ij}^{sigma^{h-(j-d)-d}}.

Deforming the free columns d..h-1 by Teichmuller parameters, through the
T-substitution (A + TC, B + TD; C, D), realizes the universal deformation;
restricting the parameters to the lattice points on or above an adjoined
Newton polygon gives the one-new-slope deformation whose strata
`polygon.stratify` cuts out.  Since chi is additive in each free slot, the
deformation is its base chi plus its active points: point (x, y) is the
parameter u(x, y), which enters chi once, as -p^y <u(x, y)>^{sigma^{h-d-y}}
at F^{h-x}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith.twisted import TwistedPoly
from .arith.witt import WittElt, WittRing
from .errors import PreconditionError
from .polygon import (NewtonPolygon, Stratification, coord_name,
                      np_from_points, stratify)


class Display:
    """Normal-form display over a Witt ring with block sizes (d, c).

    Stores only the nonzero free entries {(i, j) in S: value}; every other
    entry is the skeleton, 1 on the sub-diagonal and 0 elsewhere.  S never
    meets the sub-diagonal, so the free entries are placed as given."""

    __slots__ = ("ring", "d", "c", "free")

    def __init__(self, ring: WittRing, d: int, c: int, free: dict):
        if d < 1 or c < 1:
            raise PreconditionError("block sizes d, c must be positive")
        self.ring = ring
        self.d = d
        self.c = c
        slots = set(self.free_slots())
        for pos in free:
            if pos not in slots:
                raise PreconditionError(f"position {pos} is not a free slot")
        if ring.ord(free.get((1, self.h), ring.zero())) != 0:
            raise PreconditionError(f"entry (1, {self.h}) is not a unit")
        self.free = {pos: v for pos, v in free.items() if not ring.is_zero(v)}

    @property
    def h(self) -> int:
        return self.d + self.c

    def entry(self, i: int, j: int):
        skeleton = self.ring.one() if i == j + 1 else self.ring.zero()
        return self.free.get((i, j), skeleton)

    def free_slots(self) -> list[tuple[int, int]]:
        """The set S of unconstrained positions, row-major."""
        return [(i, j) for i in range(1, self.d + 1)
                for j in range(self.d, self.h + 1)]

    def __repr__(self) -> str:
        return f"Display(d={self.d}, c={self.c}, {len(self.free)} free entries)"


def charpoly(disp: Display) -> TwistedPoly:
    """chi(F) = F^h - sum A_x F^{h-x} for a normal-form display.

    One pass over the stored free entries: slot (i, j) adds
    p^y a_ij^{sigma^{h-y-d}}, y = j - d, to A_x at x = j + 1 - i."""
    ring, d, h = disp.ring, disp.d, disp.h
    coeffs = {h: ring.one()}
    for (i, j), a in sorted(disp.free.items()):
        y, k = j - d, h - (j + 1 - i)
        term = ring.scalar_mul(ring.field.p ** y, ring.sigma(a, h - y - d))
        coeffs[k] = ring.sub(coeffs.get(k, ring.zero()), term)
    return TwistedPoly(ring, coeffs)


def charpoly_polygon(chi: TwistedPoly) -> NewtonPolygon:
    """Newton polygon of chi from coefficient valuations."""
    h = chi.degree()
    pts = [(0, 0)]
    for k, v in chi.ord_map().items():
        if k == h or v is None:
            continue
        pts.append((h - k, v))
    if chi.ring.ord(chi.coeff(0)) is None:
        raise PreconditionError("constant coefficient vanishes at this precision")
    return np_from_points(pts)


def display_from_charpoly(ring: WittRing, d: int,
                          coeffs: dict[int, WittElt]) -> Display:
    """Companion-style normal display with prescribed A_x, x in [1, h].

    Places each A_x in a single free slot: x <= d goes to (d+1-x, d) with
    p-exponent 0, x > d goes to (1, x) with p-exponent x - d, untwisting by
    sigma so the charpoly formula reproduces A_x on the nose.  Needs
    ord(A_x) >= x - d, so that each coordinate of A_x divides exactly by
    p^(x-d); any polygon with slopes at most 1 and ord(A_h) = c satisfies
    that.
    """
    h = max(coeffs)
    c = h - d
    if c < 1 or d < 1:
        raise PreconditionError(f"h = {h} needs 1 <= d <= h - 1")
    free: dict = {}
    for x, ax in coeffs.items():
        if ring.ord(ax) is None:
            continue
        if not 1 <= x <= h:
            raise PreconditionError(f"coefficient index {x} outside [1, {h}]")
        if x <= d:
            free[(d + 1 - x, d)] = ring.sigma(ax, -(h - d))
        else:
            y = x - d
            if ring.ord(ax) < y:
                raise PreconditionError(
                    f"A_{x} has valuation below {y}, no normal slot fits")
            py = ring.field.p ** y
            free[(1, x)] = ring.sigma(tuple(a // py for a in ax), -(h - x))
    return Display(ring, d, c, free)


def split_display(ring: WittRing, pieces: list[tuple[int, int]]) -> Display:
    """Normal display whose charpoly is prod_i (F^{s_i} - p^{r_i}).

    The product has central scalar coefficients, so the twisted product
    order does not matter; the result realizes the direct sum of the
    slope r_i/s_i building blocks up to isogeny.  The constant term is
    +-p^c, c = sum r_i, so the ring needs precision above c.
    """
    h = sum(s for _, s in pieces)
    c = sum(r for r, _ in pieces)
    if ring.m <= c:
        raise PreconditionError(
            f"precision {ring.m} truncates the constant term +-p^{c} to 0; "
            f"needs precision >= {c + 1}")
    prod = TwistedPoly(ring, {0: ring.one()})
    for r, s in pieces:
        factor = TwistedPoly(ring, {
            s: ring.one(), 0: ring.neg(ring.from_int(ring.field.p ** r))})
        prod = prod.mul(factor)
    coeffs = {}
    for x in range(1, h + 1):
        ax = ring.neg(prod.coeff(h - x))
        if ax != ring.zero():
            coeffs[x] = ax
    return display_from_charpoly(ring, h - c, coeffs)


# -- the one-new-slope deformation -----------------------------------------


class DeformationSpec(NamedTuple):
    """A display, its charpoly chi and polygon np0, and the strata of a
    new slope lam; the active points of the strata are the parameters."""

    base: Display
    lam: Fraction
    strat: Stratification
    chi: TwistedPoly        # charpoly of the base display
    np0: NewtonPolygon      # Newton polygon of chi

    def parameters(self) -> list[tuple[int, int, int]]:
        """(x, y, twist) per active point, sorted by coord_name: u(x, y)
        enters chi as -p^y <u(x, y)>^{sigma^twist} at F^{h-x}."""
        h, d = self.base.h, self.base.d
        return [(x, y, h - d - y) for x, y in
                sorted(self.strat.active, key=lambda pt: coord_name(*pt))]

    def deformed_polygon(self) -> NewtonPolygon:
        """Polygon of the deformed chi, parameters counted as units: the
        lower hull of np0 and the active points."""
        return np_from_points(self.np0.breakpoints() + tuple(self.strat.active))

    def specialize(self, values: dict) -> TwistedPoly:
        """Deformed charpoly at parameter values {(x, y): element of the
        base ring's field}."""
        ring, h = self.base.ring, self.base.h
        out = dict(self.chi.coeffs)
        for x, y, twist in self.parameters():
            if (x, y) not in values:
                raise PreconditionError(f"no value for {coord_name(x, y)}")
            lift = ring.teichmuller(ring.field.frobenius(values[x, y], twist))
            out[h - x] = ring.sub(out.get(h - x, ring.zero()),
                                  ring.scalar_mul(ring.field.p ** y, lift))
        return TwistedPoly(ring, out)

    def to_json(self) -> dict:
        ring, h = self.base.ring, self.base.h
        terms: dict[int, list] = {}
        for x, y, twist in self.parameters():
            terms.setdefault(h - x, []).append(
                {"name": coord_name(x, y), "p_exp": y, "twist": twist,
                 "sign": -1})
        return {
            "slope": str(self.lam),
            "strata": self.strat.to_json(),
            "chi": {str(k): {"base": ring.element_to_json(self.chi.coeff(k)),
                             "terms": terms.get(k, [])}
                    for k in sorted(self.chi.coeffs.keys() | terms.keys())},
        }


def deformation(disp: Display, lam) -> DeformationSpec:
    """One-new-slope deformation: universal parameters restricted to the
    active stratum of the adjoined polygon.

    The T-substitution (A + TC, B + TD; C, D) puts the Teichmuller
    parameter u(x, y) at T_{i,k}.  On a normal-form display, rows
    d+1..h of (C D) hold only the skeleton 1s, row d + k having its 1 in
    column d + k - 1; so the substitution only adds u(x, y) to the free
    slot (i, j) with j = d + k - 1, x = j + 1 - i and y = j - d.  The
    charpoly is additive in each free slot, so the deformed chi is the
    base chi minus p^y <u(x, y)>^{sigma^{h-d-y}} at F^{h-x} for each
    active point (x, y): the spec keeps the base chi and the strata.
    """
    lam = Fraction(lam)
    chi = charpoly(disp)
    np0 = charpoly_polygon(chi)
    return DeformationSpec(disp, lam, stratify(np0, lam), chi, np0)
