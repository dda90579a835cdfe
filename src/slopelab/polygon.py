"""Newton polygon algebra.

A polygon is a lower-convex chain from (0,0) to (h,e) with integral
breakpoints and slopes in [0,1], stored as (slope, width) segments with
strictly increasing slopes.  Width is horizontal, in x units, so a slope
r/s segment of width w carries w/s simple summands; w must be a multiple
of s for the breakpoints to stay integral.

The ordering here is pointwise: lies_on_or_below(a, b) holds when the two
chains share endpoints and a's graph never rises above b's.  Polygons of
deformations move down in this order as parameters go generic, and the
attainability criterion answers exactly when a new slope can appear that
way with multiplicity one while the initial sub-polygon survives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InternalCheckFailed, PreconditionError


Point = tuple[int, int]


class NewtonPolygon(NamedTuple):
    segments: tuple[tuple[Fraction, int], ...]

    @property
    def width(self) -> int:
        return sum(w for _, w in self.segments)

    @property
    def height(self) -> int:
        return int(sum(sl * w for sl, w in self.segments))

    @property
    def endpoint(self) -> Point:
        return (self.width, self.height)

    def breakpoints(self) -> tuple[Point, ...]:
        pts = [(0, 0)]
        x, y = 0, Fraction(0)
        for sl, w in self.segments:
            x, y = x + w, y + sl * w
            pts.append((x, int(y)))
        return tuple(pts)

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(sl for sl, _ in self.segments)

    def value_at(self, x) -> Fraction:
        """Height of the chain over x, for x in [0, width]."""
        x = Fraction(x)
        if not 0 <= x <= self.width:
            raise PreconditionError(f"x = {x} outside [0, {self.width}]")
        acc_x, acc_y = 0, Fraction(0)
        for sl, w in self.segments:
            if x <= acc_x + w:
                return acc_y + sl * (x - acc_x)
            acc_x, acc_y = acc_x + w, acc_y + sl * w
        return acc_y

    def width_of_slope(self, lam) -> int:
        lam = Fraction(lam)
        return sum(w for sl, w in self.segments if sl == lam)

    def multiplicity(self, lam) -> int:
        """Number of simple slope lam summands: width over the denominator."""
        lam = Fraction(lam)
        return self.width_of_slope(lam) // lam.denominator

    def to_json(self) -> dict:
        return {
            "segments": [
                {"slope": str(sl), "width": w} for sl, w in self.segments
            ]
        }

    def __str__(self) -> str:
        return "".join(f"({sl} x{w})" for sl, w in self.segments)


def np_make(segments) -> NewtonPolygon:
    """Normalize and validate; merges adjacent equal slopes.

    Input order is part of the data: a slope drop is refused rather than
    silently sorted.
    """
    merged: list[list] = []
    for sl, w in segments:
        sl = Fraction(sl)
        if type(w) is not int or w <= 0:    # bool is an int subclass
            raise PreconditionError(f"width {w!r} must be a positive integer")
        if not 0 <= sl <= 1:
            raise PreconditionError(f"slope {sl} outside [0,1]")
        if merged and sl < merged[-1][0]:
            raise PreconditionError(f"slopes must not decrease: {sl} "
                                    f"after {merged[-1][0]}")
        if merged and sl == merged[-1][0]:
            merged[-1][1] += w
        else:
            merged.append([sl, w])
    y = Fraction(0)
    for sl, w in merged:
        y += sl * w
        if y.denominator != 1:
            raise PreconditionError(
                f"breakpoint height {y} after slope {sl} segment")
    return NewtonPolygon(tuple((sl, w) for sl, w in merged))


def np_from_breakpoints(points) -> NewtonPolygon:
    segs = []
    prev = None
    for pt in points:
        if prev is not None:
            dx, dy = pt[0] - prev[0], pt[1] - prev[1]
            segs.append((Fraction(dy, dx), dx))
        prev = pt
    return np_make(segs)


def lower_hull(points) -> list[Point]:
    """Lower convex hull of integral points, left to right.

    Collinear interior points are dropped.  Ties in x keep the lowest y.
    """
    best: dict[int, int] = {}
    for x, y in points:
        if x not in best or y < best[x]:
            best[x] = y
    pts = sorted(best.items())
    hull: list[Point] = []
    for p in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def np_from_points(points) -> NewtonPolygon:
    """Polygon through the lower hull of the given integral points."""
    return np_from_breakpoints(lower_hull(points))


def lies_on_or_below(a: NewtonPolygon, b: NewtonPolygon) -> bool:
    """True iff a and b share endpoints and a never rises above b.

    Checking at the union of breakpoint abscissae suffices: on each linear
    piece of b the difference a - b is convex, so its maximum sits at a
    breakpoint.
    """
    if a.endpoint != b.endpoint:
        raise PreconditionError(
            f"endpoints differ: {a.endpoint} vs {b.endpoint}")
    xs = {x for x, _ in a.breakpoints()} | {x for x, _ in b.breakpoints()}
    return all(a.value_at(x) <= b.value_at(x) for x in xs)


def compare(a: NewtonPolygon, b: NewtonPolygon) -> str:
    """One of "equal", "below", "above", "incomparable" (a relative to b)."""
    if a.segments == b.segments:
        return "equal"
    ab, ba = lies_on_or_below(a, b), lies_on_or_below(b, a)
    if ab:
        return "below"
    if ba:
        return "above"
    return "incomparable"


def adjoin(np: NewtonPolygon, point: Point) -> NewtonPolygon:
    """Lower hull of np's breakpoints plus one point, same endpoints.

    The point (s, r) must satisfy 0 < r/s <= 1 and must leave the endpoint
    reachable with slopes at most 1; a point at or above the chain leaves
    it unchanged.
    """
    s, r = point
    if not (s > 0 and 0 < Fraction(r, s) <= 1):
        raise PreconditionError(f"point {point} needs 0 < r/s <= 1")
    h, e = np.endpoint
    if s > h or (s == h and r != e):
        raise PreconditionError(f"{point} incompatible with endpoint {(h, e)}")
    if s < h and r < np.value_at(s) and e - r > h - s:
        raise PreconditionError(
            f"chord from {point} to {(h, e)} needs slope above 1")
    return np_from_points(list(np.breakpoints()) + [point])


class AttainabilityWitness(NamedTuple):
    lam: Fraction
    insertion: Point       # absolute coordinates of the inserted vertex
    witness: NewtonPolygon

    def to_json(self) -> dict:
        return {
            "slope": str(self.lam),
            "insertion": list(self.insertion),
            "witness": self.witness.to_json(),
        }


def attainable(np0: NewtonPolygon, lam) -> AttainabilityWitness | None:
    """Can slope lam be made to appear, with multiplicity one, below np0?

    The decision: write (x0, y0) for the endpoint of the initial part of
    np0 with slopes strictly below lam, and (h, e) for the endpoint.  The
    slope is attainable iff the vertex (x0+s, y0+r) either lands on (h, e)
    or sees it along a chord of slope within [lam, 1].  The witness is the
    lower hull of np0's breakpoints plus that vertex, which keeps the
    initial part and carries lam with multiplicity exactly one.
    """
    lam = Fraction(lam)
    if not 0 <= lam < 1:
        raise PreconditionError(f"slope {lam} outside [0, 1)")
    if lam in np0.slopes():
        raise PreconditionError(f"{lam} is already a slope")
    r, s = lam.numerator, lam.denominator
    h, e = np0.endpoint
    x0, y0 = 0, 0
    for sl, w in np0.segments:
        if sl < lam:
            x0, y0 = x0 + w, y0 + int(sl * w)
    vx, vy = x0 + s, y0 + r
    if (vx, vy) != (h, e):
        if vx >= h:
            return None
        chord = Fraction(e - vy, h - vx)
        if not lam <= chord <= 1:
            return None
    nu = np_from_points(list(np0.breakpoints()) + [(vx, vy)])
    if (nu.endpoint != (h, e) or nu.width_of_slope(lam) != s
            or [sg for sg in nu.segments if sg[0] < lam]
            != [sg for sg in np0.segments if sg[0] < lam]):
        raise InternalCheckFailed(f"{nu} does not adjoin {lam} once to {np0}")
    return AttainabilityWitness(lam, (vx, vy), nu)


def is_symmetric(np: NewtonPolygon) -> bool:
    """Slope list invariant under lam -> 1 - lam with matching widths."""
    rev = tuple((1 - sl, w) for sl, w in reversed(np.segments))
    return rev == np.segments


def involution_point(g: int, point: Point) -> Point:
    """The symmetry involution on lattice points for endpoint (2g, g)."""
    x, y = point
    return (2 * g - x, g - x + y)


def symmetric_adjoin(np: NewtonPolygon, lam) -> NewtonPolygon:
    """Adjoin (s, r) together with its mirror image, preserving symmetry.

    Requires a symmetric polygon with endpoint (2g, g) and lam < 1/2;
    slope 1/2 itself cannot be added symmetrically with multiplicity one.
    """
    lam = Fraction(lam)
    if lam == Fraction(1, 2):
        raise PreconditionError("slope 1/2 pairs with itself")
    if not 0 < lam < Fraction(1, 2):
        raise PreconditionError(f"slope {lam} outside (0, 1/2)")
    if not is_symmetric(np):
        raise PreconditionError("polygon is not symmetric")
    h, g = np.endpoint
    if h != 2 * g:
        raise PreconditionError(f"endpoint {(h, g)} is not of the form (2g, g)")
    s, r = lam.denominator, lam.numerator
    # lam and 1 - lam each need width s, so the pair only fits when s <= g
    if s > g:
        raise PreconditionError(f"width {s} pair does not fit under endpoint {(h, g)}")
    mirror = involution_point(g, (s, r))
    out = np_from_points(list(np.breakpoints()) + [(s, r), mirror])
    if not is_symmetric(out):
        raise InternalCheckFailed(f"adjoining {lam} to {np} broke symmetry: {out}")
    return out


def np_merge(*polys: NewtonPolygon) -> NewtonPolygon:
    """Polygon of a direct sum: all segments pooled and sorted by slope."""
    segs = sorted(
        (sl, w) for np in polys for sl, w in np.segments)
    return np_make(segs)


# -- strata ---------------------------------------------------------------


class Stratification(NamedTuple):
    d: int
    c: int
    lam: Fraction
    region: tuple[Point, ...]           # the parallelogram P, row-major
    np_star: NewtonPolygon
    active: frozenset[Point]            # P(*): points of P on or above np_star
    layers: dict                        # j -> frozenset of points, j = sy - rx

    def layer(self, j: int) -> frozenset:
        return self.layers.get(j, frozenset())

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "c": self.c,
            "slope": str(self.lam),
            "region": sorted(list(p) for p in self.region),
            "np_star": self.np_star.to_json(),
            "active": sorted(list(p) for p in self.active),
            "layers": {str(j): sorted(list(p) for p in layer)
                       for j, layer in sorted(self.layers.items())},
        }


def coord_name(x: int, y: int) -> str:
    return f"u({x},{y})"


def parallelogram(d: int, c: int) -> tuple[Point, ...]:
    """Lattice points of the region with vertices (1,0), (d,0), (c,c-1),
    (h-1,c-1): row y holds exactly x in [y+1, y+d]."""
    return tuple((x, y) for y in range(c) for x in range(y + 1, y + d + 1))


def strata(d: int, c: int, np0: NewtonPolygon, lam) -> Stratification:
    """Filter the parallelogram by the adjoined polygon np(*) and slice it
    by level: level j of (x, y) is sy - rx, nonnegative exactly on points
    at or above the slope lam line through the origin; the active set is
    cut out by np(*) instead of the line, read once per column x."""
    if np0.endpoint != (d + c, c):
        raise PreconditionError(
            f"polygon endpoint {np0.endpoint} is not (d + c, c) = {(d + c, c)}")
    lam = Fraction(lam)
    s, r = lam.denominator, lam.numerator
    np_star = adjoin(np0, (s, r))
    region = parallelogram(d, c)
    floor = [np_star.value_at(x) for x in range(d + c + 1)]
    active = frozenset((x, y) for x, y in region if y >= floor[x])
    layers: dict[int, set] = {}
    for x, y in active:
        layers.setdefault(s * y - r * x, set()).add((x, y))
    return Stratification(
        d, c, lam, region, np_star, active,
        {j: frozenset(v) for j, v in layers.items()})


def check_below_base(np0: NewtonPolygon, lam: Fraction) -> None:
    """Refuse a slope lam that is not strictly below every slope of np0:
    the deformation, its equation and the certificate all rest on it."""
    slopes = np0.slopes()
    if slopes and lam >= min(slopes):
        raise PreconditionError(
            f"slope {lam} is not strictly below the base slopes "
            f"{', '.join(map(str, slopes))}")


def stratify(np0: NewtonPolygon, lam) -> Stratification:
    """Strata of lam over the base np0 ending at (h, c), d = h - c; refused
    unless 1 <= d <= h - 1 and lam is below every base slope and attainable."""
    lam = Fraction(lam)
    h, c = np0.endpoint
    if not 0 < c < h:
        raise PreconditionError(f"h = {h} needs 1 <= d <= h - 1")
    check_below_base(np0, lam)
    if attainable(np0, lam) is None:
        raise PreconditionError(f"slope {lam} is not attainable from {np0}")
    return strata(h - c, c, np0, lam)
