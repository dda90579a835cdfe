"""sigma-twisted polynomials in F over a Witt ring.

The commutation rule is F a = a^sigma F, so

    (a F^i)(b F^j) = a b^{sigma^i} F^{i+j}.

A TwistedPoly takes its coefficient ops from a ring object.  Numeric
coefficients are Witt elements and the WittRing itself is that object;
only it multiplies.  SymCoeffOps carries the symbolic charpoly of a
deformation: a Witt element plus formal Teichmuller summands
p^y <u>^{sigma^e} with unit symbols u, built by lift/symbol/add/neg,
read by ord and element_to_json, and evaluated by specialize.
"""

from __future__ import annotations

from dataclasses import dataclass

from .witt import WittElt, WittRing


@dataclass(frozen=True, order=True)
class SymTerm:
    """One formal summand sign * p^p_exp * <name>^{sigma^twist}.

    The twist exponent is kept unreduced; it is taken mod the degree of
    the field the symbol is specialized in.  Signs stay in {+1, -1}:
    Teichmuller symbols only ever enter formulas with unit integer
    coefficients.
    """

    name: str
    p_exp: int
    twist: int
    sign: int = 1


@dataclass(frozen=True)
class SymCoeff:
    """base + sum of formal terms, base a Witt element."""

    base: WittElt
    terms: tuple[SymTerm, ...]


class SymCoeffOps:
    """Coefficient ops for formal Teichmuller summands.

    Symbols are treated as units, so ord(p^y <u>) = y.
    """

    __slots__ = ("ring",)

    def __init__(self, ring: WittRing):
        self.ring = ring

    def lift(self, base: WittElt) -> SymCoeff:
        return SymCoeff(base, ())

    def symbol(self, name: str, p_exp: int = 0, twist: int = 0) -> SymCoeff:
        return SymCoeff(self.ring.zero(), (SymTerm(name, p_exp, twist),))

    def zero(self) -> SymCoeff:
        return SymCoeff(self.ring.zero(), ())

    def is_zero(self, a: SymCoeff) -> bool:
        return a.base == self.ring.zero() and not a.terms

    def add(self, a: SymCoeff, b: SymCoeff) -> SymCoeff:
        acc: dict[tuple, int] = {}
        for t in a.terms + b.terms:
            key = (t.name, t.p_exp, t.twist)
            acc[key] = acc.get(key, 0) + t.sign
        terms = []
        for (name, p_exp, twist), sign in acc.items():
            if sign == 0:
                continue
            if abs(sign) != 1:
                raise NotImplementedError(
                    f"formal term {name} with coefficient {sign}")
            terms.append(SymTerm(name, p_exp, twist, sign))
        return SymCoeff(self.ring.add(a.base, b.base), tuple(sorted(terms)))

    def neg(self, a: SymCoeff) -> SymCoeff:
        return SymCoeff(
            self.ring.neg(a.base),
            tuple(sorted(SymTerm(t.name, t.p_exp, t.twist, -t.sign)
                         for t in a.terms)),
        )

    def ord(self, a: SymCoeff) -> int | None:
        vals = [v for v in [self.ring.ord(a.base)] if v is not None]
        vals += [t.p_exp for t in a.terms]
        return min(vals) if vals else None

    def element_to_json(self, a: SymCoeff):
        return {
            "base": self.ring.element_to_json(a.base),
            "terms": [
                {"name": t.name, "p_exp": t.p_exp, "twist": t.twist,
                 "sign": t.sign}
                for t in a.terms
            ],
        }

    def specialize(self, a: SymCoeff, values: dict) -> WittElt:
        """Replace each symbol by the Teichmuller lift of its field value;
        values maps symbol name -> element of the ops ring's field."""
        ring = self.ring
        out = a.base
        for t in a.terms:
            v = values[t.name]
            lifted = ring.teichmuller(ring.field.frobenius(v, t.twist)) \
                if v else ring.zero()
            term = ring.scalar_mul(t.sign * ring.field.p ** t.p_exp, lifted)
            out = ring.add(out, term)
        return out


class TwistedPoly:
    """Polynomial sum_k c_k F^k with the twisted product rule."""

    __slots__ = ("ops", "coeffs")

    def __init__(self, ops, coeffs: dict):
        self.ops = ops
        self.coeffs = {k: c for k, c in coeffs.items() if not ops.is_zero(c)}

    @classmethod
    def zero(cls, ops) -> "TwistedPoly":
        return cls(ops, {})

    def degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, k: int):
        return self.coeffs.get(k, self.ops.zero())

    def add(self, other: "TwistedPoly") -> "TwistedPoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = self.ops.add(out[k], c) if k in out else c
        return TwistedPoly(self.ops, out)

    def mul(self, other: "TwistedPoly") -> "TwistedPoly":
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                term = self.ops.mul(a, self.ops.sigma(b, i))
                k = i + j
                out[k] = self.ops.add(out[k], term) if k in out else term
        return TwistedPoly(self.ops, out)

    def ord_map(self) -> dict[int, int | None]:
        """F-exponent -> coefficient ord, for Newton-polygon assembly."""
        return {k: self.ops.ord(c) for k, c in self.coeffs.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, TwistedPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        ks = sorted(self.coeffs, reverse=True)
        return "TwistedPoly(" + " + ".join(f"c{k}*F^{k}" for k in ks) + ")"
