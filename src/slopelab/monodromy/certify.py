"""Largeness certificate for the monodromy of a one-new-slope family.

Three independent legs, one per distinguished graded piece of the unit
filtration:

  piece 0:  the residue equation is Kummer of separable degree p^s - 1
            and specializations generically attain it;
  pieces 1 and s:  the graded equation at that level carries the
            distinguished monomial z_1^M t^{-N}, and the projected
            Artin-Schreier-type equation admits a no-solution
            certificate, so the extension it cuts out is nontrivial;
  closure:  lifts covering graded pieces {0, 1, s} generate the full
            finite unit quotient, so the pieces seen above already force
            the whole group.

Any leg may fail; failures are recorded in the report with the stratum
that broke, and the verdict is "large" only when every leg certifies.
"""

from __future__ import annotations

from .. import unitgroup
from ..arith.fields import FieldSpec, field_make
from ..errors import GuardExceeded, PreconditionError
from ..polygon import NewtonPolygon, Stratification, stratify
from .artinschreier import additive_make
from .equations import first_witt_equation
from .slab import no_solution_certificate, slab_make


def check_slope_shape(lam) -> None:
    """The certificate pattern needs s >= 3 and r <= s - 2 for lam = r/s."""
    s, r = lam.denominator, lam.numerator
    if s < 3:
        raise PreconditionError(f"need denominator s >= 3, slope is {lam}")
    if r == s - 1:
        raise PreconditionError(
            f"slope {lam} has numerator s-1; the certificate pattern "
            "needs r <= s-2")


def _first_leg(p: int, strat: Stratification, seed: int) -> dict:
    evidence = first_witt_equation(p, strat.d + strat.c, strat.d,
                                   strat.lam, seed=seed)
    # the degree identity, the exponent factorization and the divisibility
    # of every sample hold by construction; docs/certificates.md says why
    return {"piece": 0,
            "status": "certified" if evidence["attained"] else "failed",
            "evidence": evidence}


def _graded_leg(field: FieldSpec, strat: Stratification, ell: int,
                guard: int) -> dict:
    """Certify piece ell from the distinguished monomial z_1^M t^{-N},
    M = p^(h-d-y0), N = p^h - p^(h-x0), that `graded_equations` builds at
    level ell for each point (x0, y0) of P(ell); the first to certify wins.

    A is that monomial alone and B is zero.  The leg reads every other
    term as z_1-free, its foreign unknowns as constants, and each sits at
    t^(p^(h-x) - p^h) with x >= 1, a negative exponent.  The window
    projector keeps only the z_1^0 monomials at t^0, so B projects to
    zero whatever values those unknowns take ("Why the graded legs pass
    no B" in docs/certificates.md).
    """
    p = field.p
    h, d = strat.d + strat.c, strat.d
    points = sorted(strat.layer(ell))
    if not points:
        return {"piece": ell, "status": "failed",
                "evidence": {"error": f"stratum P({ell}) is empty"}}
    frob = additive_make(field, {strat.lam.denominator: 1, 0: field.neg(1)})
    B = slab_make(field, 1, {})
    feedback = []
    for (x0, y0) in points:
        M = p ** (h - d - y0)
        N = p ** h - p ** (h - x0)
        A = slab_make(field, 1, {((M,), -N): 1})
        try:
            cert = no_solution_certificate(frob, A, B, M, N, guard=guard)
        except GuardExceeded as err:
            feedback.append({"point": [x0, y0], "error": str(err)})
            continue
        return {"piece": ell, "status": "certified",
                "evidence": {"point": [x0, y0], "M": M, "N": N,
                             "e": cert["e"], "certificate": cert}}
    return {"piece": ell, "status": "failed",
            "evidence": {"stratum": [[x, y] for x, y in points],
                         "attempts": feedback}}


def _closure_leg(field: FieldSpec, strat: Stratification, guard: int) -> dict:
    s, r = strat.lam.denominator, strat.lam.numerator
    q = field.q
    n = 1
    while n + 1 <= 2 * s and (q - 1) * q ** n <= guard:
        n += 1
    if n < s + 1:
        # piece s only acts on quotients deeper than s; a shallower
        # closure would certify the wrong statement
        need = (q - 1) * q ** s
        return {"piece": "closure", "status": "failed",
                "evidence": {"error": f"guard {guard} does not admit depth "
                                      f"{s + 1} (needs {need} elements)"}}
    report = unitgroup.generation_report(field, r, n, [0, 1, s], guard=guard)
    return {"piece": "closure",
            "status": "certified" if report["generates"] else "failed",
            "evidence": report}


def largeness_certificate(np0: NewtonPolygon, lam, p: int,
                          guard: int = 10 ** 7, seed: int = 0) -> dict:
    """The three-leg report for lam over the base polygon np0, over
    F_q = field_make(p, s); verdict "large" iff all certify.  seed draws
    only leg 0's samples: the other legs read nothing that depends on
    which modulus presents F_q."""
    strat = stratify(np0, lam)
    check_slope_shape(strat.lam)
    s = strat.lam.denominator
    field = field_make(p, s)
    legs = [_first_leg(p, strat, seed)]
    for ell in (1, s):
        legs.append(_graded_leg(field, strat, ell, guard))
    legs.append(_closure_leg(field, strat, guard))
    verdict = "large" if all(l["status"] == "certified" for l in legs) \
        else "inconclusive"
    return {
        "pieces": [0, 1, s],
        "slope": str(strat.lam),
        "legs": legs,
        "verdict": verdict,
    }
