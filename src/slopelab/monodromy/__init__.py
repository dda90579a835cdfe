"""Monodromy-equation tower, reducibility criteria, and certificates."""

from .artinschreier import (AdditivePolynomial, additive_make, as_reducible,
                            as_reducible_oracle)
from .certify import check_slope_shape, largeness_certificate
from .equations import (DemazureData, EqTerm, FirstWittData, GradedEquation,
                        GradedTerm, MonodromyEquation, demazure_slope,
                        first_witt_equation, graded_equations,
                        monodromy_equation)
from .slab import (CertificateInapplicable, LaurentSlab, laurent_projector,
                   no_solution_certificate, slab_add, slab_make, slab_mul,
                   slab_pow_p, slab_scale, slab_to_w_poly)

__all__ = [
    "AdditivePolynomial", "additive_make", "as_reducible",
    "as_reducible_oracle", "check_slope_shape", "largeness_certificate",
    "DemazureData", "EqTerm", "FirstWittData", "GradedEquation", "GradedTerm",
    "MonodromyEquation", "demazure_slope", "first_witt_equation",
    "graded_equations", "monodromy_equation", "CertificateInapplicable",
    "LaurentSlab", "laurent_projector", "no_solution_certificate", "slab_add",
    "slab_make", "slab_mul", "slab_pow_p", "slab_scale", "slab_to_w_poly",
]
