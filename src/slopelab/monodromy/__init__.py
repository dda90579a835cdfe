"""Monodromy-equation tower, reducibility criteria, and certificates.
Names load on first use, as in `slopelab`."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "artinschreier": ("AdditivePolynomial", "additive_make", "as_reducible",
                      "as_reducible_oracle"),
    "certify": ("check_slope_shape", "largeness_certificate"),
    "equations": ("DemazureData", "EqTerm", "GradedEquation", "GradedTerm",
                  "MonodromyEquation", "demazure_slope", "first_witt_equation",
                  "graded_equations", "monodromy_equation"),
    "slab": ("LaurentSlab", "laurent_projector", "no_solution_certificate",
             "slab_make"),
})
