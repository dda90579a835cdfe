"""slopelab: Newton-polygon deformation calculus for F-crystals at desk scale."""

from .display import (DeformationSpec, Display, Stratification, charpoly,
                      charpoly_polygon, deformation, display_polygon,
                      split_display, strata)
from .errors import (CliParseError, GuardExceeded, PreconditionError,
                     SlopelabError)
from .polygon import (NewtonPolygon, adjoin, attainable, compare, np_make,
                      np_merge, symmetric_adjoin)
from .serialize import canonical_dumps, np_from_json

__version__ = "0.1.0"

__all__ = [
    "DeformationSpec", "Display", "Stratification", "charpoly",
    "charpoly_polygon", "deformation", "display_polygon", "split_display",
    "strata",
    "CliParseError", "GuardExceeded", "PreconditionError", "SlopelabError",
    "NewtonPolygon", "adjoin", "attainable", "compare", "np_make", "np_merge",
    "symmetric_adjoin",
    "canonical_dumps", "np_from_json",
    "__version__",
]
