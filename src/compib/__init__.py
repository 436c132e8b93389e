"""Exact monogenity computations in composites K = L*M of a totally real
field L with an imaginary quadratic field M = Q(i*sqrt(d)).

The package decides whether K admits a power integral basis by reducing
the index form of K to index-form bounds over L, enumerating the finitely
many candidate generators, and certifying each one with exact integer
arithmetic (intervals are only ever used to pre-screen or to certify
quantities known in advance to be integers).
"""

from .composite import CompositeField, make_composite
from .errors import (CompibError, CoprimalityError, InternalInvariantError,
                     PrecisionError, ValidationError)
from .imquad import ImagQuadField, make_imq
from .numberfield import NumberField, field_from_dict, make_field
from .polynomials import Poly, discriminant, isolate_real_roots, resultant
from .simplest_quartic import (d3_partial_search, make_simplest_quartic,
                               olajos_generators, verify_theorem_cq)
from .solver import (BoundsRecord, Generator, SolverReport, bounds_hold,
                     solve, solve_norm_unit_y1, theorem_main_bounds)

__version__ = "0.1.0"

__all__ = [
    "BoundsRecord",
    "CompibError",
    "CompositeField",
    "CoprimalityError",
    "Generator",
    "ImagQuadField",
    "InternalInvariantError",
    "NumberField",
    "Poly",
    "PrecisionError",
    "SolverReport",
    "ValidationError",
    "bounds_hold",
    "d3_partial_search",
    "discriminant",
    "field_from_dict",
    "isolate_real_roots",
    "make_composite",
    "make_field",
    "make_imq",
    "make_simplest_quartic",
    "olajos_generators",
    "resultant",
    "solve",
    "solve_norm_unit_y1",
    "theorem_main_bounds",
    "verify_theorem_cq",
    "__version__",
]
