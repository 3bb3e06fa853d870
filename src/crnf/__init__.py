"""Exact-arithmetic normal forms for finite type real hypersurfaces in C^2.

A hypersurface is given as a graph v = F(x, y, u) with z = x + iy and
w = u + iv, of finite type k >= 3, in coordinates where the lowest-weight
part of F is x^k.  The package computes formal normal forms at a chosen
truncation weight N, decides equivalence of tube hypersurfaces v = F(x),
and classifies the linear symmetries that survive normalization.  All
arithmetic is exact (Fractions and Gaussian rationals); results at weight
<= N are true identities, not approximations.
"""

from .errors import (
    CrnfError,
    DigitLimitError,
    InputError,
    InternalError,
    NotExactlyRepresentableError,
    NotRigidError,
    NotTransversallyFlatError,
    NotTubeModelError,
    SingularSystemError,
    StructuralError,
    TruncationError,
    UnsupportedTypeError,
)
from .series import (
    ComplexSeries,
    GaussRat,
    HoloSeries,
    Rat,
    RealSeries,
    rat,
    restrict_to_M,
    to_complex_basis,
    to_real_basis,
)
from .hypersurface import Hypersurface, ModelInfo, detect_tube_model
from .transform import (
    FormalMap,
    LinearFactor,
    apply_linear_series,
    model_automorphism,
    pushforward,
    pushforward_series,
)
from .normalize import (
    NormalFormKind,
    NormalizationResult,
    Violation,
    check,
    nt_normalize,
    rigid_normalize,
    t_normalize,
)
from .equivalence import (
    RadicalReal,
    TubeWitness,
    rigid_equivalence_reduce,
    tube_equivalent,
)
from .symmetry import (
    AutClass,
    RootRotation,
    classify_aut,
    is_linear_automorphism,
    rotation_order,
)
from .fileformat import parse_map, parse_series, serialize_map, serialize_series

__version__ = "0.1.0"
