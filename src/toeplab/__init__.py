"""Spectral measures of invariant phase-space multipliers on weight spaces.

The package assembles the compressed multiplication operators acting on
homogeneous polynomial spaces, computes their trace measures and the
asymptotics of those measures in the inverse degree, and checks the
results against operator-free predictions: reduced-space integrals,
lattice-fiber counts, ray extrapolation of point values, and a local
Gaussian model.
"""

from .canonical_model import (
    IsometryReport,
    ModelIndex,
    QuadratureSpec,
    annihilation_residual,
    check_isometry,
    fm_eval,
    fm_normalization,
)
from .errors import (
    EigensolveError,
    IllConditionedFitError,
    PolynomialDegreeError,
    RegularityError,
    SamplerEfficiencyError,
    SymbolFormatError,
    ToeplabError,
    UnboundedFiberError,
    ValidationError,
)
from .hardy_sphere import (
    InvariantSymbol,
    SymbolPoly,
    ToeplitzBlock,
    assemble_block,
    invariant_eigenvalue,
    monomial_norm,
)
from .inverse import (
    DistinguishReport,
    ExtrapolationResult,
    RayResult,
    Reconstruction,
    extrapolate_ray,
    loglog_slope,
    ray_levels,
    reconstruct,
    spectral_distinguishability,
)
from .multiindex import (
    SubtorusData,
    diagonal_circle,
    dimension_of_degree_space,
    enumerate_degree,
    enumerate_fiber,
    fiber_polytope_vertices,
    full_torus,
    grlex_key,
    recession_pointed,
)
from .reduction import (
    c0_simplex_quad,
    c0_sphere_mc,
    sample_sphere,
    sphere_sigma_volume,
)
from .spectral import (
    AsymptoticFit,
    TestFunction,
    fit_expansion,
    measure_eigen,
    measure_poly,
    richardson_limit,
    scaled_measure,
)
from .toric import (
    EXAMPLE_SUBTORI,
    EquivariantSpectrum,
    RegularFreeReport,
    VertexReport,
    equivariant_spectrum,
    fiber_measure,
    fiber_measure_series,
    fiber_volume,
    regular_free_check,
    theorem2_leading,
)

__version__ = "0.1.0"
