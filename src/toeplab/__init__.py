"""Spectral measures of invariant phase-space multipliers on weight spaces.

The package assembles the compressed multiplication operators acting on
homogeneous polynomial spaces, computes their trace measures and the
asymptotics of those measures in the inverse degree, and checks the
results against operator-free predictions: reduced-space integrals,
lattice volumes of level polytopes, ray extrapolation of point values,
and a local Gaussian model.
"""

from .canonical_model import *
from .errors import *
from .hardy_sphere import *
from .inverse import *
from .multiindex import *
from .reduction import *
from .spectral import *
from .toric import *

__version__ = "0.1.0"
