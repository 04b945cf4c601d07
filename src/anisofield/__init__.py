"""Synthesis of fractional Brownian paths and anisotropic 2-d fields,
discrete Radon projections, and directional regularity estimation from
generalized quadratic variations, with the asymptotic constants of the
estimator and a Monte Carlo evaluation harness.

Each module's ``__all__`` is the one list of its public names, and the
package re-exports them all."""

from .errors import *
from .filters import *
from .spectral import *
from .synthesis import *
from .projection import *
from .estimator import *
from .theory import *
from .harness import *

__version__ = "0.1.0"
