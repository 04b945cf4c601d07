"""Exception hierarchy shared by all anisofield modules."""


class AnisofieldError(Exception):
    """Base class for all errors raised by this package."""


# --- filter construction -------------------------------------------------

class OrderZero(AnisofieldError):
    """Coefficients do not sum to zero, so the filter has order 0."""


class AllMomentsVanish(AnisofieldError):
    """Every tested moment is below tolerance; the filter is degenerate."""


# --- spectral models ------------------------------------------------------

class ZeroFrequency(AnisofieldError):
    """Spectral density evaluated at the origin, where it is singular."""


class QuadratureFailure(AnisofieldError):
    """The 16- and 32-point rules disagree above the requested tolerance."""


# --- random generation ----------------------------------------------------

class EmbeddingNotPSD(AnisofieldError):
    """The circulant embedding of a covariance has negative eigenvalues."""


# --- field files ----------------------------------------------------------

class MalformedFieldFile(AnisofieldError, ValueError):
    """A field file is not AFB1, or its size disagrees with its header."""


class MalformedPathFile(AnisofieldError, ValueError):
    """A path CSV has a row that is not two numbers, a metadata comment
    whose value does not parse, or fewer than two values."""


# --- estimators -----------------------------------------------------------

class PathTooShort(AnisofieldError):
    """Sampled path has fewer points than the variation sum needs."""


class ZeroVariation(AnisofieldError):
    """A quadratic variation vanished, so its log-ratio is undefined."""


class NonFiniteVariation(AnisofieldError):
    """A quadratic variation is NaN or infinite: the input is not finite."""


class EqualDilations(AnisofieldError):
    """Dilation factors u and v must differ for a log-ratio estimate."""


class GridTooCoarse(AnisofieldError, ValueError):
    """Subsampled grid is too short for the requested estimator."""


# --- asymptotic constants ---------------------------------------------------

class OrderTooLow(AnisofieldError):
    """Filter order is too small for the requested constant to be finite."""


class NegativeVariance(AnisofieldError):
    """Composed limit variance came out negative beyond roundoff."""


# --- evaluation harness -----------------------------------------------------

class TooManyFailures(AnisofieldError):
    """More than the tolerated share of Monte Carlo replicates errored."""
