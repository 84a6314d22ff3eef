"""Exception types shared across the package."""


class BoxhamError(Exception):
    """Base class for all package-specific errors."""


class VolumeError(BoxhamError):
    """Geometry problem: site count over the cap, box outside the radius,
    or a construction that needs more shells than the partition holds."""


class IncompleteSampleError(BoxhamError):
    """A disorder sample is missing a value for a materialized box."""


class SpectralProximityError(BoxhamError):
    """A linear solve at spectral parameter z sat too close to the spectrum.

    ``residual`` carries the evidence so the caller can report how close the
    call was: either the distance bound ||rhs|| / ||x|| to the nearest
    eigenvalue, or the absolute residual norm of the solve.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ConvergenceError(BoxhamError):
    """An eigensolve failed in LAPACK, or one of its eigenpairs left a
    residual above 1e-10 * ||D||."""


class MagnitudeError(BoxhamError):
    """A requested quantity left the usefully representable floating range."""


class CombinatorialLimitError(BoxhamError):
    """An exhaustive enumeration would exceed its configured cap."""


class DegenerateInputError(BoxhamError):
    """Input that the construction cannot meaningfully process
    (e.g. coincident points where a positive gap is required)."""


class MatchingError(BoxhamError):
    """Adjacent factor modes sit too close to attach labels by predicted order."""


class ConfigError(BoxhamError):
    """Malformed experiment configuration.

    ``line`` is the 1-based line number in the config file when known,
    ``field`` the offending (or missing) key.
    """

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        super().__init__(message)
        self.line = line
        self.field = field


class PrecisionWarning(UserWarning):
    """r^2-scale rounding is about to eat more than 1e-3 of the quantity
    under test.  The eigensolve of r^2 H_r resolves no finer than about
    r^2 * eps * ||H_r||, whatever the precision of the complement solve; the
    caller records the trip with its result."""
