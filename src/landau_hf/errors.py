"""Exception types shared across the package."""


class LandauHFError(Exception):
    """Base class for every error raised by this package."""


# --- configuration / core model ---------------------------------------------

class MalformedConfig(LandauHFError):
    """Configuration document is syntactically broken."""


class InvalidValue(LandauHFError):
    """A configuration key is missing, unparseable, or out of contract."""

    def __init__(self, key: str, message: str = ""):
        self.key = key
        detail = f": {message}" if message else ""
        super().__init__(f"invalid value for '{key}'{detail}")


class GridMismatch(LandauHFError):
    """Two fields do not live on the same quadrature grid."""


# --- single-particle basis ---------------------------------------------------

class DegreeOutOfRange(LandauHFError):
    """Hermite-function degree outside the supported range."""


class TruncationTooSmall(LandauHFError):
    """A truncation (lattice sum or level cutoff) cannot reach the target tolerance."""


class OffGridDisplacement(LandauHFError):
    """Translation vector is not an integer multiple of the grid spacing."""


class GridTooCoarse(LandauHFError):
    """Grid does not resolve the magnetic length / required harmonics."""


class OrthonormalityFailure(LandauHFError):
    """Constructed basis deviates from orthonormality beyond tolerance."""


# --- many-body layer ---------------------------------------------------------

class TooLarge(LandauHFError):
    """A problem exceeds a configured cap: the determinant space or the
    ground-state occupation sets (DET_SPACE_CAP), the bytes of the tensor or
    of H (TENSOR_BYTE_CAP, H_BYTE_CAP), or the matvecs of an exact advance
    (TAYLOR_MATVEC_CAP)."""


class LengthMismatch(LandauHFError):
    """Orbital lists of unequal length."""


class SymmetryViolation(LandauHFError):
    """Two-body kernel is not symmetric under argument exchange."""


class DimensionMismatch(LandauHFError):
    """Incompatible vector/matrix dimensions."""


class NotOrthonormal(LandauHFError):
    """Orbital set is not orthonormal within tolerance."""


# --- effective dynamics ------------------------------------------------------

class StepUnstable(LandauHFError):
    """Single integrator step produced an excessive orthonormality drift."""


class NonFiniteValue(LandauHFError):
    """NaN or infinity encountered during integration."""


class NotUnitary(LandauHFError):
    """Matrix expected to be unitary is not, within tolerance."""


# --- analysis ----------------------------------------------------------------

class SupportViolation(LandauHFError):
    """Residual vector leaks outside the two-replacement sector."""


class NotHermitian(LandauHFError):
    """Matrix expected to be Hermitian is not, within tolerance."""


# --- command line ------------------------------------------------------------

class IoFailure(LandauHFError):
    """File could not be written or read."""
