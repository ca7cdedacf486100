"""Exception types shared across the package."""


class ChemSpaceError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ChemSpaceError):
    """Fingerprints of different widths were combined."""


class DatasetFormatError(ChemSpaceError):
    """A dataset file could not be parsed or violated its invariants."""


class SyntheticConfigError(ChemSpaceError, ValueError):
    """A synthetic dataset was requested with out-of-range parameters."""


class MatrixValidationError(ChemSpaceError):
    """An explicit distance matrix failed validation.

    Carries the offending entry (or triple, for triangle violations) so the
    caller can point at the exact problem.
    """

    def __init__(self, message: str, indices: tuple = ()):
        super().__init__(message)
        self.indices = indices


class MissingFragmentsError(ChemSpaceError):
    """A reference-based measure was asked about a record without fragment annotations."""


class MeasureParamError(ChemSpaceError):
    """A measure was requested with missing or invalid parameters."""


class MeasureSizeError(ChemSpaceError):
    """A measure refused to run at the requested set size."""


class ProtocolError(ChemSpaceError):
    """A correlation protocol could not satisfy its sampling preconditions."""


class AxiomCheckError(ChemSpaceError):
    """An axiom check was asked for a verdict with no search behind it."""
