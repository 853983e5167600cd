"""Exception and warning types shared across the toolkit."""

__all__ = [
    "DimensionError",
    "StructureError",
    "EvaluationError",
    "SpectralSingularityError",
    "ResolutionError",
    "AdmissibilityError",
    "SchemaError",
    "SpectralCutWarning",
    "RationalApproximationWarning",
]


class DimensionError(ValueError):
    """Operands are not square, or their shapes do not match."""


class StructureError(ValueError):
    """A matrix fails a structural requirement (unitarity, hermiticity, normality)."""


class EvaluationError(ValueError):
    """A scalar function could not be evaluated on part of a spectrum."""


class SpectralSingularityError(ValueError):
    """An eigenvalue sits too close to a pole of the requested transform."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class ResolutionError(ValueError):
    """Sampled data carries significant energy too close to the grid Nyquist band."""


class AdmissibilityError(ValueError):
    """A directed graph fails the admissibility conditions.

    The failing report is attached as ``.report``.
    """

    def __init__(self, report, message="graph is not admissible"):
        super().__init__(message)
        self.report = report


class SchemaError(ValueError):
    """A serialized document does not match the declared schema or version."""


class SpectralCutWarning(UserWarning):
    """An eigenvalue lies within tolerance of a spectral-cut boundary."""


class RationalApproximationWarning(UserWarning):
    """A translation vector component is numerically indistinguishable from a rational."""
