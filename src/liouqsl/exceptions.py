"""Exception types shared across the package.

Input problems (bad matrices, mismatched dimensions, malformed specs, even
or short grids) raise ValidationError subclasses. Conditions detected at
run time on otherwise valid inputs (defective generators, degenerate
kernels, inconsistent numerics) raise NumericalConsistencyError
subclasses. The CLI maps the former to exit code 1, the latter to 2.
"""


class ValidationError(ValueError):
    """Input data violates a structural requirement."""


class DimensionError(ValidationError):
    """Array shapes are incompatible with the requested operation."""


class NumericalConsistencyError(RuntimeError):
    """A numerical result left its guaranteed tolerance envelope."""


class QuadratureError(ValidationError):
    """Time grid unsuitable for the composite quadrature rule."""


class DefectiveGeneratorError(NumericalConsistencyError):
    """Eigendecomposition failed the biorthogonality condition."""


class NonUniqueSteadyStateError(NumericalConsistencyError):
    """The zero eigenvalue of the generator is degenerate."""
