"""Exception types shared across the package."""


class NumericsError(Exception):
    """Base class for numerical failures (quadrature, divergence, metadata)."""


class QuadratureFailure(NumericsError):
    """Requested tolerance unreachable within the subdivision budget."""


class DivergentIntegral(NumericsError):
    """An integral diverges, proven or numerically manifest: any "tail" stop
    (require_converged), on the lattice also an edge held open by rounding."""


class NonIntegrableAtInfinity(NumericsError):
    """Decay metadata rules out integrability over the half-plane."""


class MissingExponentMetadata(NumericsError):
    """A density segment touches 0 or infinity without endpoint exponents."""


class ParameterOutOfRange(ValueError):
    """Hypotheses of a case-based inequality are violated by the parameters."""
