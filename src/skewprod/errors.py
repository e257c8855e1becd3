"""Exception hierarchy for skewprod."""


class SkewprodError(Exception):
    """Base class for all skewprod errors."""


class ConfigError(SkewprodError):
    """Invalid experiment configuration; message carries the field path."""


class NonStochasticRow(SkewprodError):
    """A transition-matrix row does not sum to 1 within tolerance."""


class ZeroTransition(SkewprodError):
    """Transition matrix has a zero entry; the mixing bounds need Q > 0."""


class ZeroStateSpace(SkewprodError):
    """Degenerate one-state base rejected (use allow_deterministic)."""


class NoConvergence(SkewprodError):
    """Iteration failed to reach tolerance within its budget."""


class NonpositiveEigenfunction(SkewprodError):
    """An eigenfunction or Gibbs weight that must be strictly positive is not."""


class InvalidSymbol(SkewprodError):
    pass


class InsufficientWindow(SkewprodError):
    """Window does not cover the indices an operation requires."""


class UnsupportedXi(SkewprodError):
    """Hoelder exponent alpha outside (0, 1] (the norm's xi is fixed at 1/2)."""


class DepthShrink(SkewprodError):
    """CylinderFunction.extend cannot reduce the depth of a cylinder function."""


class MissingSymbol(SkewprodError):
    """Potential tables do not cover the requested base symbol."""


class DepthMismatch(SkewprodError):
    pass


class NotLattice(SkewprodError):
    """Operation requires lattice-valued u tables."""


class LatticeTooLarge(SkewprodError):
    """Exact lattice law would exceed the state budget."""


class DegenerateVariance(SkewprodError):
    """Asymptotic variance is (numerically) zero."""


class ClassifierFailed(SkewprodError):
    """Lattice/aperiodicity classification failed; LLT/renewal refused."""


class NonPositiveMean(SkewprodError):
    """Renewal needs a positive drift and a strictly positive f."""


class NonConstantMean(SkewprodError):
    """Renewal needs a constant step mean and a constant mu(f) across environments."""


class TruncationInsufficient(SkewprodError):
    """Renewal truncation N does not cover the requested a-range."""


class DoeblinViolated(SkewprodError):
    """Kernel entry outside the two-sided bounds [alpha, 1/alpha]."""
