"""Exception types shared across the package."""


class DegenerateFrame(ValueError):
    """The lightlike frame is degenerate for this state (k.p vanishes)."""


class NonMonotone(ValueError):
    """A reparameterization clock has non-positive derivative somewhere."""


class LevelMismatch(ValueError):
    """Mode-number sums of a composite invariant disagree with its level."""


class GradientMismatch(RuntimeError):
    """Propagated and finite-difference gradients disagree beyond tolerance."""


class NotConverged(RuntimeError):
    """An iterative solver reached its iteration limit without meeting its tolerance."""
