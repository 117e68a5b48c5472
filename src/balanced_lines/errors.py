"""Exception types shared across the package."""


class BalancedLinesError(Exception):
    """Base class for all package-specific errors."""


class ParityError(BalancedLinesError):
    """Instance has an odd number of points."""


class CollinearWitnessError(BalancedLinesError):
    """A third point is collinear with the spanning pair."""


class FailsToSeparateError(BalancedLinesError):
    """Perturbation could not produce a defect-free instance."""


class DegenerateInputError(BalancedLinesError):
    """Point set violates the sweep preconditions (collinear or parallel defects)."""


class BadParamsError(BalancedLinesError):
    """Parameters violate a documented precondition."""


class MixedColorsError(BalancedLinesError):
    """Curve subset must be monochromatic."""


class GenerationExhaustedError(BalancedLinesError):
    """Random generation failed to produce a clean instance within the retry budget."""


class InsufficientBorderError(BalancedLinesError):
    """A certificate obligation failed for the current border.

    The hint names the curve whose obligation failed, e.g. ``("G", 2)``.
    Nothing retries: ``certify`` scans a fixed-point border, so it reports
    this as a ProofGapError.
    """

    def __init__(self, message, hint=None):
        super().__init__(message)
        self.hint = hint


class ProofGapError(BalancedLinesError):
    """A step the underlying theorem guarantees did not hold.

    Raised only on implementation bugs or invalid inputs, never in normal
    operation.
    """
