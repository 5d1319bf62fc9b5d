"""Exception hierarchy for superbgg.

Every error raised by the library derives from SuperBGGError so the CLI can
map mathematical failures and input problems to exit codes uniformly.
"""


class SuperBGGError(Exception):
    """Base class for all superbgg errors."""


class InputError(SuperBGGError):
    """Invalid user input (CLI exit code 2)."""


class UnsupportedAlgebra(InputError):
    """Requested algebra outside gl(m|n) / osp(m|2n)."""


class DegenerateForm(InputError):
    """The invariant bilinear form would be degenerate (gl(n|n))."""


class ParseError(InputError):
    """Weight string could not be parsed; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class LengthMismatch(InputError):
    """Weight string has the wrong number of coordinates."""


class PreconditionViolated(InputError):
    """Operation called outside its stated domain."""


class FiniteDimGuardExceeded(SuperBGGError):
    """Highest-weight build passed max_depth levels; weight is presumably
    not dominant, so the module would be infinite dimensional."""


class NotTypeI(SuperBGGError):
    """Kac-module machinery requires gl(m|n) or osp(2|2n)."""


class LeviNotInEvenPart(SuperBGGError):
    """Weyl-coset resolutions require the Levi inside the even subalgebra."""


class LeviNotClosed(SuperBGGError):
    """A homology quotient handed to decompose_levi met an image outside
    K = ker d*_k, or outside its weight block (LeviModule.express): K is
    not stable under the Levi action."""


class NotCompletelyReducible(SuperBGGError):
    """Multiplicity criterion asked for on a non completely reducible space."""


class CrossCheckFailed(SuperBGGError):
    """An internal consistency check of a computed result failed.

    Raised instead of `assert` so that `python -O` cannot strip it."""


class UnknownScenario(InputError):
    """reproduce() called with an unregistered scenario name."""
