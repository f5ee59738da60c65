"""Exception types shared across the package."""


class PlapError(Exception):
    """Base class for all package-specific errors."""


class SingularGradientError(PlapError):
    """A singular operator family was evaluated at a zero gradient."""


class GridMismatchError(PlapError):
    """Two fields live on different grids and cannot be combined."""


class CflViolationError(PlapError):
    """A requested time step exceeds the stability bound."""


class BlowUpError(PlapError):
    """The explicit scheme produced a non-finite value."""

    def __init__(self, node, time, member=None):
        self.node = node
        self.time = time
        self.member = member  # the problem's place in a lockstep solve of several
        where = f"node {node}" if member is None else f"node {node} of problem {member}"
        super().__init__(f"non-finite value at {where}, t={time:.6g}")


class BudgetExceededError(PlapError):
    """The horizon was not reached within the step budget."""


class CaseNotApplicableError(PlapError, ValueError):
    """Rate-theorem parameters fall outside the case's validity window."""
