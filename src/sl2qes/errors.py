"""Exception types shared across the package."""


class Sl2QesError(Exception):
    """Base class for all package errors."""


class RepresentationError(Sl2QesError, ValueError):
    """A polynomial lies outside the bounded-degree representation space."""


class InvalidParameterError(Sl2QesError, ValueError):
    """A family parameter violates its validity predicate."""


class BranchError(Sl2QesError, ValueError):
    """No usable branch: the quartic weight is not positive, or a requested
    u lies beyond the branch's reach."""


class SingularPointError(Sl2QesError, ValueError):
    """Evaluation or integration hits a zero of the quartic weight."""


class NoBoundStateError(Sl2QesError, ValueError):
    """The requested level index lies outside the bound-state range."""


class NotApplicableError(Sl2QesError, ValueError):
    """The requested quantity is not defined for this family."""


class GridError(Sl2QesError, ValueError):
    """A discretization grid is unusable (non-finite potential, size mismatch)."""
