"""Exception types shared across the package."""


class PathShapError(Exception):
    """Base class for all errors raised by this package."""


class MalformedGraph(PathShapError):
    """The graph file violates the input format or a structural invariant."""


class InvalidPlayerSet(PathShapError):
    """A coalition references an item that is not an endogenous player."""


class UnknownVertex(PathShapError):
    """A vertex id does not exist in the graph."""


class RegexSyntaxError(PathShapError):
    """Malformed regular expression; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AlphabetMismatch(PathShapError):
    """A symbol in the expression is outside the declared alphabet."""


class QuerySyntaxError(PathShapError):
    """Malformed query or binding string."""


class EnumerationOverflow(PathShapError):
    """An enumeration exceeded its configured cap."""


class InfiniteLanguage(PathShapError):
    """A finite-language-only operation was asked about an infinite atom."""


class BudgetExceeded(PathShapError):
    """A bounded search exhausted its node budget, or a sampler would need
    more than its trial cap; the answer is unknown."""


class NoPlayers(PathShapError):
    """The requested game has no endogenous players."""
