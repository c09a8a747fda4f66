"""Exception hierarchy for the jsbaf package."""

from __future__ import annotations


class JsbafError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(JsbafError):
    """Syntactic error in a rule file. Carries a 1-based line/column."""

    def __init__(self, message: str, line: int, column: int, token: str = ""):
        self.line = line
        self.column = column
        self.token = token
        super().__init__(f"{line}:{column}: {message}")


class ValidationError(JsbafError):
    """Well-formedness violation in a parsed or constructed system.

    Positions are present when the violation was detected while parsing,
    and are (0, 0) for systems constructed programmatically.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            super().__init__(f"{line}:{column}: {message}")
        else:
            super().__init__(message)


class InconsistentSystemError(JsbafError):
    """The strict rules alone derive a complementary pair, so the
    rationality postulates are out of scope for this system."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(
            f"strict rules derive the complementary pair ({pair[0]}, {pair[1]})"
        )


class LimitExceededError(JsbafError):
    """Argument enumeration would exceed the configured cap.  Its subclass
    ``SearchLimitExceededError`` is the other limit of a run, so one
    ``except`` catches both."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"argument store would exceed max_arguments={limit}")


class SearchLimitExceededError(LimitExceededError):
    """An extension search was requested on a framework larger than the
    configured node bound.  It has ``nodes`` and ``bound``, and no
    ``limit``."""

    def __init__(self, nodes: int, bound: int):
        self.nodes = nodes
        self.bound = bound
        JsbafError.__init__(self, f"framework has {nodes} nodes, above the search bound {bound}")


class GenerationFailedError(JsbafError):
    """The random-system generator exhausted its retry budget without
    producing a consistent system."""

    def __init__(self, seed: int, attempts: int):
        self.seed = seed
        self.attempts = attempts
        super().__init__(f"no consistent system for seed {seed} after {attempts} attempts")
