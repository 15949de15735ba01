"""Exception types shared across the package."""


class GameError(Exception):
    """Base class for modelling and solver errors."""


class ValidationError(GameError):
    """A model violates a structural invariant.

    Carries the full list of violations so callers can report them all at once.
    """

    def __init__(self, issues):
        self.issues = [str(i) for i in issues]
        super().__init__("; ".join(self.issues))


class CycleError(GameError):
    """A graph that must be acyclic contains a cycle."""


class ZeroProbabilityEvidence(GameError):
    """Conditioning on evidence whose probability is zero."""


class MissingRule(GameError):
    """A policy profile lacks a rule for a decision or information set."""


class UnknownAgent(GameError):
    """An agent name that is not part of the game."""


class SearchSpaceTooLarge(GameError):
    """An enumeration would exceed the configured cap on candidates."""


class NonTopologicalOrder(GameError):
    """A supplied expansion order puts a variable before one of its parents."""


class NotOpenMinded(GameError):
    """An encounterable information set has no positively-believed model realizing it."""


class SchemaViolation(GameError):
    """A document failed schema or semantic validation.

    ``path`` points at the offending field in JSON-path style.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
