"""Exception types shared across the package."""


class HadwigerError(Exception):
    """Base class for all package-specific errors."""


# embeddings

class MalformedRotation(HadwigerError):
    pass


class Disconnected(HadwigerError):
    pass


class NotInCatalog(HadwigerError):
    pass


class FacesNotDisjoint(HadwigerError):
    pass


class NotACycle(HadwigerError):
    pass


# vortices

class InvalidDecomposition(HadwigerError):
    pass


# constructions

class GenusOutOfCatalog(HadwigerError):
    def __init__(self, message, required_range=None):
        super().__init__(message)
        self.required_range = required_range


# minor models and oracles

class BudgetExceeded(Exception):
    """Above an oracle's vertex cap (exit 4): no `HadwigerError`, which a loader reads as malformed input."""
