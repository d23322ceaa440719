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
    def __init__(self, message, property_index=None):
        super().__init__(message)
        self.property_index = property_index


# constructions

class FacesDontCoverVertices(HadwigerError):
    pass


class GenusOutOfCatalog(HadwigerError):
    def __init__(self, message, required_range=None):
        super().__init__(message)
        self.required_range = required_range


class GZero(HadwigerError):
    pass


class KTooSmall(HadwigerError):
    pass


# minor models and oracles

class BudgetExceeded(HadwigerError):
    pass
