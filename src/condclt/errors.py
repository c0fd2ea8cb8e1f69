"""Exception hierarchy shared by all condclt modules."""


class CondCltError(Exception):
    """Base class for all condclt errors."""


class DimensionMismatch(CondCltError):
    pass


class SingularYBlock(CondCltError):
    pass


class SingularTransform(CondCltError):
    pass


class InvalidCovariance(CondCltError):
    pass


class InvalidLambda(CondCltError):
    pass


class InvalidA(CondCltError):
    pass


class TruncationError(CondCltError):
    pass


class OutOfDeskRange(CondCltError):
    pass


class NotComparable(CondCltError):
    pass


class TooManyEdges(CondCltError):
    pass


class InsufficientReplicates(CondCltError):
    pass


class DegenerateVariance(CondCltError):
    pass


class ArityMismatch(CondCltError):
    pass


class NoDifferenceFound(CondCltError):
    pass
