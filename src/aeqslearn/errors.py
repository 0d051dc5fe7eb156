"""Exception types raised across the library."""


class AeqsError(Exception):
    """Base class for all library-specific errors."""


class DimMismatch(AeqsError):
    pass


class NonHermitian(AeqsError):
    pass


class NonUnitary(AeqsError):
    pass


class IndexOutOfRange(AeqsError):
    pass


class WireOutOfRange(AeqsError):
    pass


class MalformedEncoding(AeqsError):
    pass


class BadSymbol(AeqsError):
    pass


class LengthMismatch(AeqsError):
    pass


class DegenerateGroundState(AeqsError):
    pass


class BadTime(AeqsError):
    pass


class ZeroGap(AeqsError):
    pass


class BadResolution(AeqsError):
    pass


class PoolTooLarge(AeqsError):
    pass


class MalformedRelationFile(AeqsError):
    pass


class OddLengthForEq(AeqsError):
    pass
