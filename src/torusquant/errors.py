"""Exception types shared across the package.

The class name doubles as the machine-readable error code emitted by the
command line front end.
"""


class TorusQuantError(ValueError):
    """Base class for all structured errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DimensionMismatch(TorusQuantError):
    pass


class SingularMatrix(TorusQuantError):
    pass


class NotSymmetric(TorusQuantError):
    pass


class NotUnimodular(TorusQuantError):
    pass


class OddModulus(TorusQuantError):
    pass


class SpaceMismatch(TorusQuantError):
    pass


class NotPrimitive(TorusQuantError):
    pass


class NotIsotropic(TorusQuantError):
    pass


class NotTransverse(TorusQuantError):
    pass


class TransverseInput(TorusQuantError):
    pass


class BasesNotPairAdapted(TorusQuantError):
    pass


class BasisMismatch(TorusQuantError):
    pass


class BaseMismatch(TorusQuantError):
    pass


class FrameMismatch(TorusQuantError):
    pass


class TooLarge(TorusQuantError):
    pass
