"""Exception hierarchy shared by all modules."""


class VortexwError(Exception):
    """Base class for all library errors."""


class EmptyConfiguration(VortexwError):
    pass


class VortexTooCloseToBoundary(VortexwError):
    pass


class VorticesCollide(VortexwError):
    pass


class DegenerateDerivative(VortexwError):
    pass


class BoundaryNotSimple(VortexwError):
    pass


class DegreeMismatch(VortexwError):
    pass


class InvalidRadius(VortexwError):
    pass


class NewtonDiverged(VortexwError):
    pass


class LeftAdmissibleRegion(VortexwError):
    pass


class NoCriticalPointFound(VortexwError):
    pass


class QuadratureNotConverged(VortexwError):
    pass
