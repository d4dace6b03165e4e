"""Exception types shared across the package."""


class HyperforgeError(Exception):
    pass


class InvalidParams(HyperforgeError):
    pass


# malformed geometry data is a usage error, like any invalid parameter
class SelfIncidence(InvalidParams):
    pass


class SameTypeIncidence(InvalidParams):
    pass


class UnknownElement(InvalidParams):
    pass


class NotAFlag(HyperforgeError):
    pass


class NotAGeometry(HyperforgeError):
    pass


class SizeLimitExceeded(HyperforgeError):
    pass


class NotAnAction(HyperforgeError):
    pass


class Overflow(HyperforgeError):
    def __init__(self, max_cosets):
        super().__init__("coset limit %d exceeded" % max_cosets)
        self.max_cosets = max_cosets


class IncompleteTable(HyperforgeError):
    pass


class Disconnected(HyperforgeError):
    pass


class NotAClass(HyperforgeError):
    pass


class PreconditionFailed(HyperforgeError):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class NotPConstructed(HyperforgeError):
    pass


class UnsupportedCase(HyperforgeError):
    pass


class PropertyViolation(HyperforgeError):
    pass


class MismatchReport(HyperforgeError):
    def __init__(self, diffs, report=None):
        super().__init__("; ".join(str(d) for d in diffs))
        self.diffs = list(diffs)
        self.report = report
