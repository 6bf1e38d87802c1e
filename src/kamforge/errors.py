"""Exception types shared across the package."""


class KamforgeError(Exception):
    """Base class for all package-specific failures."""


class RealityError(KamforgeError):
    """A field that must represent a real function failed the conjugate-symmetry check."""


class SmallDivisorError(KamforgeError):
    """A homological solve met a divisor below the admissible floor.

    Attributes
    ----------
    mode : tuple
        Offending mode (k_1, ..., k_d, l).
    divisor : float
        Magnitude of the offending divisor.
    floor : float
        The floor that was violated.
    """

    def __init__(self, msg, mode=None, divisor=None, floor=None):
        super().__init__(msg)
        self.mode = mode
        self.divisor = divisor
        self.floor = floor


class ContractionError(KamforgeError):
    """A fixed-point iteration (implicit coordinate change) failed to contract."""


class EscapeError(KamforgeError):
    """A trajectory left the configured phase-space bounds."""


class DomainError(KamforgeError):
    """A point left the action domain a representation is valid on."""
