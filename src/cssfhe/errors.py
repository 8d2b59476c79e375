"""Exception types shared across the package.

Validation problems (bad shapes, bad parameters, capacity) and protocol-level
failures (decode failure, leakage) are kept distinct so callers can map them
to different exit codes.
"""


class CssFheError(Exception):
    """Base class for all package errors."""


class ShapeError(CssFheError):
    """Dimension mismatch between matrices, vectors or states."""


class ParameterError(CssFheError):
    """Bad scheme parameter (unknown base pair, c out of range, ...)."""


class DegenerateCodeError(CssFheError):
    """Code construction from a zero or empty generator."""


class CapacityError(CssFheError):
    """Brute-force or simulator size bound exceeded."""


class InvalidPairError(CssFheError):
    """(C1, C2) pair unsuitable for a one-logical-qubit CSS construction."""


class DecodeFailureError(CssFheError):
    """Syndrome outside the correctable radius."""


class LeakageError(CssFheError):
    """State has weight outside the expected code space (wrong key or
    uncorrected errors)."""


class IsometryError(CssFheError):
    """Columns of a claimed isometry are not orthonormal."""


class CircuitParseError(CssFheError):
    """Bad circuit text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownGateError(CircuitParseError):
    """Gate name outside the allowed logical set."""


class WireError(CssFheError):
    """Wire index out of range or repeated."""


class AncillaExhaustedError(CssFheError):
    """More T gates than prepared magic ancillas."""


class WeightTooLargeError(CssFheError):
    """Requested encryption error weight exceeds the correction radius."""


class RefreshAuthorityError(CssFheError):
    """The refresh callback failed or left the ciphertext undecryptable."""
