"""Exception types shared across the package.

Every error is a CssFheError. The protocol-level failures, where a
ciphertext does not decode (syndrome outside the radius, leakage out of the
code space, a refresh that leaves the bounds above t), are DecodeErrors; the
rest are validation problems (bad shapes, parameters, circuits, capacity).
The CLI maps the two to exit codes 3 and 2 by this hierarchy alone.
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


class DecodeError(CssFheError):
    """A ciphertext that does not decode: the base of the protocol-level
    failures."""


class DecodeFailureError(DecodeError):
    """Syndrome outside the correctable radius."""


class LeakageError(DecodeError):
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


class RefreshAuthorityError(DecodeError):
    """The refresh callback failed or left the ciphertext undecryptable."""
