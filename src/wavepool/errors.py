"""Exception types shared across the package, and ``read_file``, the one
reader of input files: a path it cannot read raises ``MissingInput``."""


class WavepoolError(Exception):
    """Base class for all package errors."""


class UnsupportedWavelet(WavepoolError):
    """Requested wavelet name or parameter set is not shipped."""


class OddLengthInput(WavepoolError):
    """Transform input has an odd extent along a transformed axis."""


class InputTooShort(WavepoolError):
    """Transform input is shorter than the filter."""


class ShapeMismatch(WavepoolError):
    """Operand shapes are inconsistent."""


class InvalidHyperparameter(WavepoolError):
    """Hyperparameter outside its valid range."""


class MissingGradient(WavepoolError):
    """Optimizer step requested before gradients were materialized."""


class InvalidConfig(WavepoolError):
    """Configuration is malformed or infeasible."""


class MissingInput(WavepoolError):
    """An input path is missing, a directory, or not readable."""


class CorruptDataset(WavepoolError):
    """Dataset bytes do not match the documented layout."""


class UnsupportedFormat(WavepoolError):
    """Image file format not supported."""


def read_file(path) -> bytes:
    """The bytes of the file at ``path``, or MissingInput naming it."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise MissingInput(f"cannot read {path}: {exc.strerror}") from None
