"""Exception types shared across the package."""


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


class MissingArtifact(WavepoolError):
    """A checkpoint file does not exist."""


class DatasetNotFound(WavepoolError):
    """Dataset path does not exist."""


class CorruptDataset(WavepoolError):
    """Dataset bytes do not match the documented layout."""


class UnsupportedFormat(WavepoolError):
    """Image file format not supported."""
