"""Training-free design-space search for sparse convolution kernel compositions."""

from .kernels import Kernel, Kind, LayerSpec, ValidationError, flop_count, param_count
from .infofield import InfoField, VerdictKind, field_of, propagate

__version__ = "0.1.0"

__all__ = [
    "Kernel",
    "Kind",
    "LayerSpec",
    "ValidationError",
    "param_count",
    "flop_count",
    "InfoField",
    "VerdictKind",
    "propagate",
    "field_of",
    "__version__",
]
