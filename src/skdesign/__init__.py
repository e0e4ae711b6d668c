"""Training-free design-space search for sparse convolution kernel compositions."""

from .kernels import (
    Kernel,
    Kind,
    LayerSpec,
    TensorShape,
    ValidationError,
    depthwise,
    flop_count,
    group_conv,
    param_count,
    pointwise,
    pointwise_group,
    standard,
)
from .infofield import FieldVerdict, InfoField, VerdictKind, classify, field_of, propagate

__version__ = "0.1.0"

__all__ = [
    "Kernel",
    "Kind",
    "LayerSpec",
    "TensorShape",
    "ValidationError",
    "standard",
    "group_conv",
    "depthwise",
    "pointwise",
    "pointwise_group",
    "param_count",
    "flop_count",
    "InfoField",
    "FieldVerdict",
    "VerdictKind",
    "propagate",
    "field_of",
    "classify",
    "__version__",
]
