"""Synthesis and analysis toolkit for anisotropic stable random sheets.

Builds harmonizable stable random sheets with per-axis Hurst regularity on
rectangular grids through a truncated random wavelet series driven by a
shot-noise (LePage) expansion, and provides the estimators used to confront
simulated fields with the distributional, regularity, local-time, and
fractal-dimension predictions.
"""

import importlib

from . import fieldio
from . import fractional_kernel
from . import geometry
from . import lepage
from . import meyer_wavelet
from . import synthesis
from .fieldio import read_field, write_field
from .geometry import (
    beta_tau,
    box_count_dimension,
    dim_inverse_image_formula,
    estimate_stable_scale,
    holder_axis_exponent,
    level_set,
    localtime_holder_report,
    localtime_scaling_check,
    occupation_density,
)
from .synthesis import FieldGrid, TruncationDomain, grid_axes, synthesize

__version__ = synthesis.VERSION


def __getattr__(name: str):
    # cli and acceptance load on first use, so that `python -m stablesheet.cli`
    # does not find its own module already imported by the package
    if name in ("acceptance", "cli"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FieldGrid",
    "TruncationDomain",
    "acceptance",
    "beta_tau",
    "box_count_dimension",
    "cli",
    "dim_inverse_image_formula",
    "estimate_stable_scale",
    "fieldio",
    "fractional_kernel",
    "geometry",
    "grid_axes",
    "holder_axis_exponent",
    "lepage",
    "level_set",
    "localtime_holder_report",
    "localtime_scaling_check",
    "meyer_wavelet",
    "occupation_density",
    "read_field",
    "synthesize",
    "write_field",
    "__version__",
]
