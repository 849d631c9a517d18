"""Exact computational engine for the twistor transform of 2-Dirac monogenics."""

from .laurent import AlphabetMismatch, InternalCheckError, LaurentPoly, PreconditionError
from .cochain import CochainSection
from .transform import SpinorField, penrose_transform
from .dirac import DiracOperator, build_dirac, graded_kernel_dim, is_monogenic
from .hwv import hwv_complete, hwv_test
from .repn import IrrepLabel, label_of_hwv
from .expr import ParseError
from . import calibration  # noqa: F401  (perfbench/tracing.py wraps only the modules loaded here)

__version__ = "0.1.0"
