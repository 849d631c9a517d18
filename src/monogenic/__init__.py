"""Exact computational engine for the twistor transform of 2-Dirac monogenics."""

from .laurent import (
    Alphabet,
    AlphabetMismatch,
    InternalCheckError,
    LaurentPoly,
    PreconditionError,
    exact_nullspace,
    matrix_rank,
)
from .charts import (
    BASE,
    CORRESPONDENCE,
    TWISTOR,
    correspondence_substitution,
)
from .cochain import (
    Certificate,
    CochainSection,
    POSITIVE_SIMPLE_ROOTS,
    Weight,
    cartan_action,
    coordinate_action,
    g0_action,
    raising_chain,
    triviality_certificate,
    weight_of_monomial,
)
from .transform import (
    SpinorField,
    class_is_zero,
    penrose_transform,
    penrose_transforms,
    weighted_degree,
)
from .dirac import (
    DiracOperator,
    apply_2dirac,
    build_dirac,
    clifford_matrix,
    degree_exponents,
    graded_kernel_dim,
    is_monogenic,
)
from .hwv import hwv_complete, hwv_test
from .repn import (
    IrrepLabel,
    ModuleDescriptor,
    decompose_Mk,
    dim_gl2,
    dim_sl4,
    label_of_hwv,
    module_descriptor,
    multiplicity_free_check,
)
from .calibration import (
    CalibrationConfig,
    build_calibrated,
    find_calibration,
    read_config,
    reference_monogenic_spinors,
    write_config,
)
from .expr import Context, ParseError, parse_expr, parse_section, parse_spinor

__version__ = "0.1.0"
