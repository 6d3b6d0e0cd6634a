"""Quaternary linear codes with Reed-Muller parameters.

Z4 vectors under the Lee metric map isometrically to binary vectors under
the Gray map.  This package builds the LRM(r,m) family of quaternary
linear codes by Plotkin doubling, whose Gray images are binary (not
necessarily linear) codes with the parameters of Reed-Muller RM(r,m), and
verifies the claimed parameters exactly, by enumerating the code or its
dual, whichever is smaller.
"""

from .analysis import (
    NonequivalenceRecord,
    VerificationReport,
    WeightDistribution,
    binary_code_params,
    gray_image_params,
    image_is_linear,
    image_is_linear_bruteforce,
    lee_weight_distribution,
    min_lee_weight,
    min_lee_weight_witness,
    nonequivalence_report,
    search_nonlinear_base,
    verify_theorem1,
)
from .codes import (
    CodeParams,
    RMOrder,
    Z4Code,
    lrm,
    plotkin,
    qrm_log2_size,
    rm_binary,
    shipped_nonlinear_base,
    theorem1_params,
)
from .errors import (
    CapacityError,
    CodeFileError,
    DimensionError,
    OverrideError,
    ZeroCodeError,
)
from .fileformat import parse_code, render_code
from .linalg import (
    DEFAULT_BUDGET,
    GeneratorMatrix,
    StandardForm,
    enumerate_codewords,
    log2_size,
    membership,
    standard_form,
)
from .z4core import (
    BitWord,
    Z4Word,
    add,
    alpha,
    beta,
    gamma,
    gray,
    gray_inverse,
    hamming_distance,
    lee_distance,
    lee_weight,
    negate,
)

__version__ = "0.1.0"

__all__ = [
    "BitWord",
    "CapacityError",
    "CodeFileError",
    "CodeParams",
    "DEFAULT_BUDGET",
    "DimensionError",
    "GeneratorMatrix",
    "NonequivalenceRecord",
    "OverrideError",
    "RMOrder",
    "StandardForm",
    "VerificationReport",
    "WeightDistribution",
    "Z4Code",
    "Z4Word",
    "ZeroCodeError",
    "add",
    "alpha",
    "beta",
    "binary_code_params",
    "enumerate_codewords",
    "gamma",
    "gray",
    "gray_image_params",
    "gray_inverse",
    "hamming_distance",
    "image_is_linear",
    "image_is_linear_bruteforce",
    "lee_distance",
    "lee_weight",
    "lee_weight_distribution",
    "log2_size",
    "lrm",
    "membership",
    "min_lee_weight",
    "min_lee_weight_witness",
    "negate",
    "nonequivalence_report",
    "parse_code",
    "plotkin",
    "qrm_log2_size",
    "render_code",
    "rm_binary",
    "search_nonlinear_base",
    "shipped_nonlinear_base",
    "standard_form",
    "theorem1_params",
    "verify_theorem1",
]
