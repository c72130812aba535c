"""vertexforge: exact-arithmetic one-leg DT/PT vertex series with descendents,
computed by torus localization and by iterated-residue formulas, with a
harness that certifies their agreement as exact rational identities.
"""

from .laurent import (
    LaurentPoly,
    NonPolynomialCharacter,
    exp_pleth,
    pochhammer,
)
from .partitions import (
    LeggedPlanePartition,
    Partition,
    RppConfig,
    SliceSeq,
    enum_legged_pp,
    enum_partitions,
    enum_rpp,
    first_slice,
    macmahon_coeffs,
    pp_from_slices,
    slices_of,
)
from .sampling import ParamSample, sample_random, seeded_samples
from .series import DescSeries, QSeries

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "NonPolynomialCharacter",
    "exp_pleth",
    "pochhammer",
    "LeggedPlanePartition",
    "Partition",
    "RppConfig",
    "SliceSeq",
    "enum_legged_pp",
    "enum_partitions",
    "enum_rpp",
    "first_slice",
    "macmahon_coeffs",
    "pp_from_slices",
    "slices_of",
    "ParamSample",
    "sample_random",
    "seeded_samples",
    "DescSeries",
    "QSeries",
    "__version__",
]
