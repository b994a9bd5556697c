"""Exact computation of supergrassmannian volumes, Q-grassmannian
localization sums, root-system defects, restricted-pair Casimir
positivity, and certified splitting-subgroup chains.

All core results are exact: rationals (``fractions.Fraction``) plus the
formal symbols 2pi and the classical volume atoms V(a, b).
"""

from .exactnum import (
    Rational,
    alpha_diagonal,
    alpha_pfaffian,
    inertia,
    pfaffian,
    realified_diagonal_action,
    realify,
)
from .grassvol import (
    GrassSpec,
    SuperDim,
    VolumeExpr,
    check_flag_identity,
    check_complement_duality,
    dims,
    duality_sign,
    sdim,
    volume,
    volume_via_fibration,
)
from .qlocal import (
    LocalizationReport,
    alpha_subset,
    c_bruteforce,
    c_closed,
    check_recursions,
    gl_localization,
    seeded_param_vectors,
)
from .rootsys import (
    Root,
    RootSystem,
    build_root_system,
    defect,
    defect_subgroup_roots,
    inner,
    isotropic_roots,
    witt_index,
)
from .splitting import (
    GL,
    Q,
    SL,
    ChainStep,
    GroupDesc,
    SubgroupChain,
    is_splitting_levi_gl,
    is_splitting_levi_q,
    minimal_chain,
    sdim_necessity,
)
from .sympair import (
    RestrictedPair,
    builtin_pairs,
    casimir_eigenvalue,
    d21a_in_a_star,
    d21a_weight,
    f31_pair,
    g12_pair,
    osp_pair,
    positivity_check,
    rho_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "GL",
    "ChainStep",
    "GrassSpec",
    "GroupDesc",
    "LocalizationReport",
    "Q",
    "Rational",
    "RestrictedPair",
    "Root",
    "RootSystem",
    "SL",
    "SubgroupChain",
    "SuperDim",
    "VolumeExpr",
    "alpha_diagonal",
    "alpha_pfaffian",
    "alpha_subset",
    "build_root_system",
    "builtin_pairs",
    "c_bruteforce",
    "c_closed",
    "casimir_eigenvalue",
    "check_flag_identity",
    "check_complement_duality",
    "check_recursions",
    "d21a_in_a_star",
    "d21a_weight",
    "defect",
    "defect_subgroup_roots",
    "dims",
    "duality_sign",
    "f31_pair",
    "g12_pair",
    "gl_localization",
    "inertia",
    "inner",
    "is_splitting_levi_gl",
    "is_splitting_levi_q",
    "isotropic_roots",
    "minimal_chain",
    "osp_pair",
    "pfaffian",
    "positivity_check",
    "realified_diagonal_action",
    "realify",
    "rho_coefficients",
    "sdim",
    "sdim_necessity",
    "seeded_param_vectors",
    "volume",
    "volume_via_fibration",
    "witt_index",
]
