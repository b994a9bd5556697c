"""Exact computation of supergrassmannian volumes, Q-grassmannian
localization sums, root-system defects, restricted-pair Casimir
positivity, and certified splitting-subgroup chains.

All core results are exact: rationals (``fractions.Fraction``) plus the
formal symbols 2pi and the classical volume atoms V(a, b).

The package is lazy (PEP 562): ``import supervol`` loads no submodule,
and each public name below imports its module on first access, so a CLI
verb pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exactnum": ("alpha_diagonal", "alpha_pfaffian", "inertia", "pfaffian",
                 "realified_diagonal_action"),
    "grassvol": ("GrassSpec", "SuperDim", "VolumeExpr", "check_flag_identity",
                 "dims", "duality_sign", "sdim", "volume", "volume_via_fibration"),
    "qlocal": ("LocalizationReport", "alpha_subset", "c_bruteforce", "c_closed",
               "gaussian_binomial", "gl_localization", "localization_sum",
               "localization_sums", "seeded_param_vectors"),
    "rootsys": ("Root", "RootSystem", "build_root_system", "defect",
                "defect_subgroup_roots", "isotropic_roots", "witt_index"),
    "splitting": ("GL", "Q", "SL", "ChainStep", "GroupDesc", "SubgroupChain",
                  "is_splitting_levi_gl", "is_splitting_levi_q", "minimal_chain",
                  "sdim_necessity"),
    "sympair": ("RestrictedPair", "builtin_pairs", "casimir_eigenvalue",
                "d21a_in_a_star", "d21a_weight", "f31_pair", "g12_pair",
                "osp_pair", "positivity_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Read through to the module on every access, so a rebound module
    # attribute (a test's monkeypatch, the benchmark's tracer) is seen.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
