"""Exact computation of supergrassmannian volumes, Q-grassmannian
localization sums, root-system defects, restricted-pair Casimir
positivity, and certified splitting-subgroup chains.

All core results are exact: rationals (``fractions.Fraction``) plus the
formal symbols 2pi and the classical volume atoms V(a, b).

``import supervol`` loads no submodule. Each name is imported from the
module that defines it (``from supervol.grassvol import volume``), so a
CLI verb pays only for the modules it uses: the exact-value helpers live
in the leaf module ``exactvalue``, and the linear algebra of
``exactnum`` loads only for ``defect``, ``casimir`` and ``verify``.  A
CLI query builds the subparser of its own verb alone.
"""

__version__ = "0.1.0"
