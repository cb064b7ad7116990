"""Exact combinatorics of rectangular-tableau tensor products and
rigged configurations, with their shared graded counting polynomials.

The bijection's steps (Working, insert_letter, extract_letter and the
column and box splits and merges) are imported from kostka.bijection.
"""

from .bijection import path_to_rc, rc_to_path
from .crystal import CrystalSpec, Path, RectTableau, enumerate_crystal
from .paths import enumerate_all_paths, enumerate_paths, path_polynomial
from .plactic import local_energy, product, rmatrix, tail_energy
from .qpoly import QPolynomial, qbinom
from .rc import (RiggedConfiguration, LowerBoundTableau, bound_tableaux,
                 count_bound_tableaux, enumerate_rcs, fermionic_polynomial,
                 rc_polynomial)
from . import rccrystal

__all__ = [
    'CrystalSpec', 'LowerBoundTableau', 'Path', 'QPolynomial',
    'RectTableau', 'RiggedConfiguration', 'bound_tableaux',
    'count_bound_tableaux', 'enumerate_all_paths', 'enumerate_crystal',
    'enumerate_paths', 'enumerate_rcs', 'fermionic_polynomial',
    'local_energy', 'path_polynomial', 'path_to_rc', 'product', 'qbinom',
    'rc_polynomial', 'rc_to_path', 'rccrystal', 'rmatrix', 'tail_energy',
]
