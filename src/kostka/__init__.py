"""Exact combinatorics of rectangular-tableau tensor products and
rigged configurations, with their shared graded counting polynomials.
"""

from .bijection import (Working, extract_letter, insert_letter, merge_box_rc,
                        merge_column_rc, path_to_rc, peel_box_rc, peel_column_rc,
                        rc_to_path)
from .crystal import CrystalSpec, Path, RectTableau, enumerate_crystal
from .paths import enumerate_all_paths, enumerate_paths, path_polynomial
from .plactic import local_energy, product, rmatrix, tail_energy
from .qpoly import QPolynomial, qbinom
from .rc import (RiggedConfiguration, LowerBoundTableau, bound_tableaux,
                 count_bound_tableaux, enumerate_rcs, fermionic_polynomial,
                 forced_sizes, rc_polynomial)
from . import rccrystal

__all__ = [
    'CrystalSpec', 'LowerBoundTableau', 'Path', 'QPolynomial',
    'RectTableau', 'RiggedConfiguration', 'Working', 'bound_tableaux',
    'count_bound_tableaux', 'enumerate_all_paths', 'enumerate_crystal',
    'enumerate_paths', 'enumerate_rcs', 'extract_letter',
    'fermionic_polynomial', 'forced_sizes', 'insert_letter',
    'local_energy', 'merge_box_rc', 'merge_column_rc', 'path_polynomial',
    'path_to_rc', 'peel_box_rc', 'peel_column_rc', 'product', 'qbinom',
    'rc_polynomial', 'rc_to_path', 'rccrystal', 'rmatrix', 'tail_energy',
]
