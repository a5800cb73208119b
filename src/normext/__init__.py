"""Exact construction and certification of normal/central extensions of
3-dimensional superpotential algebras.

The public surface mirrors the module layout:

* :mod:`normext.scalars` -- cyclotomic field elements, multiplicative units,
  parameter assignments.
* :mod:`normext.freealg` -- words, tensor-algebra elements, stripping
  operators; :mod:`normext.dsl` parses and prints them.
* :mod:`normext.superpotential` -- twist recognition, coefficient matrix,
  recovery of the potential from relations, eigenvalue extraction.
* :mod:`normext.tuples` -- the multiplicative condition systems and their
  exact solver.
* :mod:`normext.quotient` / :mod:`normext.rewriting` -- the two independent
  degree-truncated engines for graded quotient computations.
* :mod:`normext.certify` -- extension construction and the regularity
  certificate (Hilbert identity, normality, resolution, Nakayama map,
  homological determinant).
* :mod:`normext.family` -- projective families, Zhang twists, basis
  adaptation.
* :mod:`normext.cli` -- the ``normext`` command.
"""

from .certify import build_extension, full_certificate
from .dsl import parse_algebra, parse_algebra_file, parse_poly, print_poly
from .freealg import Context, FreeElement
from .quotient import Presentation, hilbert_table
from .scalars import Assignment, Scalar, UnitScalar
from .superpotential import (
    DiagonalMap,
    Superpotential,
    coefficient_matrix,
    cyclic_derivatives,
    eigen_scale,
    superpotential_from_relations,
)
from .tuples import goodness_system, is_good, solve_units

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Context",
    "DiagonalMap",
    "FreeElement",
    "Presentation",
    "Scalar",
    "Superpotential",
    "UnitScalar",
    "build_extension",
    "coefficient_matrix",
    "cyclic_derivatives",
    "eigen_scale",
    "full_certificate",
    "goodness_system",
    "hilbert_table",
    "is_good",
    "parse_algebra",
    "parse_algebra_file",
    "parse_poly",
    "print_poly",
    "solve_units",
    "superpotential_from_relations",
]
