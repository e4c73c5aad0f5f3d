"""Exact staircase computations for uniform fat-point ideals in the plane.

The package computes Hilbert functions of ideals of r general (or almost
general) fat points, rebuilds the reverse-lex generic initial ideal
staircase from them, and tracks the limiting shape of the scaled staircases.
Everything runs in exact integer and rational arithmetic.
"""

from .errors import ComputationGuardError, UnsupportedConfigError
from .lattice import DivisorClass, PointConfig, Rational, exceptional_classes
from .hilbert import hilbert_fn
from .staircase import MonomialStaircase, colength, gin_staircase
from .shape import ShapeReport, SquareRootIntercept, shape_report
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "PointConfig", "DivisorClass", "exceptional_classes", "hilbert_fn",
    "gin_staircase", "MonomialStaircase", "colength",
    "shape_report", "ShapeReport", "Rational", "SquareRootIntercept",
    "run_verification", "VerifyReport", "ComputationGuardError", "UnsupportedConfigError",
]
