"""Exact staircase computations for uniform fat-point ideals in the plane.

The package computes Hilbert functions of ideals of r general (or almost
general) fat points, rebuilds the reverse-lex generic initial ideal
staircase from them, and tracks the limiting shape of the scaled staircases.
Everything runs in exact integer and rational arithmetic.
"""

from .errors import ComputationGuardError, UnsupportedConfigError
from .lattice import (COLLINEAR, GENERAL, SHGH, DivisorClass, EffectivityResult,
                      PointConfig, canonical_class, exceptional_classes, h0,
                      intersect, is_nef, reduce_to_nef, riemann_roch_h0)
from .hilbert import alpha, alpha_shgh, hilbert_fn, nef_threshold, shgh_hilbert
from .staircase import MonomialStaircase, colength, gin_staircase, shgh_gin_closed_form, xy_count
from .shape import (Rational, ShapeReport, SquareRootIntercept, check_convergence,
                    collinear_shape_check, shape_report, theoretical_shape)
from .verify import VerifyReport, brute_force_exceptional_classes, run_verification

__version__ = "0.1.0"

__all__ = [
    "COLLINEAR", "GENERAL", "SHGH",
    "ComputationGuardError", "DivisorClass", "EffectivityResult", "MonomialStaircase",
    "PointConfig", "Rational", "ShapeReport", "SquareRootIntercept",
    "UnsupportedConfigError", "VerifyReport",
    "alpha", "alpha_shgh", "brute_force_exceptional_classes", "canonical_class",
    "check_convergence", "colength", "collinear_shape_check",
    "exceptional_classes", "gin_staircase", "h0", "hilbert_fn", "intersect", "is_nef",
    "nef_threshold", "reduce_to_nef", "riemann_roch_h0", "run_verification",
    "shape_report",
    "shgh_gin_closed_form", "shgh_hilbert", "theoretical_shape", "xy_count",
]
