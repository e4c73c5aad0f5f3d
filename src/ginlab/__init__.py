"""Exact staircase computations for uniform fat-point ideals in the plane.

The package computes Hilbert functions of ideals of r general (or almost
general) fat points, rebuilds the reverse-lex generic initial ideal
staircase from them, and tracks the limiting shape of the scaled staircases.
Everything runs in exact integer and rational arithmetic.

``import ginlab`` loads no submodule: each exported name imports the module
that defines it on its first read and is bound here from then on.
"""

__version__ = "0.1.0"

# each exported name and the module that defines it, in the README's order
_EXPORTS = {
    "PointConfig": "lattice", "DivisorClass": "lattice", "exceptional_classes": "lattice",
    "hilbert_fn": "hilbert", "gin_staircase": "staircase", "MonomialStaircase": "staircase",
    "colength": "staircase", "shape_report": "shape", "ShapeReport": "shape",
    "Rational": "lattice", "SquareRootIntercept": "shape", "run_verification": "verify",
    "VerifyReport": "verify", "ComputationGuardError": "errors", "UnsupportedConfigError": "errors",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """An exported name, on its first read: import its module, bind it here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the builtin __import__: importlib is not loaded without site
    value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
