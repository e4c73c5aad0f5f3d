"""The benchmark's reference program: a fixed amount of the kind of work a
short ginlab command does, independent of the checkout.

It starts an interpreter, imports the standard-library modules ginlab
imports, and does a little integer, Fraction, dict and JSON work.  run.py
spawns it before every timed command and scales each time by how long the
nearby spawns of this program took, which cancels most of the drift in
speed of a shared machine.
"""

import argparse  # noqa: F401
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import functools  # noqa: F401
import itertools  # noqa: F401
import json
import math
import typing  # noqa: F401
from fractions import Fraction

counts: dict[tuple[int, int], int] = {}
for i in range(1, 6000):
    key = (i % 997, i % 13)
    counts[key] = counts.get(key, 0) + math.isqrt(i * 7919)
total = sum((Fraction(i, 7) for i in range(1, 600)), Fraction(0))
json.dumps(sorted(counts.items()))
