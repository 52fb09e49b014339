"""Task bodies of the benchmark workloads.

Every body is a module-level function: the process and network backends and
the gateway ship task functions by reference, so workers resolve them as
``bench.kernels.<name>`` (children run with the repository root on
``PYTHONPATH``).  Programs look the bodies up as attributes of this module at
submission time, which is what lets the traced pass wrap them.

All bodies write through ``out=`` / in-place ufuncs, so a body costs the same
arithmetic on every backend and its result is bit-identical everywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = ["noop", "load", "step", "step2", "stencil3", "relax"]


def noop(scratch):
    """Pool warm-up body: touches nothing."""


def load(dst, pattern, offset):
    """(Re)fill a state block: ``dst = pattern + offset`` (an ``Out`` task)."""
    np.add(pattern, offset, out=dst)


def step(src, out):
    """Memoizable one-input block kernel: ``out = sin(sin(src) + src)``."""
    np.sin(src, out=out)
    out += src
    np.sin(out, out=out)


def step2(coef, src, out):
    """Memoizable two-input kernel: ``out = sin(coef * sin(src) + src)``."""
    np.sin(src, out=out)
    out *= coef
    out += src
    np.sin(out, out=out)


def stencil3(left, mid, right, dst):
    """Three-point average over one row (a few dozen bytes: all overhead)."""
    np.add(left, mid, out=dst)
    dst += right
    dst *= 1.0 / 3.0


def relax(src, coef, dst):
    """Bounded relaxation step: ``dst = (src + sin(src + coef)) / 2``."""
    np.add(src, coef, out=dst)
    np.sin(dst, out=dst)
    dst += src
    dst *= 0.5
