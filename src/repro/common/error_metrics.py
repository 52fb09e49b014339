"""Error metrics used by ATM.

The paper uses two per-output distance metrics and one derived program-level
correctness figure:

* **Chebyshev relative error** (Eq. 1) — the per-task metric used by Dynamic
  ATM during the training phase.  It is a max-reduction, so it does not suffer
  from the floating-point accumulation problems of the Euclidean metric and is
  well correlated with final program correctness.
* **Euclidean relative error** (Eq. 3) — the program-level metric used to
  report correctness of the final output vectors/matrices.
* **LU residual** (Eq. 4) — the application-specific metric for the sparse LU
  benchmark, ``|A - L*U|_2 / |A|_2``.

Correctness, as plotted in Figures 4 and 5, is ``100 * (1 - Er)`` clamped to
``[0, 100]``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "euclidean_relative_error",
    "correctness_percent",
    "combined_chebyshev_error",
]


def _flatten(x: np.ndarray | Sequence[float]) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    return arr.reshape(-1)


def chebyshev_relative_error(
    correct: np.ndarray | Sequence[float],
    approximate: np.ndarray | Sequence[float],
) -> float:
    """Chebyshev relative error ``tau`` between two outputs (paper Eq. 1).

    ``tau = max_i |correct_i - approx_i| / max_i |correct_i|``

    A zero reference with a non-zero approximation yields ``inf``; two outputs
    that are both identically zero yield ``0.0``.
    """
    xc = _flatten(correct)
    xa = _flatten(approximate)
    if xc.shape != xa.shape:
        raise ValueError(
            f"shape mismatch: correct {xc.shape} vs approximate {xa.shape}"
        )
    if xc.size == 0:
        return 0.0
    num = float(np.max(np.abs(xc - xa)))
    den = float(np.max(np.abs(xc)))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def combined_chebyshev_error(
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
) -> float:
    """Chebyshev error over several output regions of a single task.

    A task may declare several outputs; the paper's per-task error considers
    all output elements together, which is equivalent to taking the maximum
    numerator over all regions divided by the maximum reference magnitude over
    all regions.
    """
    num = 0.0
    den = 0.0
    seen = False
    for correct, approximate in pairs:
        xc = _flatten(correct)
        xa = _flatten(approximate)
        if xc.shape != xa.shape:
            raise ValueError("shape mismatch in combined Chebyshev error")
        if xc.size == 0:
            continue
        seen = True
        num = max(num, float(np.max(np.abs(xc - xa))))
        den = max(den, float(np.max(np.abs(xc))))
    if not seen:
        return 0.0
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def euclidean_relative_error(
    correct: np.ndarray | Sequence[float],
    approximate: np.ndarray | Sequence[float],
) -> float:
    """Euclidean relative error ``Er`` (paper Eq. 3).

    ``Er = sum_i (correct_i - approx_i)^2 / sum_i correct_i^2``
    """
    xc = _flatten(correct)
    xa = _flatten(approximate)
    if xc.shape != xa.shape:
        raise ValueError(
            f"shape mismatch: correct {xc.shape} vs approximate {xa.shape}"
        )
    if xc.size == 0:
        return 0.0
    num = float(np.sum((xc - xa) ** 2))
    den = float(np.sum(xc ** 2))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def correctness_percent(relative_error: float) -> float:
    """Convert a relative error into the correctness percentage of Figs. 4-5.

    ``correctness = 100 * (1 - Er)`` clamped to ``[0, 100]``.  ``inf`` or NaN
    errors map to 0 % correctness.
    """
    if not np.isfinite(relative_error):
        return 0.0
    return float(np.clip(100.0 * (1.0 - relative_error), 0.0, 100.0))
