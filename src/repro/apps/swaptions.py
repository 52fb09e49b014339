"""Swaptions: Monte Carlo swaption pricing under a simplified HJM framework.

The PARSECSs benchmark prices a portfolio of swaptions with Monte Carlo
simulation of the Heath-Jarrow-Morton forward-rate evolution; one task
(``HJM_Swaption_Blocking``) prices one swaption from a ~376-byte parameter
record (forward curve, strike, maturity, tenor, volatility).

Determinism: the Monte Carlo driver uses a fixed seed that is *part of the
parameter record*, so two tasks with bit-identical parameters produce
bit-identical prices — the property ATM relies on (paper Section III-E).

Source of redundancy (paper Section V-D): the native PARSEC input replicates
a small file of distinct swaptions.  We reproduce both flavours the paper
observes: exact duplicates (exploitable by Static ATM, ~7 % reuse) and
near-duplicates whose parameters differ only in the least-significant bits of
the forward curve (exploitable only by Dynamic ATM with a small MSB-first
sampling fraction, raising reuse to ~20 %).

Correctness is measured on the prices vector (Table I).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import BenchmarkApp, BenchmarkInfo, WorkloadScale
from repro.common.rng import generator_for
from repro.session import Session
from repro.runtime.data import In, Out
from repro.runtime.task import Task

__all__ = ["SwaptionsApp"]

#: Number of float64 values in one swaption parameter record
#: (47 doubles = 376 bytes, matching Table I).
SWAPTION_PARAM_DOUBLES = 47

#: Layout of the parameter record.
_IDX_STRIKE = 0
_IDX_MATURITY = 1
_IDX_TENOR = 2
_IDX_VOL = 3
_IDX_TRIALS = 4
_IDX_SEED = 5
_IDX_CURVE_START = 6  # forward curve occupies the rest of the record

_SCALES = {
    WorkloadScale.TINY: dict(swaptions=64, unique=48, trials=400, steps=16),
    WorkloadScale.SMALL: dict(swaptions=512, unique=384, trials=1200, steps=24),
    WorkloadScale.PAPER: dict(swaptions=512, unique=384, trials=20000, steps=55),
}


def price_swaption(params: np.ndarray, result: np.ndarray, steps: int) -> None:
    """Price one payer swaption by Monte Carlo under a one-factor HJM model.

    ``params`` is the flat parameter record described above; ``result``
    receives ``[price, standard_error]``.
    """
    strike = float(params[_IDX_STRIKE])
    maturity = float(params[_IDX_MATURITY])
    tenor = float(params[_IDX_TENOR])
    vol = float(params[_IDX_VOL])
    trials = int(params[_IDX_TRIALS])
    seed = int(params[_IDX_SEED])
    curve = np.asarray(params[_IDX_CURVE_START:], dtype=np.float64)

    dt = maturity / steps
    rng = np.random.default_rng(seed)
    # Evolve the (flat-ish) forward curve with correlated lognormal shocks.
    shocks = rng.standard_normal((trials, steps))
    drift = -0.5 * vol * vol * dt
    log_growth = np.cumsum(drift + vol * np.sqrt(dt) * shocks, axis=1)
    terminal_factor = np.exp(log_growth[:, -1])

    # Swap rate at expiry approximated from the evolved forward curve.
    base_rate = float(np.mean(curve))
    swap_rate = base_rate * terminal_factor
    # Discount factor to expiry along the simulated short-rate path.
    discount = np.exp(-np.mean(curve[: max(1, len(curve) // 2)]) * maturity)
    # Payer swaption payoff: annuity * max(swap_rate - strike, 0).
    annuity = tenor * np.exp(-base_rate * tenor / 2.0)
    payoff = annuity * np.maximum(swap_rate - strike, 0.0) * discount
    price = float(np.mean(payoff))
    stderr = float(np.std(payoff) / np.sqrt(trials))
    result[0] = price
    result[1] = stderr


class SwaptionsApp(BenchmarkApp):
    """HJM Monte Carlo swaption portfolio pricing."""

    info = BenchmarkInfo(
        name="swaptions",
        domain="financial analysis",
        memoized_task_type="HJM_Swaption_Blocking",
        correctness_measured_on="Prices Vector",
        tau_max=0.20,
        l_training=15,
        paper_task_input_bytes=376,
        paper_number_of_tasks=512,
        paper_program_input="Native with 512 swaptions",
    )

    def _setup_workload(self) -> None:
        cfg = _SCALES[self.scale]
        self.n_swaptions = int(cfg["swaptions"])
        self.steps = int(cfg["steps"])
        n_unique = int(cfg["unique"])
        trials = int(cfg["trials"])

        rng = generator_for(self.seed, "swaptions")
        curve_points = SWAPTION_PARAM_DOUBLES - _IDX_CURVE_START
        pool = np.empty((n_unique, SWAPTION_PARAM_DOUBLES), dtype=np.float64)
        pool[:, _IDX_STRIKE] = rng.uniform(0.02, 0.06, n_unique)
        pool[:, _IDX_MATURITY] = rng.integers(1, 6, n_unique).astype(np.float64)
        pool[:, _IDX_TENOR] = rng.integers(2, 11, n_unique).astype(np.float64)
        pool[:, _IDX_VOL] = rng.uniform(0.1, 0.3, n_unique)
        pool[:, _IDX_TRIALS] = float(trials)
        pool[:, _IDX_SEED] = 987_654_321.0  # fixed MC seed: tasks are deterministic
        base_curve = 0.03 + 0.01 * np.linspace(0.0, 1.0, curve_points)
        pool[:, _IDX_CURVE_START:] = base_curve[None, :] * rng.uniform(
            0.9, 1.1, (n_unique, 1)
        )

        # Portfolio: the first ``n_unique`` swaptions are distinct; the
        # remaining ~20 % are copies of pool entries — one third exact
        # duplicates (exploitable by Static ATM, ~7 % of the portfolio) and
        # two thirds near-duplicates whose forward curve is perturbed in its
        # least-significant bits only (invisible to MSB-first sampling, so
        # only Dynamic ATM recovers them, raising reuse to ~20 %).
        self.params = np.empty((self.n_swaptions, SWAPTION_PARAM_DOUBLES), dtype=np.float64)
        for index in range(self.n_swaptions):
            source = pool[index % n_unique].copy()
            if index >= n_unique and (index - n_unique) % 3 != 0:
                jitter = rng.uniform(-1e-12, 1e-12, curve_points)
                source[_IDX_CURVE_START:] += jitter
            self.params[index] = source
        self.prices = np.zeros((self.n_swaptions, 2), dtype=np.float64)

        # The Monte Carlo simulation is extremely compute-intensive relative
        # to its tiny (376-byte) parameter record, so the hash-key overhead is
        # negligible and the Static-ATM gain tracks the exact-duplicate
        # fraction of the portfolio (the paper's 1.07x).
        self.swaption_task_type = self._make_task_type(
            "HJM_Swaption_Blocking",
            memoizable=True,
            tau_max=self.info.tau_max,
            l_training=self.info.l_training,
            cost_model=lambda task: 1.0 + 0.5 * task.input_bytes,
        )

    def build(self, runtime: Session) -> None:
        for index in range(self.n_swaptions):
            params = self.params[index]
            result = self.prices[index]
            runtime.submit(
                self.swaption_task_type,
                price_swaption,
                accesses=[
                    In(params, name=f"swaption[{index}]"),
                    Out(result, name=f"price[{index}]"),
                ],
                args=(params, result, self.steps),
            )
        runtime.wait_all()

    def output(self) -> np.ndarray:
        return self.prices[:, 0].copy()

    def _footprint_arrays(self) -> list[np.ndarray]:
        return [self.params, self.prices]

    def expected_task_count(self) -> int:
        return self.n_swaptions
