"""Blackscholes: analytic European option pricing (financial analysis).

The PARSECSs benchmark prices a portfolio of European options with the
closed-form Black-Scholes formula.  The portfolio is split into blocks; one
task (``bs_thread``) prices one block; the program repeats the pricing pass
several times (the paper notes that the later iterations are fully redundant
and that even a single iteration shows ~50 % reuse because the native input
replicates a small set of distinct options many times).

Sources of redundancy reproduced here:

* the option portfolio is generated by tiling a small pool of distinct
  blocks (like the PARSEC native input, which replicates a 1 000-option file
  thousands of times);
* the pricing pass runs ``iterations`` times over the same inputs.

Correctness is measured on the final prices vector (Table I).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import BenchmarkApp, BenchmarkInfo, WorkloadScale
from repro.common.rng import generator_for
from repro.session import Session
from repro.runtime.data import In, Out
from repro.runtime.task import Task

__all__ = ["BlackscholesApp"]

#: Abramowitz & Stegun polynomial approximation constants used by the
#: original PARSEC kernel's cumulative normal distribution function.
_A1 = 0.319381530
_A2 = -0.356563782
_A3 = 1.781477937
_A4 = -1.821255978
_A5 = 1.330274429
_INV_SQRT_2PI = 0.3989422804014327


def cndf(x: np.ndarray) -> np.ndarray:
    """Cumulative normal distribution function (PARSEC polynomial form)."""
    x = np.asarray(x, dtype=np.float64)
    sign = x < 0.0
    ax = np.abs(x)
    k = 1.0 / (1.0 + 0.2316419 * ax)
    poly = k * (_A1 + k * (_A2 + k * (_A3 + k * (_A4 + k * _A5))))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * ax * ax)
    cdf = 1.0 - pdf * poly
    return np.where(sign, 1.0 - cdf, cdf)


def black_scholes_price(params: np.ndarray) -> np.ndarray:
    """Price a block of European options.

    ``params`` has shape ``(n_options, 6)`` with columns
    ``(spot, strike, rate, volatility, time, otype)`` where ``otype`` is 0 for
    a call and 1 for a put.  Returns the option prices as ``float32``.
    """
    p = np.asarray(params, dtype=np.float64)
    spot, strike, rate, vol, time, otype = (p[:, i] for i in range(6))
    sqrt_t = np.sqrt(time)
    d1 = (np.log(spot / strike) + (rate + 0.5 * vol * vol) * time) / (vol * sqrt_t)
    d2 = d1 - vol * sqrt_t
    nd1 = cndf(d1)
    nd2 = cndf(d2)
    discount = strike * np.exp(-rate * time)
    call = spot * nd1 - discount * nd2
    put = discount * (1.0 - nd2) - spot * (1.0 - nd1)
    return np.where(otype > 0.5, put, call).astype(np.float32)


_SCALES = {
    WorkloadScale.TINY: dict(unique_blocks=12, blocks=48, options_per_block=64, iterations=3),
    WorkloadScale.SMALL: dict(unique_blocks=24, blocks=120, options_per_block=256, iterations=5),
    WorkloadScale.PAPER: dict(unique_blocks=64, blocks=1222, options_per_block=1636, iterations=5),
}


def _price_block(params_block: np.ndarray, prices_block: np.ndarray) -> None:
    """The task body (module-level: worker backends look bodies up by name)."""
    prices_block[:] = black_scholes_price(params_block)


class BlackscholesApp(BenchmarkApp):
    """Black-Scholes portfolio pricing."""

    info = BenchmarkInfo(
        name="blackscholes",
        domain="financial analysis",
        memoized_task_type="bs_thread",
        correctness_measured_on="Prices Vector",
        tau_max=0.01,
        l_training=15,
        paper_task_input_bytes=393_216,
        paper_number_of_tasks=6_109,
        paper_program_input="Native input with 10 million options",
    )

    def _setup_workload(self) -> None:
        cfg = _SCALES[self.scale]
        self.blocks = int(cfg["blocks"])
        self.options_per_block = int(cfg["options_per_block"])
        self.iterations = int(cfg["iterations"])
        unique_blocks = int(cfg["unique_blocks"])

        rng = generator_for(self.seed, "blackscholes")
        pool = np.empty((unique_blocks, self.options_per_block, 6), dtype=np.float32)
        pool[..., 0] = rng.uniform(10.0, 120.0, pool.shape[:2])      # spot
        pool[..., 1] = rng.uniform(10.0, 120.0, pool.shape[:2])      # strike
        pool[..., 2] = rng.uniform(0.01, 0.08, pool.shape[:2])       # rate
        pool[..., 3] = rng.uniform(0.05, 0.65, pool.shape[:2])       # volatility
        pool[..., 4] = rng.uniform(0.1, 2.0, pool.shape[:2])         # expiry
        pool[..., 5] = (rng.random(pool.shape[:2]) > 0.5).astype(np.float32)

        # Tile the pool over the whole portfolio (the source of input
        # redundancy): block i uses pool pattern i % unique_blocks.
        assignment = np.arange(self.blocks) % unique_blocks
        self.params = np.ascontiguousarray(pool[assignment])
        self.prices = np.zeros((self.blocks, self.options_per_block), dtype=np.float32)

        # Compute-intensity calibration: the pricing task performs roughly 8x
        # more work per input byte than hashing that byte (this reproduces the
        # large hash-key overhead the paper observes for Blackscholes, where
        # Static ATM reaches 5.5x but the Oracle reaches 15.1x).
        per_byte_cost = 0.02  # simulated us per input byte
        self.bs_task_type = self._make_task_type(
            "bs_thread",
            memoizable=True,
            tau_max=self.info.tau_max,
            l_training=self.info.l_training,
            cost_model=lambda task, c=per_byte_cost: 1.0 + c * task.input_bytes,
        )

    # -- program -------------------------------------------------------------------
    def build(self, runtime: Session) -> None:
        for _ in range(self.iterations):
            for block in range(self.blocks):
                params_block = self.params[block]
                prices_block = self.prices[block]
                runtime.submit(
                    self.bs_task_type,
                    _price_block,
                    accesses=[
                        In(params_block, name=f"options[{block}]"),
                        Out(prices_block, name=f"prices[{block}]"),
                    ],
                    args=(params_block, prices_block),
                )
            runtime.wait_all()

    def output(self) -> np.ndarray:
        return self.prices.reshape(-1).copy()

    def _footprint_arrays(self) -> list[np.ndarray]:
        return [self.params, self.prices]

    # -- convenience -----------------------------------------------------------------
    def expected_task_count(self) -> int:
        return self.blocks * self.iterations
