"""Gauss-Seidel and Jacobi 2-D five-point heat stencils.

Both solvers propagate heat from the walls of a square room into its
interior.  The matrix is divided into 2-D blocks stored contiguously (one
block per task); neighbouring rows/columns are obtained via dedicated *copy
tasks* exactly as the paper describes, and the heat-diffusion task type
(``stencilComputation``) is the one selected for ATM.

* **Gauss-Seidel** updates blocks in place; the copy tasks make block
  ``(i, j)`` read the *already updated* blocks above and to its left within
  the same sweep, which yields the classic wavefront dependence pattern.
* **Jacobi** is double-buffered: within one sweep all stencil tasks are
  independent and the program synchronises at the end of every iteration.
  This is why Jacobi needs the In-flight Key Table: identical blocks execute
  concurrently and would otherwise all miss in the THT.

Source of redundancy (paper Section V-D): the interior of the room starts at
a uniform temperature, so blocks far from the walls keep receiving
bit-identical inputs for many sweeps (the heat front moves roughly one cell
per sweep); additionally the block initialisation draws from a small pool of
patterns, mimicking the saturated random initialisation of the original
kernel.

Correctness is measured on the assembled stencil matrix (Table I).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import BenchmarkApp, BenchmarkInfo, WorkloadScale
from repro.common.rng import generator_for
from repro.session import Session
from repro.runtime.data import In, InOut, Out
from repro.runtime.task import Task

__all__ = ["GaussSeidelApp", "JacobiApp"]

#: Temperature of the walls (boundary condition).
WALL_TEMPERATURE = 100.0

_SCALES = {
    WorkloadScale.TINY: dict(block_rows=8, block_cols=8, block_size=8, iterations=6),
    WorkloadScale.SMALL: dict(block_rows=12, block_cols=12, block_size=24, iterations=10),
    WorkloadScale.PAPER: dict(block_rows=32, block_cols=32, block_size=1024, iterations=12),
}


class StencilGrid:
    """Block-decomposed grid with per-block halo buffers.

    ``blocks`` has shape ``(block_rows, block_cols, bs, bs)`` so every block
    is a contiguous region.  Halo buffers (one row/column per block side) are
    separate contiguous arrays filled by copy tasks; walls are shared constant
    arrays.
    """

    def __init__(self, block_rows: int, block_cols: int, block_size: int, rng: np.random.Generator) -> None:
        self.block_rows = block_rows
        self.block_cols = block_cols
        self.block_size = block_size
        bs = block_size
        self.blocks = np.zeros((block_rows, block_cols, bs, bs), dtype=np.float32)
        # Interior initialisation: the original kernel's random initialisation
        # saturates, producing identical sub-blocks; we reproduce that by
        # initialising every block from the same (single) saturated pattern —
        # a uniform ambient temperature.  The walls emit WALL_TEMPERATURE, so
        # redundancy arises from interior blocks that the heat front has not
        # yet reached (paper Section V-D).
        ambient = np.float32(rng.uniform(0.0, 1.0))
        self.blocks[...] = ambient
        # Halo buffers (filled by copy tasks each sweep).
        self.halo_top = np.zeros((block_rows, block_cols, bs), dtype=np.float32)
        self.halo_bottom = np.zeros((block_rows, block_cols, bs), dtype=np.float32)
        self.halo_left = np.zeros((block_rows, block_cols, bs), dtype=np.float32)
        self.halo_right = np.zeros((block_rows, block_cols, bs), dtype=np.float32)
        # Shared constant wall rows/columns.
        self.wall = np.full(bs, WALL_TEMPERATURE, dtype=np.float32)

    def assemble(self, blocks: np.ndarray | None = None) -> np.ndarray:
        """Assemble the full matrix from the block decomposition."""
        blocks = self.blocks if blocks is None else blocks
        rows = [np.concatenate(list(blocks[i]), axis=1) for i in range(self.block_rows)]
        return np.concatenate(rows, axis=0)

    def nbytes(self) -> int:
        return int(
            self.blocks.nbytes
            + self.halo_top.nbytes
            + self.halo_bottom.nbytes
            + self.halo_left.nbytes
            + self.halo_right.nbytes
        )


# ---------------------------------------------------------------------------
# Task bodies (plain functions operating on the arrays they were given).
# ---------------------------------------------------------------------------

def copy_row(src_block: np.ndarray, dst_halo: np.ndarray, row: int) -> None:
    """Copy one row of a neighbour block into a halo buffer."""
    dst_halo[:] = src_block[row, :]


def copy_col(src_block: np.ndarray, dst_halo: np.ndarray, col: int) -> None:
    """Copy one column of a neighbour block into a halo buffer."""
    dst_halo[:] = src_block[:, col]


def jacobi_block(
    src: np.ndarray,
    dst: np.ndarray,
    top: np.ndarray,
    bottom: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> None:
    """One Jacobi sweep over a block using its halos."""
    bs = src.shape[0]
    padded = np.empty((bs + 2, bs + 2), dtype=np.float64)
    padded[1:-1, 1:-1] = src
    padded[0, 1:-1] = top
    padded[-1, 1:-1] = bottom
    padded[1:-1, 0] = left
    padded[1:-1, -1] = right
    padded[0, 0] = padded[0, 1]
    padded[0, -1] = padded[0, -2]
    padded[-1, 0] = padded[-1, 1]
    padded[-1, -1] = padded[-1, -2]
    dst[:] = 0.25 * (
        padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
    )


def gauss_seidel_block(
    block: np.ndarray,
    top: np.ndarray,
    bottom: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> None:
    """One Gauss-Seidel sweep over a block (row-wise, in place).

    Rows are updated top-to-bottom so each row uses the freshly updated row
    above it; within a row the previous values of the left/right neighbours
    are used, which keeps the update vectorised while preserving the
    Gauss-Seidel character across rows and across blocks.
    """
    bs = block.shape[0]
    work = block.astype(np.float64)
    left64 = left.astype(np.float64)
    right64 = right.astype(np.float64)
    for r in range(bs):
        above = work[r - 1, :] if r > 0 else np.asarray(top, dtype=np.float64)
        below = work[r + 1, :] if r < bs - 1 else np.asarray(bottom, dtype=np.float64)
        row = work[r, :]
        west = np.empty(bs)
        west[0] = left64[r]
        west[1:] = row[:-1]
        east = np.empty(bs)
        east[-1] = right64[r]
        east[:-1] = row[1:]
        work[r, :] = 0.25 * (above + below + west + east)
    block[:] = work.astype(np.float32)


class _StencilBase(BenchmarkApp):
    """Shared workload setup and reporting for both stencil solvers."""

    def _setup_workload(self) -> None:
        cfg = _SCALES[self.scale]
        rng = generator_for(self.seed, self.info.name)
        self.iterations = int(cfg["iterations"])
        self.grid = StencilGrid(
            int(cfg["block_rows"]), int(cfg["block_cols"]), int(cfg["block_size"]), rng
        )
        # Memory-bound stencil: the task performs only ~2x more work per input
        # byte than hashing that byte, so a full-precision hash key is a large
        # overhead (this is why the paper's Gauss-Seidel jumps from 1.68x with
        # Static ATM to 6.3x with the Oracle's tiny sampling fraction).
        per_byte_cost = 0.005
        self.stencil_task_type = self._make_task_type(
            "stencilComputation",
            memoizable=True,
            tau_max=self.info.tau_max,
            l_training=self.info.l_training,
            cost_model=lambda task, c=per_byte_cost: 0.5 + c * task.input_bytes,
        )
        # Copy tasks move one row/column at memory bandwidth.
        self.copy_task_type = self._make_task_type(
            "copyEdges",
            memoizable=False,
            cost_model=lambda task: 0.05 + task.input_bytes / 2000.0,
        )

    def _submit_halo_copies(self, runtime: Session, blocks: np.ndarray, i: int, j: int) -> list:
        """Submit the copy tasks feeding block (i, j)'s halos; return accesses.

        The task bodies are the module-level :func:`copy_row` / :func:`copy_col`
        with the row/column index passed as a plain argument (not captured in
        a closure), so copy tasks travel by name to the worker backends.
        """
        grid = self.grid
        bs = grid.block_size
        halo_in = []
        specs = [
            ("top", grid.halo_top[i, j], (i - 1, j), copy_row, bs - 1),
            ("bottom", grid.halo_bottom[i, j], (i + 1, j), copy_row, 0),
            ("left", grid.halo_left[i, j], (i, j - 1), copy_col, bs - 1),
            ("right", grid.halo_right[i, j], (i, j + 1), copy_col, 0),
        ]
        for side, halo, (ni, nj), body, line in specs:
            if 0 <= ni < grid.block_rows and 0 <= nj < grid.block_cols:
                neighbour = blocks[ni, nj]
                runtime.submit(
                    self.copy_task_type,
                    body,
                    accesses=[
                        In(neighbour, name=f"block[{ni},{nj}]"),
                        Out(halo, name=f"halo_{side}[{i},{j}]"),
                    ],
                    args=(neighbour, halo, line),
                )
                halo_in.append(halo)
            else:
                # Wall side: the halo is the shared constant wall array.
                halo_in.append(grid.wall)
        return halo_in

    def output(self) -> np.ndarray:
        return self.grid.assemble().astype(np.float64).reshape(-1)

    def _footprint_arrays(self) -> list[np.ndarray]:
        return [
            self.grid.blocks,
            self.grid.halo_top,
            self.grid.halo_bottom,
            self.grid.halo_left,
            self.grid.halo_right,
        ]

    def expected_stencil_tasks(self) -> int:
        return self.grid.block_rows * self.grid.block_cols * self.iterations


class GaussSeidelApp(_StencilBase):
    """2-D Gauss-Seidel five-point stencil (in-place, wavefront parallel)."""

    info = BenchmarkInfo(
        name="gauss-seidel",
        domain="stencil computation",
        memoized_task_type="stencilComputation",
        correctness_measured_on="Stencil Matrix",
        tau_max=0.01,
        l_training=100,
        paper_task_input_bytes=4_210_688,
        paper_number_of_tasks=20_480,
        paper_program_input="32x32 blocks of 1024x1024 elements",
    )

    def build(self, runtime: Session) -> None:
        grid = self.grid
        for _ in range(self.iterations):
            for i in range(grid.block_rows):
                for j in range(grid.block_cols):
                    block = grid.blocks[i, j]
                    top, bottom, left, right = self._submit_halo_copies(
                        runtime, grid.blocks, i, j
                    )
                    runtime.submit(
                        self.stencil_task_type,
                        gauss_seidel_block,
                        accesses=[
                            InOut(block, name=f"block[{i},{j}]"),
                            In(top, name=f"in_top[{i},{j}]"),
                            In(bottom, name=f"in_bottom[{i},{j}]"),
                            In(left, name=f"in_left[{i},{j}]"),
                            In(right, name=f"in_right[{i},{j}]"),
                        ],
                        args=(block, top, bottom, left, right),
                    )
            runtime.wait_all()


class JacobiApp(_StencilBase):
    """2-D Jacobi five-point stencil (double-buffered, iteration barriers)."""

    info = BenchmarkInfo(
        name="jacobi",
        domain="stencil computation",
        memoized_task_type="stencilComputation",
        correctness_measured_on="Stencil Matrix",
        tau_max=0.01,
        l_training=150,
        paper_task_input_bytes=4_210_688,
        paper_number_of_tasks=20_480,
        paper_program_input="32x32 blocks of 1024x1024 elements",
    )

    def _setup_workload(self) -> None:
        super()._setup_workload()
        # The paper observes that exact memoization finds almost no reuse in
        # Jacobi (unlike Gauss-Seidel): the double-buffered sweep keeps
        # perturbing the low-order bits of slowly converging cells instead of
        # settling on a bit-exact fixed point.  We reproduce that behaviour by
        # adding a tiny (1e-5) deterministic per-cell perturbation to the
        # initial temperature field, so exact keys almost never repeat while
        # MSB-first approximate keys do (see DESIGN.md, substitutions).
        noise_rng = generator_for(self.seed, "jacobi-noise")
        noise = noise_rng.uniform(0.0, 1e-5, self.grid.blocks.shape).astype(np.float32)
        self.grid.blocks += noise
        self._back_buffer = np.array(self.grid.blocks, copy=True)

    def build(self, runtime: Session) -> None:
        grid = self.grid
        src, dst = grid.blocks, self._back_buffer
        for _ in range(self.iterations):
            for i in range(grid.block_rows):
                for j in range(grid.block_cols):
                    src_block = src[i, j]
                    dst_block = dst[i, j]
                    top, bottom, left, right = self._submit_halo_copies(runtime, src, i, j)
                    runtime.submit(
                        self.stencil_task_type,
                        jacobi_block,
                        accesses=[
                            In(src_block, name=f"src[{i},{j}]"),
                            Out(dst_block, name=f"dst[{i},{j}]"),
                            In(top, name=f"in_top[{i},{j}]"),
                            In(bottom, name=f"in_bottom[{i},{j}]"),
                            In(left, name=f"in_left[{i},{j}]"),
                            In(right, name=f"in_right[{i},{j}]"),
                        ],
                        args=(src_block, dst_block, top, bottom, left, right),
                    )
            runtime.wait_all()
            src, dst = dst, src
        self._final_buffer = src

    def output(self) -> np.ndarray:
        blocks = getattr(self, "_final_buffer", self.grid.blocks)
        return self.grid.assemble(blocks).astype(np.float64).reshape(-1)

    def _footprint_arrays(self) -> list[np.ndarray]:
        return super()._footprint_arrays() + [self._back_buffer]
