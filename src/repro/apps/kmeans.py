"""Kmeans clustering (machine learning).

The algorithm iteratively (1) assigns blocks of points to their nearest
centers and accumulates per-block partial sums — this is the
``kmeans_calculate(distances)`` task type chosen for ATM — and (2) recomputes
the centers from the partial sums (a second, non-memoized task type).

Source of redundancy (paper Section V-D): well-separated clusters make the
assignment stabilise after a few iterations, after which the distance tasks
keep producing the same partial sums.  Exact memoization nevertheless fails
because the recomputed centers keep changing in their least-significant bits
(floating-point accumulation-order effects, reproduced here by rotating the
reduction order every iteration); only *approximate* memoization with a small
MSB-first sampling fraction ``p`` can exploit this redundancy, which is why
Kmeans is the benchmark that most needs Dynamic ATM (and a large THT bucket
capacity, ``M = 128``).

Correctness is measured on the final centers vector (Table I).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import BenchmarkApp, BenchmarkInfo, WorkloadScale
from repro.common.rng import generator_for
from repro.session import Session
from repro.runtime.data import In, InOut, Out
from repro.runtime.task import Task

__all__ = ["KmeansApp"]

_SCALES = {
    WorkloadScale.TINY: dict(points=1024, blocks=8, clusters=6, dims=8, iterations=8),
    WorkloadScale.SMALL: dict(points=4096, blocks=16, clusters=8, dims=16, iterations=12),
    WorkloadScale.PAPER: dict(points=2_000_000, blocks=512, clusters=16, dims=100, iterations=12),
}


def assign_block(
    points: np.ndarray,
    centers: np.ndarray,
    partial_sums: np.ndarray,
    partial_counts: np.ndarray,
) -> None:
    """Assign each point of the block to its nearest center.

    Writes the per-center partial coordinate sums and counts for this block
    (the reduction inputs of the center-update task).
    """
    # Squared Euclidean distances, (n_points, k).
    distances = (
        np.sum(points.astype(np.float64) ** 2, axis=1)[:, None]
        - 2.0 * points.astype(np.float64) @ centers.astype(np.float64).T
        + np.sum(centers.astype(np.float64) ** 2, axis=1)[None, :]
    )
    nearest = np.argmin(distances, axis=1)
    k = centers.shape[0]
    partial_sums[:] = 0.0
    partial_counts[:] = 0.0
    for cluster in range(k):
        mask = nearest == cluster
        partial_counts[cluster] = float(np.count_nonzero(mask))
        if partial_counts[cluster] > 0:
            partial_sums[cluster, :] = points[mask].sum(axis=0, dtype=np.float64)


def update_centers(
    centers: np.ndarray,
    all_sums: list[np.ndarray],
    all_counts: list[np.ndarray],
    rotation: int,
) -> None:
    """Recompute the centers from per-block partial sums.

    ``rotation`` rotates the order in which partial sums are accumulated,
    reproducing the floating-point accumulation-order jitter that keeps the
    centers changing in their low-order bits even after the assignment has
    converged (the behaviour the paper reports for Kmeans).
    """
    k, d = centers.shape
    sums = np.zeros((k, d), dtype=np.float32)
    counts = np.zeros(k, dtype=np.float32)
    order = list(range(len(all_sums)))
    order = order[rotation % len(order):] + order[: rotation % len(order)]
    for index in order:
        sums += all_sums[index].astype(np.float32)
        counts += all_counts[index].astype(np.float32)
    nonzero = counts > 0
    centers[nonzero] = (sums[nonzero] / counts[nonzero, None]).astype(np.float32)


class KmeansApp(BenchmarkApp):
    """Block-parallel Lloyd's k-means."""

    info = BenchmarkInfo(
        name="kmeans",
        domain="machine learning",
        memoized_task_type="kmeans_calculate",
        correctness_measured_on="Centers Vector",
        tau_max=0.20,
        l_training=15,
        paper_task_input_bytes=219_716,
        paper_number_of_tasks=39_063,
        paper_program_input="2e6 points, 16 centers, 100 dimensions",
    )

    def _setup_workload(self) -> None:
        cfg = _SCALES[self.scale]
        self.n_points = int(cfg["points"])
        self.n_blocks = int(cfg["blocks"])
        self.k = int(cfg["clusters"])
        self.dims = int(cfg["dims"])
        self.iterations = int(cfg["iterations"])
        points_per_block = self.n_points // self.n_blocks

        rng = generator_for(self.seed, "kmeans")
        # Well-separated Gaussian clusters so the assignment converges fast.
        true_centers = rng.uniform(-50.0, 50.0, (self.k, self.dims)).astype(np.float32)
        labels = rng.integers(0, self.k, self.n_points)
        raw = true_centers[labels] + rng.normal(0.0, 1.5, (self.n_points, self.dims))
        self.points = np.ascontiguousarray(
            raw.reshape(self.n_blocks, points_per_block, self.dims).astype(np.float32)
        )
        # Initial centers: one point drawn from each true cluster (a
        # deterministic, well-spread initialisation), so the assignment
        # stabilises after a few iterations — the situation in which the paper
        # observes the redundant re-computation of already converged centers.
        initial = np.empty((self.k, self.dims), dtype=np.float32)
        for cluster in range(self.k):
            members = np.nonzero(labels == cluster)[0]
            pick = members[0] if members.size else cluster
            initial[cluster] = raw[pick]
        self.centers = np.ascontiguousarray(initial)
        self.partial_sums = np.zeros((self.n_blocks, self.k, self.dims), dtype=np.float64)
        self.partial_counts = np.zeros((self.n_blocks, self.k), dtype=np.float64)

        # Distance computation performs ~9x more work per input byte than
        # hashing it, which is why Static ATM on Kmeans is only a mild
        # slowdown (~0.9x in the paper) even though it never finds reuse.
        self.assign_task_type = self._make_task_type(
            "kmeans_calculate",
            memoizable=True,
            tau_max=self.info.tau_max,
            l_training=self.info.l_training,
            cost_model=lambda task: 1.0 + 0.0225 * task.input_bytes,
        )
        self.update_task_type = self._make_task_type(
            "kmeans_update",
            memoizable=False,
            cost_model=lambda task: 1.0 + 0.002 * task.input_bytes,
        )

    def build(self, runtime: Session) -> None:
        for iteration in range(self.iterations):
            for block in range(self.n_blocks):
                points = self.points[block]
                sums = self.partial_sums[block]
                counts = self.partial_counts[block]
                runtime.submit(
                    self.assign_task_type,
                    assign_block,
                    accesses=[
                        In(points, name=f"points[{block}]"),
                        In(self.centers, name="centers"),
                        Out(sums, name=f"psum[{block}]"),
                        Out(counts, name=f"pcount[{block}]"),
                    ],
                    args=(points, self.centers, sums, counts),
                )
            reduction_accesses = [InOut(self.centers, name="centers")]
            all_sums = [self.partial_sums[b] for b in range(self.n_blocks)]
            all_counts = [self.partial_counts[b] for b in range(self.n_blocks)]
            for block in range(self.n_blocks):
                reduction_accesses.append(In(all_sums[block], name=f"psum[{block}]"))
                reduction_accesses.append(In(all_counts[block], name=f"pcount[{block}]"))
            runtime.submit(
                self.update_task_type,
                update_centers,
                accesses=reduction_accesses,
                args=(self.centers, all_sums, all_counts, iteration),
            )
        runtime.wait_all()

    def output(self) -> np.ndarray:
        return self.centers.astype(np.float64).reshape(-1).copy()

    def _footprint_arrays(self) -> list[np.ndarray]:
        return [self.points, self.centers, self.partial_sums, self.partial_counts]

    def expected_task_count(self) -> int:
        return self.iterations * (self.n_blocks + 1)
