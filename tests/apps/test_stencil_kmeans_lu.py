"""Tests for the stencil solvers, Kmeans and SparseLU applications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.kmeans import KmeansApp, assign_block, update_centers
from repro.apps.sparselu import SparseLUApp, bdiv, bmod, fwd, lu0
from repro.apps.stencil import (
    GaussSeidelApp,
    JacobiApp,
    StencilGrid,
    WALL_TEMPERATURE,
    gauss_seidel_block,
    jacobi_block,
)
from repro.common.rng import generator_for

from tests.conftest import make_serial_runtime


class TestStencilKernels:
    def test_jacobi_uniform_field_stays_uniform(self):
        block = np.full((8, 8), 3.0, dtype=np.float32)
        out = np.zeros_like(block)
        halo = np.full(8, 3.0, dtype=np.float32)
        jacobi_block(block, out, halo, halo, halo, halo)
        assert np.allclose(out, 3.0)

    def test_jacobi_heat_flows_in_from_hot_halo(self):
        block = np.zeros((8, 8), dtype=np.float32)
        out = np.zeros_like(block)
        cold = np.zeros(8, dtype=np.float32)
        hot = np.full(8, 100.0, dtype=np.float32)
        jacobi_block(block, out, hot, cold, cold, cold)
        assert out[0].max() > 0.0          # first row warmed by the hot top halo
        assert np.allclose(out[4:], 0.0)   # interior untouched after one sweep

    def test_gauss_seidel_uniform_field_stays_uniform(self):
        block = np.full((8, 8), 2.0, dtype=np.float32)
        halo = np.full(8, 2.0, dtype=np.float32)
        gauss_seidel_block(block, halo, halo, halo, halo)
        assert np.allclose(block, 2.0)

    def test_gauss_seidel_propagates_further_than_jacobi(self):
        """In-place updates let heat travel several rows in one sweep."""
        gs_block = np.zeros((8, 8), dtype=np.float32)
        cold = np.zeros(8, dtype=np.float32)
        hot = np.full(8, 100.0, dtype=np.float32)
        gauss_seidel_block(gs_block, hot, cold, cold, cold)
        assert gs_block[2].max() > 0.0

    def test_stencil_grid_assembly_shape(self):
        grid = StencilGrid(3, 4, 8, generator_for(0, "grid"))
        assert grid.assemble().shape == (24, 32)


class TestStencilApps:
    @pytest.mark.parametrize("app_class", [GaussSeidelApp, JacobiApp])
    def test_heat_enters_the_room(self, app_class):
        app = app_class(scale="tiny")
        runtime = make_serial_runtime()
        app.run(runtime)
        matrix = app.output().reshape(
            app.grid.block_rows * app.grid.block_size, -1
        )
        # Border rows are warmer than the centre after a few sweeps.
        assert matrix[0].mean() > matrix[matrix.shape[0] // 2].mean()
        assert matrix.max() <= WALL_TEMPERATURE + 1e-3

    def test_gauss_seidel_task_count(self):
        app = GaussSeidelApp(scale="tiny")
        runtime = make_serial_runtime()
        app.run(runtime)
        assert runtime.task_count > app.expected_stencil_tasks()

    def test_jacobi_deterministic(self):
        outputs = []
        for _ in range(2):
            app = JacobiApp(scale="tiny")
            runtime = make_serial_runtime()
            app.run(runtime)
            outputs.append(app.output())
        assert np.array_equal(outputs[0], outputs[1])

    def test_interior_blocks_identical_inputs(self):
        """The redundancy source: interior blocks start bit-identical."""
        app = GaussSeidelApp(scale="tiny")
        blocks = app.grid.blocks
        centre = blocks[3, 3]
        other = blocks[4, 4]
        assert np.array_equal(centre, other)


class TestKmeansKernels:
    def test_assign_block_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(-1, 1, (32, 4)).astype(np.float32)
        centers = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        sums = np.zeros((3, 4))
        counts = np.zeros(3)
        assign_block(points, centers, sums, counts)
        expected_assign = np.argmin(
            ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        for cluster in range(3):
            mask = expected_assign == cluster
            assert counts[cluster] == mask.sum()
            assert np.allclose(sums[cluster], points[mask].sum(axis=0), atol=1e-5)

    def test_assign_block_counts_sum_to_points(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(-1, 1, (40, 3)).astype(np.float32)
        centers = rng.uniform(-1, 1, (4, 3)).astype(np.float32)
        sums, counts = np.zeros((4, 3)), np.zeros(4)
        assign_block(points, centers, sums, counts)
        assert counts.sum() == 40

    def test_update_centers_weighted_mean(self):
        centers = np.zeros((2, 2), dtype=np.float32)
        sums = [np.array([[2.0, 2.0], [0.0, 0.0]]), np.array([[2.0, 2.0], [9.0, 3.0]])]
        counts = [np.array([2.0, 0.0]), np.array([2.0, 3.0])]
        update_centers(centers, sums, counts, rotation=0)
        assert np.allclose(centers[0], [1.0, 1.0])
        assert np.allclose(centers[1], [3.0, 1.0])

    def test_update_centers_keeps_empty_cluster(self):
        centers = np.array([[5.0, 5.0]], dtype=np.float32)
        update_centers(centers, [np.zeros((1, 2))], [np.zeros(1)], rotation=0)
        assert np.allclose(centers, [[5.0, 5.0]])


class TestKmeansApp:
    def test_converges_near_true_centers(self):
        app = KmeansApp(scale="tiny")
        runtime = make_serial_runtime()
        app.run(runtime)
        centers = app.centers
        # Every point block should be close to some final center.
        points = app.points.reshape(-1, app.dims)
        distances = np.sqrt(((points[:, None, :] - centers[None]) ** 2).sum(axis=2)).min(axis=1)
        assert distances.mean() < 10.0

    def test_task_count(self):
        app = KmeansApp(scale="tiny")
        runtime = make_serial_runtime()
        app.run(runtime)
        assert runtime.task_count == app.expected_task_count()


class TestSparseLUKernels:
    def _block(self, n=8, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.uniform(-1, 1, (n, n)) / n + np.eye(n) * 3).astype(np.float32)

    def test_lu0_factorisation(self):
        block = self._block()
        original = block.astype(np.float64).copy()
        lu0(block)
        lower = np.tril(block.astype(np.float64), -1) + np.eye(8)
        upper = np.triu(block.astype(np.float64))
        assert np.allclose(lower @ upper, original, atol=1e-4)

    def test_fwd_solves_lower_system(self):
        diag = self._block()
        lu0(diag)
        lower = np.tril(diag.astype(np.float64), -1) + np.eye(8)
        rhs = self._block(seed=3).astype(np.float64)
        block = rhs.astype(np.float32).copy()
        fwd(diag, block)
        assert np.allclose(lower @ block.astype(np.float64), rhs, atol=1e-4)

    def test_bdiv_solves_upper_system(self):
        diag = self._block()
        lu0(diag)
        upper = np.triu(diag.astype(np.float64))
        rhs = self._block(seed=4).astype(np.float64)
        block = rhs.astype(np.float32).copy()
        bdiv(diag, block)
        assert np.allclose(block.astype(np.float64) @ upper, rhs, atol=1e-4)

    def test_bmod_update(self):
        a = self._block(seed=5)
        b = self._block(seed=6)
        target = self._block(seed=7)
        expected = target.astype(np.float64) - a.astype(np.float64) @ b.astype(np.float64)
        bmod(a, b, target)
        assert np.allclose(target, expected, atol=1e-4)


class TestSparseLUApp:
    def test_factorisation_residual_small(self):
        app = SparseLUApp(scale="tiny")
        runtime = make_serial_runtime()
        app.run(runtime)
        assert app.relative_error(app.output()) < 1e-3
        assert app.correctness(app.output()) > 99.9

    def test_bmod_count_matches_prediction(self):
        app = SparseLUApp(scale="tiny")
        expected = app.expected_bmod_count()
        runtime = make_serial_runtime()
        submit = runtime.submit
        submitted = []

        def counting_submit(task_type, *args, **kwargs):
            submitted.append(task_type.name)
            return submit(task_type, *args, **kwargs)

        runtime.submit = counting_submit
        app.run(runtime)
        assert submitted.count("bmod") == expected

    def test_matrix_contains_repeated_blocks(self):
        app = SparseLUApp(scale="tiny")
        patterns = set()
        for i in range(app.nb):
            for j in range(app.nb):
                if i != j and app.present[i, j]:
                    patterns.add(app.blocks[i, j].tobytes())
        off_diagonal = int(app.present.sum()) - app.nb
        assert len(patterns) < off_diagonal
