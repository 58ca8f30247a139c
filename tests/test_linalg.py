"""Kernel tests: eigendecomposition, HPD solves, Kronecker layout, Hankel, sampling."""

import numpy as np
import pytest

from stapbench import linalg, scene
from stapbench.linalg import NumericalError


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_hpd(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T + n * np.eye(n)


class TestHermitianEvd:
    def test_identity(self):
        values, vectors = linalg.hermitian_evd(np.eye(3))
        assert values.shape == (3,) and vectors.shape == (3, 3)
        np.testing.assert_allclose(values, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(3), atol=1e-10)

    def test_diagonal(self):
        values, vectors = linalg.hermitian_evd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 1]), [0.0, 1.0], atol=1e-12)

    def test_two_by_two_hand_case(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 - 1 -> x in {3, 1}
        values, vectors = linalg.hermitian_evd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
        v0 = vectors[:, 0]
        v1 = vectors[:, 1]
        assert abs(abs(v0 @ np.ones(2) / np.sqrt(2)) - 1.0) < 1e-10
        assert abs(abs(v1 @ np.array([1.0, -1.0]) / np.sqrt(2))) > 1.0 - 1e-10

    def test_reconstruction_up_to_64(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 17, 64):
            a = random_hermitian(rng, n, scale=3.0)
            values, vectors = linalg.hermitian_evd(a)
            assert np.all(np.diff(values) <= 1e-12)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.linalg.norm(a - rebuilt) <= 1e-8 * np.linalg.norm(a)
            np.testing.assert_allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-10)

    def test_rejects_non_square_and_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.hermitian_evd(np.ones((2, 3)))
        with pytest.raises(ValueError):
            linalg.hermitian_evd(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestHpdSolve:
    def test_identity(self):
        b = np.array([1.0 + 2j, -3.0, 0.5j])
        np.testing.assert_allclose(linalg.hpd_solve(np.eye(3), b), b, atol=1e-14)

    def test_diagonal(self):
        x = linalg.hpd_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_complex_hand_case(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        x = linalg.hpd_solve(a, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [2.0 / 3.0, 1j / 3.0], atol=1e-12)

    def test_residual_on_random_hpd(self):
        rng = np.random.default_rng(11)
        for n in (2, 7, 16):
            a = random_hpd(rng, n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = linalg.hpd_solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_agrees_with_columnwise_inverse(self):
        rng = np.random.default_rng(12)
        for n in (3, 8, 16):
            a = random_hpd(rng, n)
            inv = np.column_stack(
                [linalg.hpd_solve(a, np.eye(n)[:, i]) for i in range(n)]
            )
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = linalg.hpd_solve(a, b)
            assert np.linalg.norm(x - inv @ b) <= 1e-8 * np.linalg.norm(inv @ b)

    def test_non_pd_reports_pivot(self):
        with pytest.raises(NumericalError, match="pivot 2"):
            linalg.hpd_solve(np.diag([1.0, -1.0]), np.array([1.0, 1.0]))

    def test_non_finite_matrix_rejected(self):
        for bad in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0])):
            with pytest.raises(NumericalError, match="non-finite"):
                linalg.hpd_solve(bad, np.ones(3))


class TestKron:
    """Sensor-major Kronecker layout of the space-time vectors and matrices."""

    def test_vector_case(self):
        # spatial [1, 1] (zero spatial frequency) times temporal [1, -1]
        s = scene.space_time_steering(0.0, 0.5, 2, 2)
        np.testing.assert_allclose(s, [0.5, -0.5, 0.5, -0.5], atol=1e-15)

    def test_swap_blocks(self):
        # endfire jammer: spatial outer product [[1, -1], [-1, 1]] times I_pulses,
        # so the off-diagonal sensor blocks are -I and the diagonal ones I
        cfg = scene.RadarConfig(
            num_sensors=2, num_pulses=2, jammers=(scene.JammerSpec(90.0, 0.0),), cnr_db=None
        )
        expect = np.zeros((4, 4))
        expect[0:2, 0:2] = expect[2:4, 2:4] = np.eye(2)
        expect[0:2, 2:4] = expect[2:4, 0:2] = -np.eye(2)
        np.testing.assert_allclose(scene.jammer_covariance(cfg), expect, atol=1e-12)


class TestHankel:
    def test_three_by_two(self):
        a, b, c = 1.0 + 1j, 2.0, -3j
        out = linalg.hankel_from_vector(np.array([a, b, c]), 2)
        np.testing.assert_allclose(out, [[a, b], [b, c], [c, 0.0]])

    def test_width_one_is_column_copy(self):
        x = np.array([1.0, 2.0, 5.0])
        np.testing.assert_allclose(linalg.hankel_from_vector(x, 1).ravel(), x)

    def test_four_by_three(self):
        out = linalg.hankel_from_vector(np.array([1.0, 2.0, 3.0, 4.0]), 3)
        np.testing.assert_allclose(out, [[1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 0]])

    def test_constant_antidiagonals(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=12) + 1j * rng.normal(size=12)
        out = linalg.hankel_from_vector(x, 5)
        for m in range(12):
            for i in range(5):
                expect = x[m + i] if m + i < 12 else 0.0
                assert out[m, i] == expect

    def test_width_out_of_range(self):
        with pytest.raises(ValueError):
            linalg.hankel_from_vector(np.ones(3), 4)
        with pytest.raises(ValueError):
            linalg.hankel_from_vector(np.ones(3), 0)


def draw(r, rng, count):
    """(M, count) snapshot block with covariance ``r``, drawn as the scene draws."""
    zero = np.zeros_like(r)
    return scene.draw_interference_block(scene.CovarianceSet(zero, zero, zero, r), count, rng)


class TestColoredSample:
    def test_zero_covariance(self):
        out = draw(np.zeros((3, 3)), np.random.default_rng(0), 1)
        assert out.shape == (3, 1)
        np.testing.assert_allclose(out, 0.0)

    def test_white_per_entry_variance(self):
        rng = np.random.default_rng(21)
        sigma2 = 2.5
        draws = draw(sigma2 * np.eye(4), rng, 100_000)
        variances = np.mean(np.abs(draws) ** 2, axis=1)
        np.testing.assert_allclose(variances, sigma2, rtol=0.05)

    def test_diagonal_variances(self):
        rng = np.random.default_rng(22)
        draws = draw(np.diag([4.0, 1.0]), rng, 100_000)
        np.testing.assert_allclose(np.mean(np.abs(draws) ** 2, axis=1), [4.0, 1.0], rtol=0.05)

    def test_empirical_covariance_entrywise(self):
        rng = np.random.default_rng(23)
        r = np.array(
            [
                [2.0, 0.5 + 0.5j, 0.0],
                [0.5 - 0.5j, 1.5, -0.25j],
                [0.0, 0.25j, 1.0],
            ]
        )
        n = 100_000
        draws = draw(r, rng, n)
        emp = draws @ draws.conj().T / n
        scale = np.sqrt(np.outer(np.diag(r).real, np.diag(r).real))
        assert np.all(np.abs(emp - r) <= 3.0 * 5.0 * scale / np.sqrt(n))

    def test_rank_deficient_factor(self):
        u = np.array([1.0, 1j]) / np.sqrt(2)
        r = np.outer(u, u.conj())
        factor = linalg.covariance_factor(r)
        np.testing.assert_allclose(factor @ factor.conj().T, r, atol=1e-12)

    def test_factor_is_unique_hermitian_root(self):
        # a repeated eigenvalue leaves eigh free to return any basis of its
        # eigenspace; the factor must not depend on that choice
        rng = np.random.default_rng(24)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        values = np.array([4.0, 4.0, 4.0, 1.0, 0.0])
        r = (q * values) @ q.conj().T
        factor = linalg.covariance_factor(r)
        np.testing.assert_allclose(factor, factor.conj().T, atol=1e-12)
        np.testing.assert_allclose(factor @ factor, r, atol=1e-12)
        np.testing.assert_allclose(factor, (q * np.sqrt(values)) @ q.conj().T, atol=1e-12)
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rotated = q.copy()
        rotated[:, :3] = q[:, :3] @ u
        r_rotated = (rotated * values) @ rotated.conj().T
        np.testing.assert_allclose(linalg.covariance_factor(r_rotated), factor, atol=1e-12)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NumericalError):
            linalg.covariance_factor(np.diag([1.0, -0.5]))
