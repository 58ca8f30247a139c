"""Kernel tests: validation, eigendecomposition, HPD solves, Kronecker layout, sampling."""

import threading
from concurrent.futures import ThreadPoolExecutor

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


def validated_solve(a, b):
    """Validate ``a`` once, as the package does, then solve with the kernels."""
    return linalg.cholesky_solve(linalg.cholesky(scene.CovarianceSet(a).matrix), b)


class TestHermitianEvd:
    """``linalg.eigh_descending`` on matrices validated by ``scene.CovarianceSet``."""

    def test_identity(self):
        values, vectors = scene.CovarianceSet(np.eye(3)).evd()
        assert values.shape == (3,) and vectors.shape == (3, 3)
        np.testing.assert_allclose(values, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(3), atol=1e-10)

    def test_diagonal(self):
        values, vectors = linalg.eigh_descending(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 1]), [0.0, 1.0], atol=1e-12)

    def test_two_by_two_hand_case(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 - 1 -> x in {3, 1}
        values, vectors = linalg.eigh_descending(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
        v0 = vectors[:, 0]
        v1 = vectors[:, 1]
        assert abs(abs(v0 @ np.ones(2) / np.sqrt(2)) - 1.0) < 1e-10
        assert abs(abs(v1 @ np.array([1.0, -1.0]) / np.sqrt(2))) > 1.0 - 1e-10

    def test_reconstruction_up_to_64(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 17, 64):
            a = random_hermitian(rng, n, scale=3.0)
            values, vectors = linalg.eigh_descending(a)
            assert np.all(np.diff(values) <= 1e-12)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.linalg.norm(a - rebuilt) <= 1e-8 * np.linalg.norm(a)
            np.testing.assert_allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-10)

    def test_rejects_non_square_and_non_hermitian(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            scene.CovarianceSet(np.ones(3))
        with pytest.raises(ValueError, match="square"):
            scene.CovarianceSet(np.ones((2, 3)))
        with pytest.raises(ValueError, match="not Hermitian"):
            scene.CovarianceSet(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestHpdSolve:
    """``linalg.hpd_solve``, ``linalg.cholesky``, ``linalg.cholesky_solve`` and ``CovarianceSet.solve``."""

    def test_identity(self):
        b = np.array([1.0 + 2j, -3.0, 0.5j])
        np.testing.assert_allclose(scene.CovarianceSet(np.eye(3)).solve(b), b, atol=1e-14)

    def test_diagonal(self):
        x = validated_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_complex_hand_case(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        x = validated_solve(a, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [2.0 / 3.0, 1j / 3.0], atol=1e-12)

    def test_residual_on_random_hpd(self):
        rng = np.random.default_rng(11)
        for n in (2, 7, 16):
            a = random_hpd(rng, n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = scene.CovarianceSet(a).solve(b)
            assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_agrees_with_columnwise_inverse(self):
        rng = np.random.default_rng(12)
        for n in (3, 8, 16):
            a = random_hpd(rng, n)
            inv = np.column_stack([validated_solve(a, np.eye(n)[:, i]) for i in range(n)])
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = validated_solve(a, b)
            assert np.linalg.norm(x - inv @ b) <= 1e-8 * np.linalg.norm(inv @ b)
            # stacked right-hand sides solve as columns
            np.testing.assert_allclose(validated_solve(a, np.eye(n)), inv, atol=1e-12)

    def test_non_pd_reports_pivot(self):
        with pytest.raises(NumericalError, match="pivot 2"):
            linalg.cholesky(np.diag([1.0, -1.0]))
        for h in (np.diag([1.0, 2.0, -1.0, 3.0]), random_hermitian(np.random.default_rng(13), 6)):
            with pytest.raises(NumericalError, match="pivot") as factored:
                linalg.cholesky(h)
            with pytest.raises(NumericalError, match="pivot") as solved:
                linalg.hpd_solve(h, np.ones(h.shape[0]))
            assert str(solved.value) == str(factored.value)
        with pytest.raises(NumericalError, match="pivot 2"):
            scene.CovarianceSet(np.diag([1.0, -1.0])).solve(np.array([1.0, 1.0]))

    def test_non_finite_matrix_rejected(self):
        for bad in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0])):
            with pytest.raises(NumericalError, match="non-finite"):
                scene.CovarianceSet(bad)


def in_layout(a, layout):
    """The values of ``a`` (real-valued for "real") stored in the named layout."""
    if layout == "real":
        return np.ascontiguousarray(a.real)
    if layout == "c-ordered":
        return np.ascontiguousarray(a)
    if layout == "fortran-ordered":
        return np.asfortranarray(a)
    every_other = (slice(None, None, 2),) * a.ndim
    padded = np.zeros(tuple(2 * d for d in a.shape), dtype=a.dtype)
    padded[every_other] = a
    return padded[every_other]


class TestLapackBinding:
    """``hpd_solve``, ``cholesky`` and ``cholesky_solve`` call LAPACK on arrays
    of their own.

    LAPACK overwrites its matrix arguments; were the caller's array passed
    through, a solve would silently corrupt ``CovarianceSet.matrix``, the
    factor it caches, or a matrix a design goes on to use.
    """

    def test_inputs_are_left_unchanged(self):
        rng = np.random.default_rng(31)
        cov = scene.CovarianceSet(random_hpd(rng, 8))
        matrix = cov.matrix.copy()
        for b in (rng.normal(size=8) + 1j * rng.normal(size=8), rng.normal(size=(8, 3)) + 0j):
            before = b.copy()
            cov.solve(b)
            factor = cov._cholesky.copy()
            cov.solve(b)
            np.testing.assert_array_equal(b, before)
            np.testing.assert_array_equal(cov._cholesky, factor)
        np.testing.assert_array_equal(cov.matrix, matrix)
        h = np.asfortranarray(matrix)
        linalg.cholesky(h)
        np.testing.assert_array_equal(h, matrix)
        b = np.asfortranarray(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
        before = b.copy()
        linalg.hpd_solve(h, b)
        linalg.hpd_solve(h, b[:, 0])
        np.testing.assert_array_equal(h, matrix)
        np.testing.assert_array_equal(b, before)

    @pytest.mark.parametrize("layout", ("real", "c-ordered", "fortran-ordered", "sliced"))
    def test_layouts_give_the_contiguous_complex_result(self, layout):
        rng = np.random.default_rng(32)
        h = random_hpd(rng, 7)
        b = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
        if layout == "real":
            h, b = h.real.copy(), b.real.copy()
        factor = linalg.cholesky(np.ascontiguousarray(h, dtype=complex))
        np.testing.assert_array_equal(linalg.cholesky(in_layout(h, layout)), factor)
        for rhs in (b, b[:, 0]):
            expect = linalg.cholesky_solve(factor, np.ascontiguousarray(rhs, dtype=complex))
            got = linalg.cholesky_solve(in_layout(factor, layout), in_layout(rhs, layout))
            np.testing.assert_array_equal(got, expect)
            got = linalg.hpd_solve(in_layout(h, layout), in_layout(rhs, layout))
            np.testing.assert_array_equal(got, expect)

    def test_vector_and_stacked_right_hand_sides(self):
        rng = np.random.default_rng(33)
        a = random_hpd(rng, 9)
        factor = linalg.cholesky(a)
        stacked = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        x = linalg.cholesky_solve(factor, stacked)
        assert x.shape == (9, 4)
        for j in range(4):
            column = linalg.cholesky_solve(factor, stacked[:, j])
            assert column.shape == (9,)
            np.testing.assert_array_equal(x[:, j], column)
        assert np.linalg.norm(a @ x - stacked) <= 1e-10 * np.linalg.norm(stacked)
        assert linalg.cholesky_solve(factor, stacked[:, :1]).shape == (9, 1)
        np.testing.assert_array_equal(linalg.hpd_solve(a, stacked), x)
        for j in range(4):
            np.testing.assert_array_equal(linalg.hpd_solve(a, stacked[:, j]), x[:, j])
        assert linalg.hpd_solve(a, stacked[:, :1]).shape == (9, 1)

    @pytest.mark.parametrize("n", (1, 6, 8, 64, 256))
    def test_hpd_solve_is_factor_then_solve_bit_for_bit(self, n):
        rng = np.random.default_rng(35)
        h = scene.CovarianceSet(random_hpd(rng, n)).matrix
        for b in (rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=(n, 3)) + 0j):
            expect = linalg.cholesky_solve(linalg.cholesky(h), b)
            np.testing.assert_array_equal(linalg.hpd_solve(h, b), expect)

    @pytest.mark.parametrize("n", (1, 8, 64))
    def test_upper_triangle_matches_numpy(self, n):
        h = scene.CovarianceSet(random_hpd(np.random.default_rng(34), n)).matrix
        expect = np.linalg.cholesky(h, upper=True)
        gap = np.linalg.norm(np.triu(linalg.cholesky(h)) - expect)
        assert gap <= 1e-12 * np.linalg.norm(expect)

    def test_shape_mismatch_is_refused_before_lapack(self, monkeypatch):
        factor = linalg.cholesky(np.eye(3))

        def no_lapack(*args):
            raise AssertionError("LAPACK was called")

        monkeypatch.setattr(linalg, "_zposv", no_lapack)
        monkeypatch.setattr(linalg, "_zpotrs", no_lapack)
        for h in (np.ones((2, 3)), np.ones(3), np.ones(())):
            with pytest.raises(ValueError, match="square"):
                linalg.cholesky(h)
            with pytest.raises(ValueError, match="square"):
                linalg.hpd_solve(h, np.ones(3))
        for b in (np.ones(4), np.ones((2, 1)), np.ones((3, 1, 1)), np.ones(())):
            with pytest.raises(ValueError, match="cannot solve"):
                linalg.cholesky_solve(factor, b)
            with pytest.raises(ValueError, match="cannot solve"):
                linalg.hpd_solve(np.eye(3), b)
        with pytest.raises(ValueError, match="cannot solve"):
            linalg.cholesky_solve(factor[:, :2], np.ones(3))
        with pytest.raises(ValueError, match="cannot solve"):
            linalg.hpd_solve(np.eye(3)[:, :2], np.ones(3))

    def test_threads_share_the_integer_arguments_safely(self):
        # every call passes its sizes through one set of module-level integers;
        # four threads of different sizes must each get the serial result
        rng = np.random.default_rng(37)
        sizes = (3, 8, 17, 64)
        systems = [(random_hpd(rng, n), rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))) for n in sizes]

        def run(h, b):
            factor = linalg.cholesky(h)
            return [linalg.hpd_solve(h, b), factor, linalg.cholesky_solve(factor, b[:, 0])]

        serial = [run(h, b) for h, b in systems]
        start = threading.Barrier(len(systems))

        def mismatches(i):
            start.wait()
            return sum(not all(map(np.array_equal, run(*systems[i]), serial[i])) for _ in range(200))

        with ThreadPoolExecutor(max_workers=len(systems)) as pool:
            assert list(pool.map(mismatches, range(len(systems)))) == [0] * len(systems)


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


def draw(r, rng, count):
    """(M, count) snapshot block with covariance ``r``, drawn as the scene draws."""
    return scene.draw_interference_block(scene.CovarianceSet(r), count, rng)


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
