"""Beamformer design tests: full-rank, reduced-rank, sparse, knowledge-aided."""

import tracemalloc

import numpy as np
import pytest

from stapbench import beamformers as bf
from stapbench import evaluation as ev
from stapbench import linalg, scene
from stapbench.config_io import ExperimentSpec
from stapbench.linalg import NumericalError

TABLE_CFG = scene.RadarConfig()
TABLE_TGT = scene.TargetSpec(0.0, 100.0, 10.0)


def random_hpd(rng, n, floor=None):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T + (floor if floor is not None else n) * np.eye(n)


def random_steering(rng, n):
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    return s / np.linalg.norm(s)


def sinr_linear(w, r, s):
    return abs(w.conj() @ s) ** 2 / (w.conj() @ r @ w).real


def sinr_db(w, r, s):
    return 10.0 * np.log10(sinr_linear(w, r, s))


@pytest.fixture(scope="module")
def table_scene():
    cov = scene.total_covariance(TABLE_CFG)
    s = scene.target_steering(TABLE_CFG, TABLE_TGT)
    return cov, s


@pytest.fixture(scope="module")
def m256_sample():
    """A loaded sample covariance of the standard scene at 16 x 16 (M = 256)."""
    cfg = scene.RadarConfig(num_sensors=16, num_pulses=16)
    block = scene.draw_interference_block(scene.total_covariance(cfg), 512, np.random.default_rng(31))
    return scene.sample_covariance(block, 0.01), scene.target_steering(cfg, TABLE_TGT)


def mgs_columns(pool, rank, stop_on_dependent):
    """Reference orthonormalization: the column-by-column modified Gram-Schmidt
    loop, applied twice, with the designs' stagnation and truncation thresholds.
    ``pool`` yields candidates given the columns so far."""
    columns = []
    for cand in pool(columns):
        if len(columns) == rank:
            break
        v = np.asarray(cand, dtype=complex).copy()
        scale = np.linalg.norm(v)
        if scale == 0.0:
            continue
        for _pass in range(2):
            for c in columns:
                v = v - (c.conj() @ v) * c
        residual = np.linalg.norm(v)
        if stop_on_dependent and residual < 1e-10 * max(scale, 1e-300):
            break
        if residual > 1e-10 * scale:
            columns.append(v / residual)
    return np.column_stack(columns)


def mgs_rows(pool, rank):
    """:func:`mgs_columns` for each row of a pool of (N, M) stacks, in which an
    (M,) entry serves every row: the (N, M, rank) stack of the rows' bases."""
    n = len(pool[0])
    rows = [[np.broadcast_to(c, pool[0].shape)[i] for c in pool] for i in range(n)]
    return np.stack([mgs_columns(lambda _, row=row: row, rank, False) for row in rows])


def mgs_krylov(r, s, rank):
    def chain(columns):
        yield s
        while True:
            yield r @ columns[-1]

    return mgs_columns(chain, rank, stop_on_dependent=True)


class TestMvdr:
    def test_white_noise_matched_filter(self):
        s = np.array([1.0, 1.0]) / np.sqrt(2)
        w = bf.mvdr_weights(np.eye(2), s)
        np.testing.assert_allclose(w, s, atol=1e-12)

    def test_diagonal_hand_case(self):
        w = bf.mvdr_weights(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_unit_response(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 12):
            r = random_hpd(rng, n)
            s = random_steering(rng, n)
            w = bf.mvdr_weights(r, s)
            assert abs(w.conj() @ s - 1.0) <= 1e-8


class TestLowRankMvdr:
    def test_full_rank_basis_equals_mvdr(self):
        rng = np.random.default_rng(1)
        r = random_hpd(rng, 6)
        s = random_steering(rng, 6)
        basis = np.eye(6, dtype=complex)
        np.testing.assert_allclose(
            bf.lr_mvdr_weights(basis, r, s), bf.mvdr_weights(r, s), atol=1e-10
        )

    def test_rank_one_steering_basis(self):
        rng = np.random.default_rng(2)
        r = random_hpd(rng, 5)
        s = random_steering(rng, 5)
        basis = s[:, None]
        w = bf.lr_mvdr_weights(basis, r, s)
        assert abs(w.conj() @ s - 1.0) <= 1e-10
        assert np.linalg.matrix_rank(np.column_stack([w, s])) == 1

    def test_random_subspace_never_beats_full(self):
        rng = np.random.default_rng(3)
        r = random_hpd(rng, 8)
        s = random_steering(rng, 8)
        full = sinr_linear(bf.mvdr_weights(r, s), r, s)
        q, _ = np.linalg.qr(rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
        sub = sinr_linear(bf.lr_mvdr_weights(q, r, s), r, s)
        assert sub <= full * (1 + 1e-12)

    def test_rank_deficient_basis_is_reported(self):
        basis = np.zeros((4, 2), dtype=complex)
        with pytest.raises(NumericalError, match="projected covariance is rank-deficient"):
            bf.lr_mvdr_weights(basis, np.eye(4), np.ones(4) / 2)

    def test_basis_orthogonal_to_steering_is_reported(self):
        # the projected covariance is fine, but the steering has no component
        # in the basis: Re(s^H x) = 0 fails the one distortionless rule
        basis = np.eye(3, dtype=complex)[:, 1:2]
        with pytest.raises(NumericalError, match="steering response is not positive"):
            bf.lr_mvdr_weights(basis, np.eye(3), np.eye(3, dtype=complex)[:, 0])


class TestEvdBasis:
    def test_isotropic_spectrum_orthonormal(self):
        basis = bf.evd_basis(np.eye(4), np.ones(4) / 2.0, 2, "pc")
        g = basis.conj().T @ basis
        np.testing.assert_allclose(g, np.eye(2), atol=1e-10)

    def test_pc_takes_dominant(self):
        basis = bf.evd_basis(np.diag([10.0, 1.0, 0.1]), np.ones(3) / np.sqrt(3), 2, "pc")
        sel = np.abs(basis)
        assert sel[0, 0] > 0.99 and sel[1, 1] > 0.99

    def test_csm_prefers_signal_aligned_eigenvector(self):
        r = np.diag([10.0, 1.0])
        s = np.array([0.0, 1.0])
        csm = bf.evd_basis(r, s, 1, "csm")
        pc = bf.evd_basis(r, s, 1, "pc")
        assert abs(csm[1, 0]) > 0.99  # metric 1/1 beats 0/10
        assert abs(pc[0, 0]) > 0.99

    def test_unknown_selection(self):
        with pytest.raises(ValueError):
            bf.evd_basis(np.eye(2), np.ones(2), 1, "best")

    def test_weight_does_not_depend_on_the_basis_of_a_repeated_eigenvalue(self, monkeypatch):
        # eigh may return any orthonormal basis of the threefold eigenvalue 1;
        # both selections, cutting through that eigenspace or not, must give
        # one weight whichever basis it returned
        rng = np.random.default_rng(50)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        values = np.array([5.0, 3.0, 1.0, 1.0, 1.0, 0.5])
        r = (q * values) @ q.conj().T
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rotated = q.copy()
        rotated[:, 2:5] = q[:, 2:5] @ u
        s = random_steering(rng, 6)

        def designed_in(basis, selection, rank):
            monkeypatch.setattr(linalg, "eigh_descending", lambda h: (values, basis))
            return bf.lr_mvdr_weights(bf.evd_basis(r, s, rank, selection), r, s)

        for selection, rank in (("pc", 3), ("pc", 4), ("csm", 2), ("csm", 4)):
            w = designed_in(q, selection, rank)
            w_rotated = designed_in(rotated, selection, rank)
            assert np.abs(w - w_rotated).max() <= 1e-12, (selection, rank)


class TestKrylovBasis:
    def test_first_column_is_normalized_steering(self):
        rng = np.random.default_rng(4)
        r = random_hpd(rng, 5)
        s = 2.0 * random_steering(rng, 5)
        basis = bf.krylov_basis(r, s, 1)
        np.testing.assert_allclose(basis[:, 0], s / np.linalg.norm(s), atol=1e-12)

    def test_identity_stagnates(self):
        basis = bf.krylov_basis(np.eye(4), np.ones(4) / 2.0, 3)
        assert basis.shape == (4, 1)

    def test_full_span_reproduces_mvdr(self):
        r = np.diag([1.0, 2.0, 3.0])
        s = np.ones(3) / np.sqrt(3)
        w = bf.lr_mvdr_weights(bf.krylov_basis(r, s, 3), r, s)
        np.testing.assert_allclose(w, bf.mvdr_weights(r, s), atol=1e-8)

    def test_span_matches_raw_chain(self, m256_sample):
        rng = np.random.default_rng(5)
        r = random_hpd(rng, 6)
        s = random_steering(rng, 6)
        basis = bf.krylov_basis(r, s, 4)
        raw = np.column_stack([np.linalg.matrix_power(r, k) @ s for k in range(4)])
        # projection of the raw chain onto the basis span leaves no residual
        proj = basis @ (basis.conj().T @ raw)
        assert np.linalg.norm(raw - proj) <= 1e-8 * np.linalg.norm(raw)
        # M = 256, D = 100 on a clutter-and-jammer spectrum: CGS2 keeps the
        # basis orthonormal, and the weight matches the column-by-column
        # modified Gram-Schmidt reference
        r_hat, s = m256_sample
        basis = bf.krylov_basis(r_hat, s, 100)
        assert basis.shape == (256, 100)
        assert np.abs(basis.conj().T @ basis - np.eye(100)).max() <= 1e-12
        reference = mgs_krylov(r_hat, s, 100)
        w = bf.lr_mvdr_weights(basis, r_hat, s)
        w_ref = bf.lr_mvdr_weights(reference, r_hat, s)
        assert np.linalg.norm(w - w_ref) <= 1e-9 * np.linalg.norm(w_ref)


    def test_stack_whose_chains_stagnate_apart_raises(self):
        # an eigenvector's chain stops at length 1 and a generic vector's does
        # not: each designs on its own, and the stack that holds both raises
        r = np.diag([1.0, 2.0, 3.0, 4.0])
        s = np.column_stack([np.eye(4)[0], np.full(4, 0.5)])
        assert bf.krylov_basis(r, s[:, 0], 3).shape == (4, 1)
        assert bf.krylov_basis(r, s[:, 1], 3).shape == (4, 3)
        assert bf.krylov_basis(r, np.column_stack([s[:, 1], -s[:, 1]]), 3).shape == (2, 4, 3)
        with pytest.raises(NumericalError, match="stagnate at different lengths"):
            bf.krylov_basis(r, s, 3)


class TestJio:
    def test_full_rank_matches_mvdr_quickly(self):
        rng = np.random.default_rng(6)
        for n in (4, 8, 16):
            r = random_hpd(rng, n)
            s = random_steering(rng, n)
            w = bf.jio_design(r, s, n, iterations=3)
            gap = abs(sinr_db(w, r, s) - sinr_db(bf.mvdr_weights(r, s), r, s))
            assert gap <= 1e-6

    def test_isotropic_matched_filter(self):
        s = random_steering(np.random.default_rng(7), 6)
        for rank in (1, 3, 6):
            w = bf.jio_design(np.eye(6), s, rank, iterations=2)
            coherence = abs(w.conj() @ s) / np.linalg.norm(w)
            assert coherence > 1.0 - 1e-9

    def test_unit_response(self, table_scene):
        cov, s = table_scene
        w = bf.jio_design(cov.matrix, s, 6, 5)
        assert abs(w.conj() @ s - 1.0) <= 1e-8

    def test_objective_nonincreasing_on_table_scene(self, table_scene):
        cov, s = table_scene
        rng = np.random.default_rng((42, 0))
        block = scene.draw_interference_block(cov, 400, rng)
        r_hat = scene.sample_covariance(block, 0.01)
        objectives = []
        for iterations in range(1, 11):
            w = bf.jio_design(r_hat, s, 6, iterations)
            objectives.append(float((w.conj() @ r_hat @ w).real))
        for earlier, later in zip(objectives, objectives[1:]):
            assert later <= earlier * (1 + 1e-10)
        # frozen trace for this seeded run (endpoints and a midpoint); the draws
        # use the unique Hermitian square root of r_total, so these hold on any
        # LAPACK build and BLAS thread count
        np.testing.assert_allclose(objectives[0], 36.4200740099, rtol=1e-9)
        np.testing.assert_allclose(objectives[4], 1.09287305468, rtol=1e-9)
        np.testing.assert_allclose(objectives[9], 1.05759104055, rtol=1e-9)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            bf.jio_design(np.eye(3), np.ones(3), 4, 1)

    def test_pool_matches_modified_gram_schmidt_at_size(self, m256_sample, monkeypatch):
        r_hat, s = m256_sample
        pools = []
        real = bf._orthonormal_from

        def recording(pool, rank):
            pools.append((list(pool), rank))
            return real(pool, rank)

        monkeypatch.setattr(bf, "_orthonormal_from", recording)
        w = bf.jio_design(r_hat, s, 20, 3)
        assert len(pools) == 3
        for pool, rank in pools:
            q = real(pool, rank)
            assert q.shape == (1, 256, 20)
            assert np.abs(q[0].conj().T @ q[0] - np.eye(20)).max() <= 1e-12
        monkeypatch.setattr(bf, "_orthonormal_from", mgs_rows)
        w_ref = bf.jio_design(r_hat, s, 20, 3)
        assert np.linalg.norm(w - w_ref) <= 1e-9 * np.linalg.norm(w_ref)

    def test_pool_rows_that_take_different_candidates_raise(self):
        # row 0 repeats its first candidate and row 1 does not: the rows would
        # part at the second candidate, so the stacked pool raises past rank 1
        rng = np.random.default_rng(9)
        a, b, c = (rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8)) for _ in range(3))
        b[0] = 2j * a[0]
        pool = [a, b, c] + list(np.eye(8, dtype=complex))
        np.testing.assert_allclose(bf._orthonormal_from(pool, 1), mgs_rows(pool, 1), atol=1e-12)
        for rank in (2, 3, 5):
            with pytest.raises(NumericalError, match="different candidates"):
                bf._orthonormal_from(pool, rank)
        # once both rows repeat it, both skip it in lockstep
        b[1] = -a[1]
        for rank in (2, 3, 5):
            np.testing.assert_allclose(bf._orthonormal_from(pool, rank), mgs_rows(pool, rank), atol=1e-12)

    def test_identity_pool_is_one_matrix(self):
        # the pool of M identity columns must share one M x M base; one base
        # per column held M of them, 33 MB at M = 128
        rng = np.random.default_rng(8)
        r, s = random_hpd(rng, 128), random_steering(rng, 128)
        tracemalloc.start()
        try:
            bf.jio_design(r, s, 8, iterations=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


def _hpd_solve_reference(mat, rhs):
    """HPD solve of ``mat`` x = ``rhs`` by Cholesky; an all-zero row, which
    must come with a zero right-hand side, solves to 0."""
    live = mat.any(axis=1)
    assert not rhs[~live].any()
    x = np.zeros_like(rhs)
    x[live] = linalg.cholesky_solve(linalg.cholesky(mat[np.ix_(live, live)]), rhs[live])
    return x


def _decimation_reference(m, rank, branches):
    """Branch by branch, floor(M d / D) + b clamped to M-1, for d = 0..D-1,
    up to the first branch whose indices repeat."""
    rows = []
    for b in range(branches):
        row = [min(m * d // rank + b, m - 1) for d in range(rank)]
        if len(set(row)) < rank:
            break
        rows.append(row)
    return np.array(rows, dtype=int)


def _jidf_block_reference(block, s, branches, interp_len, rank, iterations):
    """The branch scheme on the raw (M, K) training block: every branch in
    turn gathers its (D, I, K) snapshot windows and forms its statistics as
    time averages over them."""
    m, k = block.shape
    padded_s = np.concatenate([s, np.zeros(interp_len - 1, dtype=complex)])
    best = None
    for z in _decimation_reference(m, rank, branches):
        rows = z[:, None] + np.arange(interp_len)[None, :]  # (D, I)
        windows = block[np.minimum(rows, m - 1)]  # (D, I, K), zero past row M-1
        windows[rows >= m] = 0.0
        windows_h = windows.conj().reshape(rank, interp_len * k)
        steer_windows = padded_s[rows]
        v = np.zeros(interp_len, dtype=complex)
        v[0] = 1.0
        for _ in range(iterations):
            interpolated = v @ windows  # (D, K)
            r_w = interpolated @ interpolated.conj().T / k
            r_w = 0.5 * (r_w + r_w.conj().T)
            s_w = steer_windows @ v
            x = _hpd_solve_reference(r_w, s_w)
            w = x / (s_w.conj() @ x)
            combined = (w @ windows_h).reshape(interp_len, k)  # (I, K)
            r_v = combined @ combined.conj().T / k
            r_v = 0.5 * (r_v + r_v.conj().T)
            s_v = steer_windows.conj().T @ w
            x = _hpd_solve_reference(r_v, s_v)
            v = x / (s_v.conj() @ x)
        power = float(np.mean(np.abs(w.conj() @ (v @ windows)) ** 2))
        if best is None or power < best[0]:
            best = (power, v, z, w)
    _, v, z, w = best
    w_full = np.zeros(m, dtype=complex)
    for d, zi in enumerate(z):
        stop = min(zi + interp_len, m)
        w_full[zi:stop] += w[d] * v[: stop - zi].conj()
    return w_full


class TestJidf:
    def test_pattern_m4_d2(self):
        np.testing.assert_array_equal(bf.decimation_pattern(4, 2, 2), [[0, 2], [1, 3]])

    def test_pattern_m64_d6(self):
        np.testing.assert_array_equal(bf.decimation_pattern(64, 6, 1), [[0, 10, 21, 32, 42, 53]])

    def test_duplicate_after_clamping_rejected(self):
        # M=4, D=4: stride one, so already at the edge for the second branch
        assert len(bf.decimation_pattern(4, 4, 2)) == 1
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="branch"):
            bf.jidf_design(random_hpd(rng, 4), random_steering(rng, 4), 2, 1, 4, 1)

    def test_valid_branch_count(self):
        assert len(bf.decimation_pattern(4, 4, 8)) == 1
        assert len(bf.decimation_pattern(64, 6, 8)) == 8
        # stride 2: offsets 0..2 stay duplicate-free (branch 2 clamps 8 -> 7),
        # offset 3 collides
        assert len(bf.decimation_pattern(8, 4, 8)) == 3

    def test_first_row_is_the_exact_quotient(self):
        # a floating-point M/D * d floors one below floor(M d / D) at 880 of
        # these (M, D), e.g. M = 30, D = 22, d = 11 (14 against 15)
        for m in range(1, 300):
            for rank in range(1, m + 1):
                expect = [m * d // rank for d in range(rank)]
                assert bf.decimation_pattern(m, rank, 1)[0].tolist() == expect, (m, rank)

    def test_pattern_matches_per_branch_reference(self):
        for m in range(1, 71):
            for rank in range(1, m + 1):
                ref = _decimation_reference(m, rank, 12)
                for branches in (1, 2, 3, 5, 8, 12):
                    pattern = bf.decimation_pattern(m, rank, branches)
                    assert pattern.dtype == ref.dtype, (m, rank, branches)
                    np.testing.assert_array_equal(pattern, ref[:branches], err_msg=f"{(m, rank, branches)}")

    @pytest.mark.parametrize("sensors", (4, 8))
    @pytest.mark.parametrize("k_ratio", (0.5, 2.0))
    @pytest.mark.parametrize("loading", (0.0, 0.01))
    @pytest.mark.parametrize("branches,interp_len", ((1, 1), (3, 4), (8, 8)))
    def test_matches_block_reference(self, sensors, k_ratio, loading, branches, interp_len):
        # rank 2 at M = 16 and 6 at M = 64 leave all 8 branch patterns duplicate-free
        rank = {4: 2, 8: 6}[sensors]
        self._assert_matches_block_reference(sensors, k_ratio, loading, branches, interp_len, rank)

    @pytest.mark.parametrize("loading", (0.0, 0.01))
    def test_matches_block_reference_with_taps_past_the_array(self, loading):
        # on M = 9 with rank 3, branch 3's last interpolator tap (z_0 + 7 = 9)
        # has no in-array sample: its row, column and constraint entry are zero.
        # K = 2M: below M the 8 x 8 interpolator systems are singular or nearly so
        self._assert_matches_block_reference(3, 2.0, loading, 3, 8, 3)

    @staticmethod
    def _assert_matches_block_reference(sensors, k_ratio, loading, branches, interp_len, rank):
        # the design reads the loaded covariance of the (M, K) block X, which is
        # the plain sample covariance of sqrt((K+M)/K) [X, sqrt(K*loading) I]
        cfg = scene.RadarConfig(num_sensors=sensors, num_pulses=sensors)
        m = cfg.size
        cov = scene.total_covariance(cfg)
        s = scene.target_steering(cfg, TABLE_TGT)
        k = int(k_ratio * m)
        block = scene.draw_interference_block(cov, k, np.random.default_rng(m))
        w = bf.jidf_design(
            scene.CovarianceSet.estimate(block, loading), s, branches, interp_len, rank, 5
        )
        augmented = np.sqrt((k + m) / k) * np.hstack([block, np.sqrt(k * loading) * np.eye(m)])
        ref = _jidf_block_reference(augmented, s, branches, interp_len, rank, 5)
        assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_one_batched_solve_per_half_step(self, table_scene, monkeypatch):
        # all branches, and all columns of a steering stack, are solved in one
        # call per half-step, and no Cholesky factor is made
        cov, s = table_scene
        r_hat = scene.CovarianceSet.estimate(
            scene.draw_interference_block(cov, 100, np.random.default_rng(6)), 0.01
        )
        stacks = []
        real_solve = np.linalg.solve

        def recording_solve(a, b):
            stacks.append(a.shape)
            return real_solve(a, b)

        def no_factor(*args):
            raise AssertionError("jidf_design factored a matrix")

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        monkeypatch.setattr(linalg, "cholesky", no_factor)
        monkeypatch.setattr(linalg, "hpd_solve", no_factor)
        for steering, columns in ((s, 1), (np.column_stack([s * np.exp(0.3j * c) for c in range(3)]), 3)):
            stacks.clear()
            bf.jidf_design(r_hat, steering, 8, 8, 6, 5)
            assert stacks == [(columns, 8, 6, 6), (columns, 8, 8, 8)] * 5

    def test_degenerate_configuration_reduces_to_smi(self):
        cfg = scene.RadarConfig(
            num_sensors=3,
            num_pulses=2,
            cnr_db=20.0,
            jammers=(scene.JammerSpec(30.0, 20.0),),
            clutter_patches=45,
        )
        cov = scene.total_covariance(cfg)
        block = scene.draw_interference_block(cov, 40, np.random.default_rng(3))
        s = scene.target_steering(cfg, scene.TargetSpec(0.0, 50.0, 0.0))
        w = bf.jidf_design(
            scene.CovarianceSet.estimate(block, 0.0), s, branches=1, interp_len=1, rank=cfg.size,
            iterations=3,
        )
        smi = bf.mvdr_weights(scene.sample_covariance(block, 0.0), s)
        np.testing.assert_allclose(w, smi, atol=1e-8)

    def test_unit_response_and_branch_bookkeeping(self, table_scene):
        # the branch bank keeps the branch of least mean output power over the
        # block, and branches 1..B are a prefix of branches 1..B+1, so that
        # power cannot rise as branches are added
        cov, s = table_scene
        block = scene.draw_interference_block(cov, 200, np.random.default_rng(4))
        r_hat = scene.CovarianceSet.estimate(block, 0.0)
        powers = []
        for branches in range(1, 9):
            w = bf.jidf_design(r_hat, s, branches, 8, 6, 5)
            assert abs(w.conj() @ s - 1.0) <= 1e-8
            powers.append(float(np.mean(np.abs(w.conj() @ block) ** 2)))
        for fewer, more in zip(powers, powers[1:]):
            assert more <= fewer
        assert powers[-1] < powers[0]

    def test_composite_weight_matches_branch_output(self, table_scene):
        # the full-length weight is one branch's cascade: it lives on the
        # interpolator windows [z_d, z_d + I) of that branch's decimation
        # pattern, and on those windows it is the outer product of the
        # reduced weight and the conjugated interpolator
        cov, s = table_scene
        block = scene.draw_interference_block(cov, 150, np.random.default_rng(5))
        w = bf.jidf_design(scene.CovarianceSet.estimate(block, 0.0), s, 4, 8, 6, 3)
        matches = []
        for b in range(4):
            rows = _decimation_reference(64, 6, 4)[b][:, None] + np.arange(8)[None, :]
            outside = np.ones(64, dtype=bool)
            outside[rows.ravel()] = False
            if np.all(w[outside] == 0.0):
                matches.append(b)
                singular = np.linalg.svd(w[rows], compute_uv=False)
                assert singular[1] <= 1e-10 * singular[0]
        assert len(matches) == 1


class TestSparseMvdr:
    def test_zero_penalty_equals_mvdr(self):
        rng = np.random.default_rng(8)
        r = random_hpd(rng, 6)
        s = random_steering(rng, 6)
        np.testing.assert_allclose(
            bf.sa_mvdr_weights(r, s, 0.0, 0.1, 10), bf.mvdr_weights(r, s), atol=1e-14
        )

    def test_single_active_weight_fixed_point(self):
        s = np.eye(3)[:, 0]
        for lam in (0.1, 1.0, 10.0):
            w = bf.sa_mvdr_weights(np.eye(3), s, lam, epsilon=0.1, iterations=10)
            np.testing.assert_allclose(w, s, atol=1e-10)

    def test_symmetric_fixed_point(self):
        s = np.array([1.0, 1.0]) / np.sqrt(2)
        w = bf.sa_mvdr_weights(np.eye(2), s, 1.0, epsilon=0.1, iterations=50)
        np.testing.assert_allclose(w, s, atol=1e-10)

    def test_sparsity_nondecreasing_in_penalty(self, table_scene):
        cov, s = table_scene
        block = scene.draw_interference_block(cov, 300, np.random.default_rng(11))
        r_hat = scene.sample_covariance(block, 0.01)
        counts = []
        for lam in (0.0, 0.1, 1.0, 10.0):
            w = bf.sa_mvdr_weights(r_hat, s, lam, epsilon=0.1, iterations=30)
            scale = np.abs(w).max()
            counts.append(int((np.abs(w) < 1e-3 * scale).sum()))
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_penalized_objective_nonincreasing(self):
        # descent holds for the reweighting's exact potential
        # 2*(|w| - eps*ln(1 + |w|/eps)), which approaches the plain l1 as
        # eps -> 0; the raw l1 objective itself can tick up by O(eps)
        rng = np.random.default_rng(12)
        eps = 0.1

        def objective(w, r, lam):
            mag = np.abs(w)
            penalty = 2.0 * (mag - eps * np.log1p(mag / eps)).sum()
            return (w.conj() @ r @ w).real + lam * penalty

        for trial in range(8):
            n = 8
            r = random_hpd(rng, n, floor=1.0)
            s = random_steering(rng, n)
            lam = float(rng.uniform(0.1, 2.0))
            w = bf.mvdr_weights(r, s)
            previous = objective(w, r, lam)
            for _ in range(10):
                reweight = 1.0 / (np.abs(w) + eps)
                x = np.linalg.solve(r + lam * reweight * np.eye(n), s)
                w = x / (s.conj() @ x)
                current = objective(w, r, lam)
                assert current <= previous + 1e-8
                previous = current

    def test_unit_response_every_iterate(self):
        rng = np.random.default_rng(13)
        r = random_hpd(rng, 5)
        s = random_steering(rng, 5)
        for iterations in (1, 3, 7):
            w = bf.sa_mvdr_weights(r, s, 2.0, epsilon=0.1, iterations=iterations)
            assert abs(w.conj() @ s - 1.0) <= 1e-8


class TestKnowledgeAided:
    def test_prior_zero_perturbation_exact(self):
        prior = bf.ka_prior(TABLE_CFG, bf.PriorPerturbation(0.0, 0.0))
        expect = scene.clutter_covariance(TABLE_CFG) + scene.noise_covariance(TABLE_CFG)
        np.testing.assert_allclose(prior.matrix, expect, atol=1e-10)

    def test_default_perturbation_changes_matrix(self):
        prior = bf.ka_prior(TABLE_CFG)
        expect = scene.clutter_covariance(TABLE_CFG) + scene.noise_covariance(TABLE_CFG)
        assert np.linalg.norm(prior.matrix - expect) > 0

    def test_prior_mismatch_regression(self):
        prior = bf.ka_prior(TABLE_CFG)
        cov = scene.total_covariance(TABLE_CFG)
        rel = np.linalg.norm(prior.matrix - cov.matrix) / np.linalg.norm(cov.matrix)
        assert abs(rel - 0.8845) < 0.0005

    @staticmethod
    def _blend_reference(block, loading, prior, s):
        """The blend weight, the blend and the MVDR weight on it, written out
        from the formula, one snapshot at a time."""
        m, k = block.shape
        r_hat = block @ block.conj().T / k + loading * np.eye(m)
        rho = sum(np.linalg.norm(block[:, i]) ** 4 for i in range(k)) / k**2 - np.linalg.norm(r_hat) ** 2 / k
        lam = min(max(rho / np.linalg.norm(prior - r_hat) ** 2, 0.0), 1.0)
        blend = lam * prior + (1.0 - lam) * r_hat
        x = np.linalg.solve(blend, s)
        return lam, blend, x / (s.conj() @ x)

    @pytest.mark.parametrize("k", (10, 200))
    def test_blend_matches_reference(self, table_scene, k):
        # the weight inherits the blend's condition number (about 2.5e5 here):
        # blends that differ in the last bit give weights about 1e-11 apart
        cov, s = table_scene
        prior = bf.ka_prior(TABLE_CFG)
        block = scene.draw_interference_block(cov, k, np.random.default_rng(14))
        r_hat = scene.CovarianceSet.estimate(block, 0.01)
        lam, blend = bf.ka_blend(r_hat, prior)
        ref_lam, ref_blend, ref_w = self._blend_reference(block, 0.01, prior.matrix, s)
        assert 0.0 < lam < 1.0
        assert abs(lam - ref_lam) <= 1e-12
        assert np.abs(blend - ref_blend).max() <= 1e-12 * np.abs(ref_blend).max()
        w = bf.ka_mvdr_weights(r_hat, prior, s)
        tolerance = 1e-12 * np.linalg.cond(ref_blend)
        assert np.linalg.norm(w - ref_w) <= tolerance * np.linalg.norm(ref_w)

    def test_prior_equal_to_the_estimate_is_smi(self, table_scene):
        cov, s = table_scene
        block = scene.draw_interference_block(cov, 200, np.random.default_rng(15))
        r_hat = scene.CovarianceSet.estimate(block, 0.01)
        prior = scene.CovarianceSet(r_hat.matrix.copy())
        assert bf.ka_blend(r_hat, prior)[0] == 0.0
        np.testing.assert_allclose(bf.ka_mvdr_weights(r_hat, prior, s), bf.mvdr_weights(r_hat, s), rtol=1e-12)

    def test_blend_weight_falls_with_k(self, table_scene):
        # on one block of the standard scene, at the default snapshot grid
        cov, _ = table_scene
        prior = bf.ka_prior(TABLE_CFG)
        block = scene.draw_interference_block(cov, 800, np.random.default_rng(16))
        grid = (10, 16, 26, 43, 70, 114, 186, 302, 492, 800)
        lams = [bf.ka_blend(scene.CovarianceSet.estimate(block[:, :k], 0.01), prior)[0] for k in grid]
        assert all(0.0 <= lam <= 1.0 for lam in lams), lams
        assert all(b < a for a, b in zip(lams, lams[1:])), lams

    def test_bare_array_is_rejected(self, table_scene):
        cov, s = table_scene
        with pytest.raises(ValueError, match="training block"):
            bf.ka_mvdr_weights(cov.matrix, bf.ka_prior(TABLE_CFG), s)

    def test_mean_sinr_above_smi_at_small_k(self):
        # 10 runs on the standard scene, K <= 26 < 2M: where the sample
        # covariance alone is far from steady state, the prior carries the design
        spec = ExperimentSpec(algorithms=("smi", "ka-mvdr"), k_max=26, k_grid=(10, 16, 26), runs=10)
        result = ev.run_sinr_vs_snapshots(TABLE_CFG, TABLE_TGT, spec)
        for smi, ka in zip(result.curves["smi"], result.curves["ka-mvdr"]):
            assert ka.value > smi.value, (smi.x, smi.value, ka.value)


class TestCrossDesignProperties:
    def test_distortionless_constraint_everywhere(self, table_scene):
        cov, s = table_scene
        rng = np.random.default_rng(20)
        block = scene.draw_interference_block(cov, 300, rng)
        r_hat = scene.CovarianceSet.estimate(block, 0.01)
        prior = bf.ka_prior(TABLE_CFG)
        designs = {
            "mvdr": bf.mvdr_weights(r_hat, s),
            "lr-evd": bf.lr_mvdr_weights(bf.evd_basis(r_hat, s, 30, "csm"), r_hat, s),
            "lr-krylov": bf.lr_mvdr_weights(bf.krylov_basis(r_hat, s, 12), r_hat, s),
            "lr-jio": bf.jio_design(r_hat, s, 6, 5),
            "lr-jidf": bf.jidf_design(scene.CovarianceSet.estimate(block, 0.0), s, 8, 8, 6, 5),
            "sa-mvdr": bf.sa_mvdr_weights(r_hat, s, 1.0, 0.1, 10),
            "ka-mvdr": bf.ka_mvdr_weights(r_hat, prior, s),
        }
        for name, w in designs.items():
            assert abs(w.conj() @ s - 1.0) <= 1e-8, name

    def test_no_design_beats_clairvoyant_optimum(self, table_scene):
        cov, s = table_scene
        rng = np.random.default_rng(21)
        bound = sinr_linear(bf.mvdr_weights(cov.matrix, s), cov.matrix, s)
        block = scene.draw_interference_block(cov, 200, rng)
        r_hat = scene.CovarianceSet.estimate(block, 0.01)
        prior = bf.ka_prior(TABLE_CFG)
        candidates = {
            "mvdr": bf.mvdr_weights(r_hat, s),
            "lr-krylov": bf.lr_mvdr_weights(bf.krylov_basis(r_hat, s, 20), r_hat, s),
            "lr-jio": bf.jio_design(r_hat, s, 6, 5),
            "lr-jidf": bf.jidf_design(scene.CovarianceSet.estimate(block, 0.0), s, 8, 8, 6, 5),
            "sa-mvdr": bf.sa_mvdr_weights(r_hat, s, 0.5, 0.1, 10),
            "ka-mvdr": bf.ka_mvdr_weights(r_hat, prior, s),
        }
        for name, w in candidates.items():
            assert sinr_linear(w, cov.matrix, s) <= bound * (1 + 1e-9), name

    def test_csm_dominates_pc_on_random_instances(self):
        rng = np.random.default_rng(22)
        for trial in range(100):
            n = int(rng.integers(3, 10))
            r = random_hpd(rng, n, floor=0.5)
            s = random_steering(rng, n)
            rank = int(rng.integers(1, n))
            csm = sinr_linear(bf.lr_mvdr_weights(bf.evd_basis(r, s, rank, "csm"), r, s), r, s)
            try:
                pc = sinr_linear(bf.lr_mvdr_weights(bf.evd_basis(r, s, rank, "pc"), r, s), r, s)
            except NumericalError:
                continue  # steering orthogonal to the dominant subspace
            assert 10 * np.log10(csm) >= 10 * np.log10(pc) - 1e-9

    def test_subspace_equivalences_at_full_rank(self):
        rng = np.random.default_rng(23)
        for n in (4, 9, 16):
            r = random_hpd(rng, n)
            s = random_steering(rng, n)
            full = sinr_db(bf.mvdr_weights(r, s), r, s)
            evd = sinr_db(bf.lr_mvdr_weights(bf.evd_basis(r, s, n, "pc"), r, s), r, s)
            kry_basis = bf.krylov_basis(r, s, n)
            jio = sinr_db(bf.jio_design(r, s, n, 5), r, s)
            assert abs(evd - full) <= 1e-6
            assert abs(jio - full) <= 1e-6
            if kry_basis.shape[1] == n:
                kry = sinr_db(bf.lr_mvdr_weights(kry_basis, r, s), r, s)
                assert abs(kry - full) <= 1e-6


BOUNDARY_DESIGNS = {
    "mvdr_weights": lambda r, s: bf.mvdr_weights(r, s),
    "sa_mvdr_weights": lambda r, s: bf.sa_mvdr_weights(r, s, 1.0, 0.1, 10),
    "ka_mvdr_weights": lambda r, s: bf.ka_mvdr_weights(r, scene.CovarianceSet(np.eye(s.size)), s),
    "jio_design": lambda r, s: bf.jio_design(r, s, 2, 2),
    "evd_basis": lambda r, s: bf.evd_basis(r, s, 2, "pc"),
    "krylov_basis": lambda r, s: bf.krylov_basis(r, s, 2),
}


class TestValidationAtTheBoundary:
    @pytest.mark.parametrize("name", BOUNDARY_DESIGNS)
    def test_bad_covariance_is_rejected_on_entry(self, name):
        rng = np.random.default_rng(40)
        r, s = random_hpd(rng, 4), random_steering(rng, 4)
        skewed = r.copy()
        skewed[0, 1] += 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            BOUNDARY_DESIGNS[name](skewed, s)
        poisoned = r.copy()
        poisoned[2, 2] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            BOUNDARY_DESIGNS[name](poisoned, s)

    def test_sa_mvdr_validates_once(self, monkeypatch):
        # the start and every reweighting pass factor a matrix, and share one check
        checked, factored = [], []
        real_check, real_cholesky, real_solve = linalg.require_hermitian, linalg.cholesky, linalg.hpd_solve

        def counting_check(a, name="matrix"):
            checked.append(name)
            return real_check(a, name)

        def counting_cholesky(h):
            factored.append(h.shape)
            return real_cholesky(h)

        def counting_solve(h, b):
            factored.append(h.shape)
            return real_solve(h, b)

        monkeypatch.setattr(linalg, "require_hermitian", counting_check)
        monkeypatch.setattr(linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(linalg, "hpd_solve", counting_solve)
        rng = np.random.default_rng(41)
        bf.sa_mvdr_weights(random_hpd(rng, 16, floor=1.0), random_steering(rng, 16), 1.0, 0.1, 10)
        assert len(factored) > 2  # the start and at least two reweighting passes
        assert len(checked) == 1
