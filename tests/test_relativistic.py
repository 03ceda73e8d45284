import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmlab import relativistic
from povmlab.operators import (DEFAULT_TOL, EFFECT, PROJECTION, adjoint,
                               is_effect, opnorm, shift_covariance)
from povmlab.regions import RegionSet, grid_steps
from povmlab.relativistic import (CircleGrid, HardyModel,
                                  _factored_isometry_defect, _sampled_apply,
                                  boundary_isometry_check, hardy_project,
                                  poisson_apply, poisson_kernel,
                                  poisson_kernel_error,
                                  rel_covariance_residual, rel_effect,
                                  rel_effect_apply, tau_unitarity_residual,
                                  thermal_model)

rng = np.random.default_rng(53)


def exact_shift(B, shift, h):
    """Whether a shift covariance identity is exact: the shift a multiple
    of the grid step h, and B + shift aligned to the grid."""
    C = B.shifted(shift)
    try:
        for x in [shift] + [end - C.base for cell in C.cells for end in cell]:
            grid_steps(x, h, "off the grid")
    except ValueError:
        return False
    return True


def dft_matrix(grid):
    """Dense reference: the unitary DFT W[k, j] = e^{-i xi_k x_j} / sqrt(n)."""
    return np.exp(-1j * np.outer(grid.xi, grid.x)) / np.sqrt(grid.n)


def dense_multiplier(grid, symbol):
    """Dense reference: W* diag(symbol) W."""
    W = dft_matrix(grid)
    return adjoint(W) @ (np.asarray(symbol)[:, None] * W)


def dense_rel_effect(grid, indicator):
    """Dense reference: V* diag(indicator) V with V the Hardy columns of W*."""
    V = adjoint(dft_matrix(grid))[:, : grid.n // 2]
    return adjoint(V) @ (indicator[:, None] * V)


def band_indicator(n, start, length):
    """Samples of the cells start .. start + length - 1, wrapped mod n."""
    return ((np.arange(n) - start) % n < length).astype(float)


# n/2 odd (10, 34) and even (16)
SIZES = (10, 16, 34)


def test_fft_is_unitary():
    grid = CircleGrid(32, 5.0)
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert abs(np.linalg.norm(grid.fft(f)) - np.linalg.norm(f)) < 1e-12
    assert np.linalg.norm(grid.ifft(grid.fft(f)) - f) < 1e-12
    W = dft_matrix(grid)
    assert opnorm(W @ adjoint(W) - np.eye(32)) < 1e-12


def test_multiplier_matrix_matches_dense_reference():
    for n in SIZES:
        grid = CircleGrid(n, 3.0)
        sym = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert opnorm(grid.multiplier_matrix(sym)
                      - dense_multiplier(grid, sym)) < 1e-12
        assert opnorm(grid.multiplier_matrix(grid.xi >= 0)
                      - dense_multiplier(grid, grid.xi >= 0)) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from(SIZES), data=st.data())
def test_rel_effect_matches_dense_reference(n, data):
    start = data.draw(st.integers(0, n - 1), label="start")
    length = data.draw(st.integers(1, n), label="length")
    grid = CircleGrid(n, 5.0)
    B = grid.region([(start * grid.h, (start + length) * grid.h)])
    dense = dense_rel_effect(grid, band_indicator(n, start, length))
    assert opnorm(rel_effect(HardyModel(grid), B).dense() - dense) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from(SIZES), data=st.data())
def test_aligned_partition_sums_to_identity(n, data):
    cuts = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                    max_size=6), label="cuts"))
    grid = CircleGrid(n, 5.0)
    model = HardyModel(grid)
    ends = cuts[1:] + [cuts[0] + n]
    total = sum(rel_effect(model, grid.region([(a * grid.h, b * grid.h)])).dense()
                for a, b in zip(cuts, ends))
    assert opnorm(total - np.eye(model.dim)) < 1e-12


def test_multiplier_matrix_matches_apply():
    grid = CircleGrid(16, 3.0)
    sym = np.exp(-np.abs(grid.xi))
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    M = grid.multiplier_matrix(sym)
    assert np.linalg.norm(M @ f - grid.multiplier_apply(sym, f)) < 1e-12


def test_hardy_projection_idempotent():
    grid = CircleGrid(32, 6.0)
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    P1 = hardy_project(grid, f)
    assert np.linalg.norm(hardy_project(grid, P1) - P1) < 1e-12
    Pm = grid.multiplier_matrix(grid.xi >= 0)
    assert np.linalg.norm(Pm @ f - P1) < 1e-12
    assert is_effect(Pm) == PROJECTION


def test_poisson_semigroup_law():
    grid = CircleGrid(64, 10.0)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    lhs = poisson_apply(grid, 0.3, poisson_apply(grid, 0.5, f))
    rhs = poisson_apply(grid, 0.8, f)
    assert np.linalg.norm(lhs - rhs) < 1e-13
    assert np.linalg.norm(poisson_apply(grid, 0.0, f) - f) < 1e-14
    with pytest.raises(ValueError):
        poisson_apply(grid, -0.1, f)


def test_poisson_single_mode_scaling():
    grid = CircleGrid(32, 8.0)
    k = 3
    f = np.exp(1j * grid.xi[k] * grid.x)
    out = poisson_apply(grid, 0.7, f)
    assert np.linalg.norm(out - np.exp(-0.7 * abs(grid.xi[k])) * f) < 1e-12


def test_poisson_kernel_convolves():
    grid = CircleGrid(64, 12.0)
    f = rng.standard_normal(64)
    p = poisson_kernel(grid, 0.4)
    # Riemann-sum circular convolution h * sum_k p_{j-k} f_k
    direct = np.array([grid.h * sum(p[(j - k) % 64] * f[k] for k in range(64))
                       for j in range(64)])
    assert np.linalg.norm(direct - poisson_apply(grid, 0.4, f)) < 1e-10


def test_poisson_kernel_error_refines():
    errs = [poisson_kernel_error(n, np.pi * n / 16)
            for n in (128, 256, 512, 1024)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_boundary_isometry():
    grid = CircleGrid(128, 8 * np.pi)
    model = HardyModel(grid)
    coef = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    f = model.synthesize(coef)
    rep = boundary_isometry_check(model, f, np.logspace(-3, 1, 15))
    assert rep["boundary_residual"] < 1e-12
    assert rep["monotonicity_violations"] == 0
    assert rep["sup_at_smallest"]
    assert rep["convergence"][0] < rep["convergence"][-1]


def test_boundary_check_is_relative_to_the_norm_of_f():
    # the norms of P(y) f scale with f, and so does their rounding: the
    # residual and the slack of the monotonicity tests are relative to
    # max(1, ||f||), so a unit Hardy vector scaled by 1e8 reads about what
    # it reads at norm 1, where an absolute residual would read ~1e-8
    grid = CircleGrid(256, 8 * np.pi)
    model = HardyModel(grid)
    coef = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    f = model.synthesize(coef / np.linalg.norm(coef))
    ys = np.logspace(-3, 1, 20)
    at_one = boundary_isometry_check(model, f, ys)
    for scale in (1e4, 1e8):
        rep = boundary_isometry_check(model, scale * f, ys)
        assert rep["boundary_residual"] < 1e-14
        assert rep["boundary_residual"] < 10 * at_one["boundary_residual"]
        assert rep["monotonicity_violations"] == 0 and rep["sup_at_smallest"]


def test_boundary_residual_sees_a_wrong_semigroup(monkeypatch):
    # P(y) applied as e^{-2y|xi|}: the sweep's norms leave their closed form
    grid = CircleGrid(256, 8 * np.pi)
    model = HardyModel(grid)
    coef = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    f = model.synthesize(coef)
    ys = np.logspace(-3, 1, 20)
    assert boundary_isometry_check(model, f, ys)["boundary_residual"] < 1e-12
    apply = relativistic.poisson_apply
    monkeypatch.setattr(relativistic, "poisson_apply",
                        lambda grid, y, g: apply(grid, 2 * y, g))
    assert boundary_isometry_check(model, f, ys)["boundary_residual"] > 0.1


def test_boundary_check_rejects_non_hardy():
    grid = CircleGrid(32, 5.0)
    model = HardyModel(grid)
    f = np.exp(1j * grid.xi[-1] * grid.x)        # negative frequency
    with pytest.raises(ValueError):
        boundary_isometry_check(model, f, [0.1, 1.0])


def test_rel_effects_form_povm():
    grid = CircleGrid(64, 4 * np.pi)
    model = HardyModel(grid)
    from povmlab.regions import RegionSet, equal_partition
    parts = equal_partition(RegionSet.line([], length=grid.L), 4)
    effects = [rel_effect(model, B).dense() for B in parts]
    assert opnorm(sum(effects) - np.eye(model.dim)) < 1e-12
    assert all(is_effect(E, 1e-10) in (EFFECT, PROJECTION) for E in effects)


@pytest.mark.parametrize("n", [8, 12, 64, 256, 384])
def test_synthesis_matches_dense_hardy_exponentials(n):
    # reference: the n x n/2 matrix of columns e^{i xi_k x_j} / sqrt(n)
    model = HardyModel(CircleGrid(n, 8 * np.pi))
    modes = (np.exp(1j * np.outer(model.grid.x, model.xi))
             / np.sqrt(model.grid.n))
    coef = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    assert np.allclose(model.synthesize(coef), modes @ coef,
                       rtol=0, atol=1e-12 * np.linalg.norm(coef))


@pytest.mark.parametrize("n", [8, 12, 64, 256])
def test_effect_action_matches_dense_effect(n):
    grid = CircleGrid(n, 8 * np.pi)
    model = HardyModel(grid)
    aligned = [grid.region([(0.0, grid.L / 4)]),
               grid.region([(3 * grid.h, grid.L - grid.h)]),
               grid.region([(grid.L - 2 * grid.h, grid.L + 3 * grid.h)])]
    for B in aligned:
        shifted = B.shifted(2.5 * grid.h)
        for _ in range(3):
            v = (rng.standard_normal(model.dim)
                 + 1j * rng.standard_normal(model.dim))
            scale = np.linalg.norm(v)
            assert np.allclose(rel_effect_apply(model, B, v),
                               rel_effect(model, B).dense() @ v,
                               rtol=0, atol=1e-12 * scale)
            sampled = thermal_model(model).effects(shifted)
            assert np.allclose(_sampled_apply(model, shifted, v),
                               sampled.dense() @ v,
                               rtol=0, atol=1e-12 * scale)
        with pytest.raises(ValueError, match="not aligned"):
            rel_effect_apply(model, shifted, v)


def test_effect_action_rejects_what_rel_effect_rejects():
    grid = CircleGrid(32, 8.0)
    model = HardyModel(grid)
    v = np.ones(model.dim)
    for B, msg in ((grid.region([(0.0, 0.3 * grid.h)]), "not aligned"),
                   (RegionSet.line([(0.0, 1.0)], length=9.0), "grid's circle"),
                   (RegionSet.circle([(0.0, 1.0)]), "grid's circle")):
        for build in (lambda: rel_effect(model, B),
                      lambda: rel_effect_apply(model, B, v)):
            with pytest.raises(ValueError, match=msg):
                build()
    B = grid.region([(0.0, grid.L / 4)])
    for bad in (np.ones(grid.n), np.ones(model.dim - 1),
                np.ones((model.dim, 1))):
        for apply in (lambda: rel_effect_apply(model, B, bad),
                      lambda: model.synthesize(bad)):
            with pytest.raises(ValueError, match="Hardy coefficient vector"):
                apply()


def test_rel_effect_rejects_misaligned():
    grid = CircleGrid(32, 8.0)
    model = HardyModel(grid)
    with pytest.raises(ValueError):
        rel_effect(model, grid.region([(0.0, 0.3 * grid.h)]))


def test_covariance_exact_on_aligned_shift():
    grid = CircleGrid(256, 8 * np.pi)
    model = HardyModel(grid)
    B = grid.region([(0.0, grid.L / 4)])
    assert exact_shift(B, 8 * grid.h, grid.h)
    value, _ = rel_covariance_residual(model, 1.0, 8 * grid.h, B).norm(
        DEFAULT_TOL)
    assert value < 1e-10


def test_covariance_at_a_large_shift_is_certified():
    # a shift of 100 circumferences rounds the angles s xi by ~|s| xi eps,
    # beyond the geometric check's allowance; the phase is L-periodic in s
    # and is formed from s reduced modulo L, the same translation (the
    # region's ends still carry the rounding of s, which shows in the
    # residual)
    grid = CircleGrid(256, 8 * np.pi)
    model = HardyModel(grid)
    B = grid.region([(0.0, grid.L / 4)])
    s = 8 * grid.h + 100 * grid.L
    unreduced = shift_covariance(np.exp(-1j * s * model.xi)[None],
                                 thermal_model(model).effects, [B],
                                 [B.shifted(s)])
    assert unreduced.bound[0] == np.inf
    assert exact_shift(B, s, grid.h)
    value, certified = rel_covariance_residual(model, 1.0, s, B).norm(1e-11)
    assert certified and value <= 1e-11


def test_covariance_interpolation_path_reports():
    grid = CircleGrid(64, 8.0)
    model = HardyModel(grid)
    B = grid.region([(0.0, grid.L / 4)])
    assert not exact_shift(B, 0.37, grid.h)
    value, _ = rel_covariance_residual(model, 1.0, 0.37, B).norm(DEFAULT_TOL)
    assert value > 1e-6                          # honest nonzero error


def rand_factor(n, r):
    return rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))


def dense_isometry_defect(u, w, A, B):
    """Reference for dense A and B: |<U A U*, U B U*>_W - <A, B>_W| for the
    Fourier multipliers U and W with symbols u and w, <A, B>_W = tr(B* A W).

    FFTs along the columns and rows take A and B to F A F* for the unitary
    DFT F, in O(n^2 log n); there U, U* and W act diagonally, and the
    trace of a product is the entrywise inner product.
    """
    Ah, Bh = (np.fft.ifft(np.fft.fft(X, axis=0), axis=1) for X in (A, B))
    uu = np.outer(u, np.conj(u))
    lhs = np.vdot(uu * Bh, uu * Ah * w)
    rhs = np.vdot(Bh, Ah * w)
    return float(abs(lhs - rhs))


def test_tau_unitarity():
    grid = CircleGrid(64, 6.0)
    A = (rand_factor(64, 4) / 64 ** 0.25, rand_factor(64, 4) / 8)
    B = (rand_factor(64, 4) / 64 ** 0.25, rand_factor(64, 4) / 8)
    assert tau_unitarity_residual(grid, 1.0, 0.7, A, B) < 1e-12


def test_tau_unitarity_rejects_inputs_that_are_not_factor_pairs():
    grid = CircleGrid(16, 6.0)
    f = rand_factor(16, 2)
    with pytest.raises(ValueError, match="factor pairs"):
        tau_unitarity_residual(grid, 1.0, 0.7, f @ adjoint(f), (f, f))
    for bad in (rand_factor(16, 3), rand_factor(8, 2), f[:, 0]):
        with pytest.raises(ValueError, match="arrays of one shape"):
            tau_unitarity_residual(grid, 1.0, 0.7, (f, bad), (f, f))


@pytest.mark.parametrize("n", [8, 10, 16, 34])
def test_tau_unitarity_fft_matches_dense_multiplier_products(n):
    # references on the dense operators A = a_L a_R* and B = b_L b_R*: U,
    # U* and W formed as n x n circulants and multiplied out, and the
    # Fourier-frame formula.  A complex t makes U non-unitary, so the
    # defect is far from rounding and the formulas must agree on its value;
    # tau_unitarity_residual takes a real t, so the factored defect of such
    # a U is read from _factored_isometry_defect, which the residual calls
    grid = CircleGrid(n, 6.0)
    xi = np.abs(grid.xi)
    for r in (1, 4):
        a_L, a_R, b_L, b_R = (rand_factor(n, r) for _ in range(4))
        A, B = a_L @ adjoint(a_R), b_L @ adjoint(b_R)
        for beta, t in [(1.0, 0.7), (0.3, -2.0), (1.0, 0.7 + 0.05j),
                        (2.0, 1.3 - 0.1j)]:
            u, w = np.exp(1j * t * xi), np.exp(-beta * xi)
            W = grid.multiplier_matrix(w)
            U = grid.multiplier_matrix(u)
            UA = U @ A @ adjoint(U)
            UB = U @ B @ adjoint(U)
            dense = abs(np.trace(adjoint(UB) @ UA @ W)
                        - np.trace(adjoint(B) @ A @ W))
            fft = _factored_isometry_defect(grid, u, w, (a_L, a_R),
                                            (b_L, b_R))
            if np.isreal(t):
                assert fft == tau_unitarity_residual(
                    grid, beta, t, (a_L, a_R), (b_L, b_R))
                assert fft < 1e-12
                assert dense < 1e-12
            else:
                assert fft > 1e-3
                assert fft == pytest.approx(dense, rel=1e-12)
                assert fft == pytest.approx(dense_isometry_defect(u, w, A, B),
                                            rel=1e-12)


def per_y_poisson(grid, y, f):
    """Reference: e^{-y|D|} f for one y, as the Fourier multiplier."""
    return grid.multiplier_apply(np.exp(-y * np.abs(grid.xi)), f)


def per_y_boundary_sweep(model, f, ys):
    """Reference: the sweep as one multiplier per y, with the vector norms
    of each column; returns (norms, gaps, ||P(0) f||)."""
    ys = sorted(float(y) for y in ys)
    Pf = [per_y_poisson(model.grid, y, f) for y in ys]
    return ([float(np.linalg.norm(P)) for P in Pf],
            [float(np.linalg.norm(P - f)) for P in Pf],
            float(np.linalg.norm(per_y_poisson(model.grid, 0.0, f))))


@pytest.mark.parametrize("n", [16, 256, 2048])
def test_vector_y_sweep_equals_the_per_y_calls(n):
    grid = CircleGrid(n, 8 * np.pi)
    model = HardyModel(grid)
    draw = np.random.default_rng(n)
    f = model.synthesize(draw.standard_normal(model.dim)
                         + 1j * draw.standard_normal(model.dim))
    ys = np.logspace(-3, 1, 20)[::-1]
    # each column is the same multiplier on the same FFT, and the batched
    # inverse FFT rounds each column as the single one does
    P = poisson_apply(grid, np.concatenate([[0.0], ys]), f)
    assert P.shape == (n, 21)
    assert np.array_equal(P[:, 1:], np.stack(
        [per_y_poisson(grid, y, f) for y in ys], axis=1))
    assert np.array_equal(poisson_apply(grid, ys[3], f),
                          per_y_poisson(grid, ys[3], f))
    # the column norms sum the squares in another order than the vector
    # norm: a rounding bound of n eps ||f||
    out = boundary_isometry_check(model, f, ys)
    norms, gaps, at_zero = per_y_boundary_sweep(model, f, ys)
    bound = n * np.finfo(float).eps * np.linalg.norm(f)
    assert out["ys"] == sorted(ys.tolist())
    assert np.abs(np.subtract(out["norms"], norms)).max() <= bound
    assert np.abs(np.subtract(out["convergence"], gaps)).max() <= bound
    exact = np.sqrt(np.exp(-2 * np.outer([0.0] + out["ys"], np.abs(grid.xi)))
                    @ np.abs(grid.fft(f)) ** 2)
    # the residual is relative to max(1, ||f||)
    scale = max(1.0, float(np.linalg.norm(f)))
    reference = np.abs([at_zero] + norms - exact).max() / scale
    assert abs(out["boundary_residual"] - reference) <= bound / scale
    assert out["boundary_residual"] < 1e-14
    with pytest.raises(ValueError, match="nonnegative"):
        poisson_apply(grid, np.array([0.5, -1e-3]), f)


@pytest.mark.parametrize("g_shape", [(16, 1), (16, 3), (8,), ()])
@pytest.mark.parametrize("y", [0.5, [0.0, 0.5]])
def test_poisson_apply_rejects_what_is_not_a_grid_vector(g_shape, y):
    # an (n, 1) column with a vector y would broadcast to (n, n, Y)
    grid = CircleGrid(16, 8.0)
    with pytest.raises(ValueError, match="grid vector of shape \\(16,\\)"):
        poisson_apply(grid, y, np.ones(g_shape))
