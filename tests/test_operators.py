import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmlab.operators import (DEFAULT_TOL, EFFECT, NOT_EFFECT, PROJECTION,
                               ToeplitzBlock, adjoint, circulant, funcalc,
                               herm_spectrum, imag_power, is_effect,
                               is_hermitian, opnorm, sqrtm_psd)

rng = np.random.default_rng(11)


def rand_c(d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_opnorm_matches_svd():
    A = rand_c(7)
    assert abs(opnorm(A) - np.linalg.svd(A, compute_uv=False)[0]) < 1e-12


def test_is_hermitian():
    A = rand_c(5)
    H = A + adjoint(A)
    assert is_hermitian(H)
    assert not is_hermitian(H + 1e-6 * 1j * np.eye(5))


def test_herm_spectrum_reconstructs():
    A = rand_c(6)
    H = A + adjoint(A)
    lam, V = herm_spectrum(H)
    assert opnorm((V * lam) @ adjoint(V) - H) < 1e-12


def test_funcalc_exponential():
    A = rand_c(5)
    H = (A + adjoint(A)) / 2
    E = funcalc(H, lambda x: np.exp(1j * x))
    # unitary output for a real spectrum
    assert opnorm(E @ adjoint(E) - np.eye(5)) < 1e-12


def test_funcalc_domain_error_names_eigenvalue():
    H = np.diag([1.0, -2.0]).astype(complex)
    with pytest.raises(ValueError):
        funcalc(H, np.sqrt)


def test_effect_classification():
    assert is_effect(np.eye(3)) == PROJECTION
    assert is_effect(0.5 * np.eye(3)) == EFFECT
    assert is_effect(2.0 * np.eye(3)) == NOT_EFFECT
    assert is_effect(np.diag([1.0, -0.1])) == NOT_EFFECT


def test_sqrtm_psd_squares_back():
    A = rand_c(6)
    P = A @ adjoint(A)
    R = sqrtm_psd(P)
    assert opnorm(R @ R - P) < 1e-10 * opnorm(P)


def test_imag_power_is_unitary():
    A = rand_c(4)
    P = A @ adjoint(A) + np.eye(4)
    U = imag_power(P, 0.7)
    assert opnorm(U @ adjoint(U) - np.eye(4)) < 1e-12
    # group law
    assert opnorm(imag_power(P, 0.3) @ imag_power(P, 0.4) - U) < 1e-12


def gathered_circulant(c):
    """Reference: the circulant gathered through an n x n index array."""
    j = np.arange(len(c))
    return c[(j[:, None] - j[None, :]) % len(c)]


@pytest.mark.parametrize("n", [7, 8, 10, 384, 1024])
def test_circulant_block_matches_gathered_circulant(n):
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    full = circulant(c)
    assert np.array_equal(full, gathered_circulant(c))
    for k in (1, n // 2, n):
        block = circulant(c, k)
        assert np.array_equal(block, full[:k, :k])
        assert np.array_equal(block, gathered_circulant(c)[:k, :k])
        assert block.flags.c_contiguous and not np.shares_memory(block, c)


@pytest.mark.parametrize("k", [0, 9])
def test_circulant_rejects_a_bad_block_size_naming_k(k):
    with pytest.raises(ValueError, match=f"block size k .* got {k}"):
        circulant(np.ones(8), k)


# --------------------------------------------------------------------------
# ToeplitzBlock's FFT bounds hold for the dense block they certify

# n/2 odd (10, 34) and even (8, 16, 384)
BLOCK_SIZES = (8, 10, 16, 34, 384)


def _generator(kind, n, rng):
    if kind == "complex":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "hermitian":     # real spectrum
        return np.fft.ifft(rng.uniform(-1.0, 2.0, n))
    # an effect's generator: the circulant's spectrum is 0 or 1, and the
    # block's extreme eigenvalues come within rounding of the bounds
    return np.fft.ifft((rng.uniform(size=n) < 0.5).astype(float))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.sampled_from(BLOCK_SIZES), data=st.data(),
       kind=st.sampled_from(["complex", "hermitian", "indicator"]),
       scale=st.sampled_from([1.0, 1e-16]), seed=st.integers(0, 2 ** 32 - 1))
def test_toeplitz_block_bounds_enclose_the_dense_block(n, data, kind, scale,
                                                       seed):
    k = data.draw(st.sampled_from(sorted({1, 2, n // 2 - 1, n // 2,
                                          n // 2 + 1, n - 1, n})), label="k")
    E = ToeplitzBlock(scale * _generator(kind, n, np.random.default_rng(seed)),
                      k)
    A = E.dense()
    assert np.array_equal(A, circulant(E.c, k))
    lo, hi, skew = E.spectrum_bounds()
    lam = np.linalg.eigvalsh((A + adjoint(A)) / 2)
    assert E.norm_bound() >= opnorm(A)
    assert lo <= lam.min() and lam.max() <= hi
    assert skew >= opnorm(A - adjoint(A))


@pytest.mark.parametrize("n", BLOCK_SIZES + (4 * 1009,))
def test_rounding_allowance_covers_the_computed_fft(n):
    # against an extended-precision FFT, where the platform has one; the
    # prime factor 1009 sends numpy's FFT through Bluestein's algorithm
    rng = np.random.default_rng(n)
    for kind in ("complex", "indicator"):
        c = _generator(kind, n, rng)
        lam = np.fft.fft(c)
        slack = ToeplitzBlock(c, n).norm_bound() - np.abs(lam).max()
        exact = np.fft.fft(c.astype(np.clongdouble))
        assert np.abs(lam - exact).max() <= 0.1 * slack


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_toeplitz_block_certifies_only_within_tol(n):
    c = np.fft.ifft((np.arange(n) < n // 3).astype(float))
    E = ToeplitzBlock(c, n // 2)
    bound = E.norm_bound()
    assert E.certified_norm(bound) == (bound, True)
    value, certified = E.certified_norm(0.5 * bound)
    assert not certified and value == opnorm(E.dense())
    assert E.certified_norm(0.5 * bound, lambda: 2 * E.dense()) == (
        opnorm(2 * E.dense()), False)


# --------------------------------------------------------------------------
# is_hermitian and is_effect decide by Frobenius and column-norm bounds
# where those settle the verdict; the SVD formulas below are the reference

TOL_FACTORS = (0.1, 0.5, 0.9, 1.1, 2.0, 10.0)


def _is_hermitian_ref(A, tol):
    return opnorm(A - adjoint(A)) <= tol * max(1.0, opnorm(A))


def _is_effect_ref(A, tol):
    if not _is_hermitian_ref(A, tol):
        return NOT_EFFECT
    lam = np.linalg.eigh((A + adjoint(A)) / 2.0)[0]
    if lam.min() < -tol or lam.max() > 1.0 + tol:
        return NOT_EFFECT
    return PROJECTION if opnorm(A @ A - A) <= tol else EFFECT


def _assert_predicates_match_reference(A, tol):
    assert is_hermitian(A, tol) == _is_hermitian_ref(A, tol)
    assert is_effect(A, tol) == _is_effect_ref(A, tol)


def _inward_shift(f, tol):
    """s in [0, 1/2] with s - s^2 = f*tol: moving a 0 or 1 eigenvalue of a
    projection inward by s gives |lam^2 - lam| = f*tol."""
    return 2 * f * tol / (1 + np.sqrt(1 - 4 * f * tol))


def _defect(shape, n, rng):
    """Perturbation P with ||P - P*|| = 1."""
    if shape == "dense":
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return X / opnorm(X - adjoint(X))
    if shape == "flat-rank-one" or n == 1:
        # anti-Hermitian; every column norm is ||P|| / sqrt(n)
        return 0.5j * np.ones((n, n)) / n
    P = np.zeros((n, n), dtype=complex)
    P[tuple(rng.choice(n, 2, replace=False))] = 1.0
    return P


def _planted(n, rng, tol, f_herm, f_proj, shape, standard_basis, scale):
    """scale * (a projection moved to projection defect f_proj * tol), plus
    a perturbation with Hermiticity defect f_herm * tol * max(1, ||H||)."""
    lam = (np.arange(n) < rng.integers(0, n + 1)).astype(float)
    moved = rng.permutation(n)[:rng.integers(1, n + 1)]
    shift = _inward_shift(f_proj, tol)
    lam[moved] = np.where(lam[moved] > 0.5, 1.0 - shift, shift)
    if standard_basis:
        V = np.eye(n)
    else:
        V = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
    H = scale * (V * lam) @ adjoint(V)
    return H + f_herm * tol * max(1.0, opnorm(H)) * _defect(shape, n, rng)


SHAPES = ("dense", "flat-rank-one", "entry")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       tol=st.sampled_from([1e-10, 1e-8]),
       f_herm=st.sampled_from((0.0,) + TOL_FACTORS),
       f_proj=st.sampled_from((0.0,) + TOL_FACTORS),
       shape=st.sampled_from(SHAPES),
       standard_basis=st.booleans(), scale=st.sampled_from([1.0, 100.0]))
def test_predicates_match_svd_reference(n, seed, tol, f_herm, f_proj, shape,
                                        standard_basis, scale):
    A = _planted(n, np.random.default_rng(seed), tol, f_herm, f_proj, shape,
                 standard_basis, scale)
    _assert_predicates_match_reference(A, tol)
    assert _is_hermitian_ref(A, tol) == (f_herm < 1)
    if f_herm == 0 and scale == 1:
        assert _is_effect_ref(A, tol) == (PROJECTION if f_proj < 1 else EFFECT)


@pytest.mark.parametrize("f", TOL_FACTORS)
@pytest.mark.parametrize("defect", ["hermitian", "projection"])
@pytest.mark.parametrize("shape", ["flat-rank-one", "entry"])
def test_predicates_on_adversarial_shapes(shape, defect, f):
    # A = I_n plus a defect i*eps*11* (each column norm is its norm / sqrt(n))
    # or a defect in a single entry (||A||_F = sqrt(n) ||A||)
    n, tol = 40, DEFAULT_TOL
    if defect == "hermitian":
        A = np.eye(n) + f * tol * _defect(shape, n, np.random.default_rng(0))
    else:
        u = np.ones(n) / np.sqrt(n) if shape == "flat-rank-one" else np.eye(n)[0]
        A = np.eye(n) - _inward_shift(f, tol) * np.outer(u, u)
    _assert_predicates_match_reference(A, tol)
    assert is_hermitian(A, tol) == (defect == "projection" or f < 1)
    if defect == "projection":
        assert is_effect(A, tol) == (PROJECTION if f < 1 else EFFECT)


def planted_effects(tol):
    """Effects on the edges of ``is_effect``'s certificates at tol."""
    P = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    skew = 0.5 * np.eye(4, dtype=complex)
    skew[0, 1] += 1e-9j                   # not Hermitian at tol 1e-10
    edge = P.copy()
    edge[0, 0] = 1 + 2 * tol              # eigenvalue just outside [0, 1]
    # R = E^2 - E = 0.6 tol on four coordinates: Frobenius norm 1.2 tol, no
    # column above 2 tol, so only the SVD decides the projection test
    near = np.diag(np.r_[np.full(4, 1 + 0.6 * tol), 0.0]).astype(complex)
    # skew 0.8 tol: Hermitian by the SVD only
    leaky = np.pad(P, ((0, 1), (0, 1)))
    leaky[0, 1] += 0.8j * tol
    return [skew, edge, near, leaky]


def _assert_stack_matches_reference(A, tol):
    assert is_hermitian(A, tol).tolist() == [_is_hermitian_ref(X, tol)
                                             for X in A]
    assert is_effect(A, tol) == [_is_effect_ref(X, tol) for X in A]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       tol=st.sampled_from([1e-10, 1e-8]), scale=st.sampled_from([1.0, 100.0]))
def test_stacked_predicates_match_svd_reference(n, seed, tol, scale):
    # one stack of every defect size and shape: matrices the Frobenius bound
    # certifies, the column bound refutes and only the SVD decides, side by
    # side, each given the verdict the reference gives it alone
    rng = np.random.default_rng(seed)
    A = np.stack([_planted(n, rng, tol, f_herm, f_proj, shape,
                           rng.random() < 0.5, scale)
                  for f_herm in (0.0,) + TOL_FACTORS
                  for f_proj in (0.0,) + TOL_FACTORS for shape in SHAPES])
    _assert_stack_matches_reference(A, tol)


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
def test_stacked_predicates_on_planted_and_adversarial_effects(tol,
                                                               monkeypatch):
    n = 40
    planted = [np.pad(E, ((0, n - len(E)), (0, n - len(E))))
               for E in planted_effects(tol)]
    hermitian = [np.eye(n) + f * tol * _defect(shape, n,
                                               np.random.default_rng(0))
                 for f in TOL_FACTORS for shape in SHAPES]
    projection = [np.eye(n) - _inward_shift(f, tol) * np.outer(u, u)
                  for f in TOL_FACTORS
                  for u in (np.ones(n) / np.sqrt(n), np.eye(n)[0])]
    A = np.stack(planted + hermitian + projection)
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda X, *a, **k: seen.append(len(X)) or svd(X, *a, **k))
    classes = is_effect(A, tol)
    monkeypatch.undo()
    # the Hermiticity test takes the SVD of its open defects and of their
    # matrices, the projection test of its open defects, and neither of all
    herm_open, scale_open, proj_open = seen
    assert herm_open == scale_open and 0 < herm_open < len(A)
    assert 0 < proj_open < len(A)
    assert set(classes) == {NOT_EFFECT, EFFECT, PROJECTION}
    _assert_stack_matches_reference(A, tol)
    assert type(is_hermitian(A[0], tol)) is bool
    assert is_effect(A[0], tol) == classes[0]
