import cmath
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmlab import operators
from povmlab.operators import (DEFAULT_TOL, DENSE_BUDGET, EFFECT, NOT_EFFECT,
                               NUMERIC_TOL, PROJECTION, Defect, ToeplitzBlock,
                               _norm_within, _rand_complex, adjoint,
                               circulant, diag_conjugate, funcalc,
                               geometric_deviation, herm_spectrum, imag_power,
                               is_effect, is_hermitian, opnorm,
                               shift_covariance, sqrtm_psd)
from povmlab.oscillator import phase_effect
from povmlab.regions import RegionSet
from povmlab.weylnc import MellinLattice, SymbolRep, conjugation_residual

rng = np.random.default_rng(11)


def rand_c(d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_opnorm_matches_svd():
    A = rand_c(7)
    assert abs(opnorm(A) - np.linalg.svd(A, compute_uv=False)[0]) < 1e-12


@pytest.mark.parametrize("shape", [(7, 7), (5, 3), (4, 6, 6), (3, 2, 5),
                                   (6,), (9, 1, 1), (1, 1), (0, 3), (2, 0, 4),
                                   (3, 0, 0)])
def test_opnorm_reads_numpys_operator_norm_bit_for_bit(shape):
    # the first singular value of the one SVD is np.linalg.norm's amax of
    # it; a vector reads as one row, an empty matrix as 0
    A = _rand_complex(rng, 1, shape)[..., 0, 0] * 10.0 ** rng.uniform(
        -3, 3, shape)
    expected = np.linalg.norm(np.atleast_2d(A), 2, axis=(-2, -1))
    got = opnorm(A)
    if len(shape) < 3:
        assert type(got) is float and got == float(expected)
    else:
        assert got.shape == expected.shape and np.array_equal(got, expected)


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
    with pytest.raises(ValueError, match=r"undefined at eigenvalue .*-2\.0"):
        funcalc(H, np.sqrt)


def test_funcalc_non_finite_value_names_the_first_bad_eigenvalue():
    # no floating-point exception, an infinite value at 5 and at 7: the
    # error names 5, the first in the ascending spectrum, without an
    # exception text
    H = np.diag([7.0, 1.0, 5.0, -2.0]).astype(complex)
    with pytest.raises(ValueError,
                       match=r"^function undefined at eigenvalue \S*5\.0\)?$"):
        funcalc(H, lambda x: np.where(x > 4, np.inf, x))


def test_funcalc_applies_f_once_to_the_spectrum():
    # one call on the eigenvalue vector, bit for bit the per-eigenvalue
    # values; a scalar-only f still goes eigenvalue by eigenvalue
    A = rand_c(6)
    H = (A + adjoint(A)) / 2
    seen = []
    E = funcalc(H, lambda x: seen.append(np.shape(x)) or np.exp(0.3j * x))
    assert seen == [(6,)]
    lam, V = herm_spectrum(H)
    vals = np.array([np.exp(0.3j * x) for x in lam])
    assert np.array_equal(E, (V * vals) @ adjoint(V))
    assert np.array_equal(funcalc(H, lambda x: cmath.exp(0.3j * x)),
                          (V * [cmath.exp(0.3j * x) for x in lam])
                          @ adjoint(V))


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
    assert E.norm_bound() >= opnorm(A)


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
    assert E.as_defect().norm(bound) == (bound, True)
    value, certified = E.as_defect().norm(0.5 * bound)
    assert not certified and value == opnorm(E.dense())
    # a refused member reads whatever its dense thunk forms
    twice = Defect(E.as_defect().bound, lambda members: 2 * E.dense()[None],
                   E.k)
    assert twice.norm(0.5 * bound) == (opnorm(2 * E.dense()), False)


# --------------------------------------------------------------------------
# is_hermitian and is_effect decide by Frobenius and column-norm bounds
# where those settle the verdict; the SVD formulas below are the reference

TOL_FACTORS = (0.1, 0.5, 0.9, 1.1, 2.0, 10.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6),
       members=st.integers(1, 8), scaled=st.booleans(),
       tol=st.sampled_from([1e-12, 1e-8, 1e-3, 1.0]))
def test_norm_within_is_sound(seed, d, members, scaled, tol):
    # members of rank one, whose largest column norm is their norm, and of
    # full rank, whose Frobenius norm exceeds it, each scaled to a norm
    # within a factor 8 of its threshold tol * max(1, ||scale||): every
    # certified member has SVD norm within it, every refuted one above it
    draw = np.random.default_rng(seed)
    scale, threshold = None, np.full(members, tol)
    if scaled:
        scale = _rand_complex(draw, d, (members,)) * 10.0 ** draw.uniform(
            -2, 2, (members, 1, 1))
        threshold = tol * np.maximum(
            1.0, np.linalg.svd(scale, compute_uv=False)[:, 0])
    X = _rand_complex(draw, d, (members,))
    rank_one = draw.uniform(size=members) < 0.5
    X[rank_one] = X[rank_one][:, :, :1] @ X[rank_one][:, :1, :]
    X *= (threshold * 8.0 ** draw.uniform(-1, 1, members)
          / np.linalg.svd(X, compute_uv=False)[:, 0])[:, None, None]
    ok = _norm_within(X, tol, scale)
    norms = np.linalg.svd(X, compute_uv=False)[:, 0]
    assert (norms[ok] <= threshold[ok]).all()
    assert (norms[~ok] > threshold[~ok]).all()


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


def _psd_stack(k, d, draw):
    """k random positive semidefinite d x d matrices, one of rank 1."""
    X = draw.standard_normal((k, d, d)) + 1j * draw.standard_normal((k, d, d))
    X[0, 1:] = 0.0
    return X @ adjoint(X)


@pytest.mark.parametrize("d", [1, 3, 8, 12])
def test_stacked_primitives_equal_their_per_matrix_calls(d):
    # every member goes through the same LAPACK call as it does alone, so
    # the stacked results are bit for bit the per-matrix ones
    draw = np.random.default_rng(d)
    P = _psd_stack(5, d, draw)
    A = draw.standard_normal((5, d, d + 2)) + 0j
    norms = opnorm(A)
    assert norms.shape == (5,)
    assert np.array_equal(norms, [opnorm(X) for X in A])
    assert all(type(opnorm(X)) is float for X in A)
    lam, V = herm_spectrum(P)
    for i, H in enumerate(P):
        lam_i, V_i = herm_spectrum(H)
        assert np.array_equal(lam[i], lam_i) and np.array_equal(V[i], V_i)
    roots = sqrtm_psd(P)
    assert np.array_equal(roots, np.stack([sqrtm_psd(H) for H in P]))
    assert opnorm(roots @ roots - P).max() < 1e-12 * max(1.0, opnorm(P).max())
    assert np.array_equal(opnorm(np.zeros((3, 0, 0))), np.zeros(3))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, NUMERIC_TOL])
@pytest.mark.parametrize("shape", SHAPES)
def test_one_hermitian_test_refuses_what_is_hermitian_refuses(tol, shape):
    # projections moved off Hermitian by f tol max(1, ||H||), f on either
    # side of 1, in two stacks: herm_spectrum, is_effect and sqrtm_psd each
    # run one test and refuse exactly the members that is_hermitian refuses
    draw = np.random.default_rng(len(shape))
    stacks = {}
    for name, factors in (("below", (0.0, 0.1, 0.5, 0.9)),
                          ("across", (0.5, 0.9, 1.1, 2.0, 10.0))):
        stacks[name] = np.stack([_planted(5, draw, tol, f, 0.0, shape,
                                          False, 1.0) for f in factors])
    for name, A in stacks.items():
        ok = is_hermitian(A, tol)
        assert ok.tolist() == [_is_hermitian_ref(X, tol) for X in A]
        assert ok.all() == (name == "below")
        classes = is_effect(A, tol)
        assert [c == NOT_EFFECT for c in classes] == (~ok).tolist()
        calls = [partial(herm_spectrum, tol=tol)]
        if tol == NUMERIC_TOL:          # sqrtm_psd tests at NUMERIC_TOL
            calls.append(sqrtm_psd)
        for call in calls:
            if ok.all():
                call(A)
                continue
            first = int(np.argmin(ok))
            with pytest.raises(ValueError, match=f"operator {first} of the "
                                                 "stack is not Hermitian"):
                call(A)
            for X in A[ok]:
                call(X)
            for X in A[~ok]:
                with pytest.raises(ValueError, match="^operator is not "
                                                     "Hermitian"):
                    call(X)


def test_entry_points_check_and_test_their_argument_once(monkeypatch):
    # one require_stack and one Hermitian test per call, and A* formed for
    # both the test and the symmetrised part
    counts = {"require_stack": 0, "_norm_within": 0, "adjoint": 0}
    for name in counts:
        real = getattr(operators, name)

        def counted(*args, name=name, real=real, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(operators, name, counted)
    P = _psd_stack(3, 4, np.random.default_rng(5)) / 100.0
    for call in (herm_spectrum, is_effect, sqrtm_psd, is_hermitian):
        for name in counts:
            counts[name] = 0
        call(P)
        # is_effect tests E^2 - E by _norm_within, and sqrtm_psd forms V*
        assert counts == {"require_stack": 1,
                          "_norm_within": 2 if call is is_effect else 1,
                          "adjoint": 2 if call is sqrtm_psd else 1}


def test_stack_with_a_bad_member_is_refused_naming_it():
    P = _psd_stack(4, 5, np.random.default_rng(0))
    skew = P.copy()
    skew[2, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="operator 2 of the stack is not "
                                         "Hermitian"):
        herm_spectrum(skew)
    with pytest.raises(ValueError, match="operator 2 of the stack is not "
                                         "Hermitian"):
        sqrtm_psd(skew)
    indefinite = P.copy()
    indefinite[3] -= 2 * opnorm(P[3]) * np.eye(5)
    with pytest.raises(ValueError, match="operator 3 of the stack not "
                                         "positive"):
        sqrtm_psd(indefinite)
    # one matrix keeps the messages that name no member
    with pytest.raises(ValueError, match="^operator is not Hermitian"):
        herm_spectrum(skew[2])
    with pytest.raises(ValueError, match="^operator not positive"):
        sqrtm_psd(indefinite[3])


def toeplitz_part(X):
    """The Toeplitz matrix with the first column and row of X, or of each
    matrix of a stack: the dense form of the generator ``shift_covariance``
    reads off a dense defect X."""
    j = np.arange(X.shape[-1])
    r = j[:, None] - j[None, :]
    return np.where(r >= 0, X[..., np.maximum(r, 0), 0],
                    X[..., 0, np.maximum(-r, 0)])


def arc_covariance(phases, B, t):
    """shift_covariance of the arc B rotated by t, one draw per row of
    ``phases``, and the dense defect of each row."""
    d = phases.shape[-1]
    dense = (diag_conjugate(phases, phase_effect(B, d).dense())
             - phase_effect(B.shifted(t), d).dense())
    return shift_covariance(phases, partial(phase_effect, d=d),
                            [B] * len(phases),
                            [B.shifted(t)] * len(phases)), dense


def _arc_and_flipped_phase(d=12, t=0.9, site=5):
    B = RegionSet.circle([(0.3, 1.8)])
    phase = np.exp(-1j * t * np.arange(d))
    flipped = phase.copy()
    flipped[site] *= -1
    return B, t, phase, flipped


def test_a_phase_that_is_not_geometric_has_no_bound():
    # a sign flip at one site: the Toeplitz generator, read off the first
    # row and column, would see none of it, while the dense defect is O(1)
    B, t, phase, flipped = _arc_and_flipped_phase()
    deviation, allowance = geometric_deviation(flipped)
    assert deviation == pytest.approx(2.0)
    D, dense = arc_covariance(flipped[None], B, t)
    assert D.bound[0] == np.inf and opnorm(dense[0]) > 0.5
    assert D.norm(1.0) == (opnorm(dense[0]), False)
    assert arc_covariance(phase[None], B, t)[0].bound[0] < 1e-13
    # a phase off the unit circle is no phase either
    off = arc_covariance((1.01 ** np.arange(12) * phase)[None], B, t)[0]
    assert off.bound[0] == np.inf


def test_an_admitted_phase_off_its_geometric_sequence_widens_the_bound():
    # a phase turned off its geometric sequence by 5e-12 at one interior
    # site, inside the allowance of 64 k eps = 7.3e-12: the generator, read
    # off the first row and column, sees it only at offset k/2, where c is
    # small, while the dense defect carries it along a whole row and
    # column; the slack of 3 delta (1 + delta) sum |c_r| covers that
    k, t = 512, 0.9
    B = RegionSet.circle([(0.3, 1.8)])
    phase = np.exp(-1j * t * np.arange(k))
    bent = phase.copy()
    bent[k // 2] *= np.exp(5e-12j)
    deviation, allowance = geometric_deviation(bent)
    assert 5e-12 < deviation < allowance
    D, dense = arc_covariance(bent[None], B, t)
    assert opnorm(toeplitz_part(dense[0])) < 1e-12 < opnorm(dense[0])
    assert opnorm(dense[0]) <= D.bound[0]
    assert arc_covariance(phase[None], B, t)[0].bound[0] < 1e-12


def test_a_stack_refuses_only_the_member_whose_phase_is_not_geometric():
    # member 1 of four reads inf, and its dense defect alone is formed
    B, t, phase, flipped = _arc_and_flipped_phase()
    D, dense = arc_covariance(np.stack([phase, flipped, phase, phase]), B, t)
    assert D.bound[1] == np.inf and (np.delete(D.bound, 1) < 1e-13).all()
    asked = []

    def spy(members):
        asked.append(list(members))
        return D.dense(members)

    assert Defect(D.bound, spy, D.size).norm(1e-10) == (opnorm(dense[1]),
                                                        False)
    assert asked == [[1]]


@pytest.mark.parametrize("k", [1, 2, 12, 4096])
def test_geometric_deviation_of_exact_phases_sits_inside_the_allowance(k):
    draw = np.random.default_rng(k)
    for a, b in draw.uniform(-np.pi, np.pi, (8, 2)):
        deviation, allowance = geometric_deviation(
            np.exp(1j * (a * np.arange(k) + b)))
        assert allowance == 64 * k * np.finfo(float).eps
        assert deviation <= allowance / 10


# --------------------------------------------------------------------------
# a ToeplitzBlock with a generator of shape (S, n) is a stack of S blocks:
# every member reads what it reads as a block of its own row


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from(BLOCK_SIZES), data=st.data(),
       members=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_stack_members_equal_their_one_block_calls(n, data, members, seed):
    # the FFT along the rows, the row norms and the row maxima treat each
    # row as the one-row call does, so every value is bit for bit equal
    k = data.draw(st.sampled_from(sorted({1, 2, n // 2, n - 1, n})),
                  label="k")
    draw = np.random.default_rng(seed)
    kinds = [data.draw(st.sampled_from(["complex", "hermitian", "indicator"]),
                       label="kind") for _ in range(members)]
    C = np.stack([_generator(kind, n, draw) for kind in kinds])
    stack = ToeplitzBlock(C, k)
    ones = [ToeplitzBlock(c, k) for c in C]
    assert np.array_equal(stack.dense(), np.stack([E.dense() for E in ones]))
    assert np.array_equal(stack.norm_bound(), [E.norm_bound() for E in ones])
    # a tol between the members' bounds certifies some and refuses others;
    # the stack reads the worst of its members' one-block values
    tol = float(np.median(stack.norm_bound()))
    assert stack.as_defect().norm(tol) == max(
        (E.as_defect().norm(tol) for E in ones), key=lambda out: out[0])
    # geometric phases e^{i(a j + b)}, one per member, against the stack
    # of targets C reversed; "regions" here are rows of the generators
    a, b = draw.uniform(-np.pi, np.pi, (2, members, 1))
    phase = np.exp(1j * (a * np.arange(k) + b))

    def effects(rows):
        return ToeplitzBlock(np.concatenate([C, C[::-1]])[rows], k)

    D = shift_covariance(phase, effects, range(members),
                         range(members, 2 * members))
    for i in range(members):
        single = shift_covariance(phase[i:i + 1], effects, [i],
                                  [members + i])
        assert D.bound[i] == single.bound[0]
        assert np.array_equal(D.dense([i]), single.dense([0]))
    deviation, allowance = geometric_deviation(phase)
    assert np.array_equal(deviation, [geometric_deviation(p)[0]
                                      for p in phase])


def test_stacked_certified_norm_forms_only_the_refused_members():
    # members 1 and 3 carry a bound above tol: only they reach ``dense``,
    # and only their values are the dense norms
    draw = np.random.default_rng(5)
    C = np.stack([_generator("indicator", 16, draw) for _ in range(5)]) * 1e-13
    C[[1, 3]] *= 1e4
    stack, asked = ToeplitzBlock(C, 8), []

    def dense(members):
        asked.append(list(members))
        return stack.as_defect().dense(members)

    value, certified = Defect(stack.as_defect().bound, dense, 8).norm(1e-10)
    assert asked == [[1, 3]]
    values = [ToeplitzBlock(C[i], 8).norm_bound() if i % 2 == 0
              else opnorm(ToeplitzBlock(C[i], 8).dense()) for i in range(5)]
    worst = int(np.argmax(values))
    assert (value, certified) == (values[worst], worst % 2 == 0)
    # without a ``dense``, the members' own dense blocks decide
    assert stack.as_defect().norm(1e-10) == (value, certified)


def test_defect_reads_the_first_worst_member_and_refuses_nan_bounds():
    def dense(members):
        return np.stack([np.diag([v, 0.0]) for v in (0.3, 0.6, 0.6)])[members]

    bound = np.array([0.5, np.nan, 1.0])
    # members 1 and 2 are refused and read 0.6 each; the first wins
    assert Defect(bound, dense, 2).norm(0.8) == (0.6, False)
    assert Defect(bound[[0, 2]], dense, 2).norm(1.0) == (1.0, True)
    assert Defect(np.full(3, np.inf), dense, 2).norm(1e300) == (0.6, False)


def test_dense_budget_is_one_4096_square_stack():
    # the budget counts elements of the refused members' stack; ``dense``
    # here returns a stand-in, so nothing of that size is formed
    asked = []

    def dense(members):
        asked.append(len(members))
        return np.full((len(members), 1, 1), 0.25)

    assert DENSE_BUDGET == 4096 * 4096
    for count, size, formed in ((1, 4096, True), (1, 4097, False),
                                (4096, 64, True), (4097, 64, False)):
        asked.clear()
        bound = np.full(count, 2.0)
        value, certified = Defect(bound, dense, size).norm(1.0)
        assert asked == ([count] if formed else [])
        assert (value, certified) == ((0.25, False) if formed else (2.0, True))


@settings(max_examples=90, deadline=None, derandomize=True)
@given(producer=st.sampled_from(["toeplitz", "bent phase",
                                 "shift diagonals"]),
       factor=st.floats(0.5, 2.0), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_a_certified_defect_norm_is_sound_near_tol(producer, factor, seed,
                                                    data):
    # each kind of bound, drawn so that the dense norm lies within a
    # factor 2 of tol: every bound covers the dense norm, a member is
    # certified exactly when its bound is within tol and then reads it,
    # and a refused member reads the dense norm itself
    draw = np.random.default_rng(seed)
    if producer == "toeplitz":
        n = data.draw(st.sampled_from(BLOCK_SIZES), label="n")
        kind = data.draw(st.sampled_from(["complex", "hermitian",
                                          "indicator"]), label="kind")
        k = data.draw(st.sampled_from(sorted({n // 2, n})), label="k")
        defect = ToeplitzBlock(_generator(kind, n, draw), k).as_defect()
    elif producer == "bent phase":
        # a geometric phase turned at one interior site by a fraction of
        # the allowance 64 k eps: the slack carries what the generator
        # does not see
        k = data.draw(st.sampled_from([12, 64, 256]), label="k")
        t, a = draw.uniform(-np.pi, np.pi, 2)
        B = RegionSet.circle([(a, a + draw.uniform(0.1, 2.0))])
        phase = np.exp(-1j * t * np.arange(k))
        phase[draw.integers(1, k - 1)] *= np.exp(
            1j * draw.uniform(0.05, 0.9) * 64 * k * np.finfo(float).eps)
        defect = arc_covariance(phase[None], B, t)[0]
    else:
        defect = _scaled_twist_defect(
            data.draw(st.sampled_from([16, 32, 64]), label="m"), draw)
    dense = opnorm(defect.dense(np.array([0]))[0])
    tol, bound = factor * dense, defect.bound[0]
    assert dense <= bound
    assert defect.norm(tol) == ((bound, True) if bound <= tol
                                else (dense, False))


@dataclass
class _ScaledTranslate(SymbolRep):
    """A symbol whose translate has its coefficients scaled by 1 + eta."""

    eta: float = 0.0

    def translated(self, lat, t):
        out = SymbolRep.translated(self, lat, t)
        out.coeffs = {key: c * (1 + self.eta) for key, c in out.coeffs.items()}
        return out


def _scaled_twist_defect(m, draw):
    """conjugation_residual's Defect for a random real symbol on the
    self-dual lattice of size m, whose translate is scaled by 1 + eta, eta
    log-uniform in [1e-12, 1e-3]: a defect of norm about eta."""
    delta = float(np.sqrt(2 * np.pi / m))
    lat = MellinLattice(m, delta, -delta * (m // 2))
    coeffs = {}
    for _ in range(4):
        j, k = (int(v) for v in draw.integers(-4, 5, 2))
        c = complex(draw.standard_normal(), draw.standard_normal())
        coeffs[(j, k)] = coeffs.get((j, k), 0.0) + c
        coeffs[(-j, -k)] = coeffs.get((-j, -k), 0.0) + c.conjugate()
    a = _ScaledTranslate(coeffs=coeffs, eta=10 ** draw.uniform(-12, -3))
    return conjugation_residual(
        lat, int(draw.integers(-3, 4)) * lat.dual_spacing, a)
