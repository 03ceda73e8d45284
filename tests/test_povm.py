import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import povmlab
from povmlab import harness, operators, povm
from povmlab.operators import (EFFECT, NOT_EFFECT, NUMERIC_TOL, PROJECTION,
                               _rand_complex, adjoint, is_effect, opnorm,
                               sqrtm_psd)
from povmlab.povm import (DiscretePOVM, _block0_spectrum, _circular_dilation,
                          _defect_svd, _modulus, _powers, _scalar_spectrum,
                          _unitary_eigh,
                          contraction_moment_povm, naimark_dilate,
                          povm_integrate, povm_validate, random_povm,
                          state_to_measure)
from povmlab.regions import RegionSet, circle_full, equal_partition
from test_operators import planted_effects

rng = np.random.default_rng(23)


def dilation(T, M):
    """The circular dilation of T from its own SVD."""
    return _circular_dilation(T, M, _defect_svd(T))


def rand_density(d):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    T = A @ adjoint(A)
    return T / np.trace(T).real


def test_random_povm_validates():
    p = random_povm(6, 4, rng)
    rep = povm_validate(p)
    assert rep.ok
    assert rep.sum_residual < 1e-12
    assert all(c in (EFFECT, PROJECTION) for c in rep.classifications)


def test_state_to_measure_total_and_affinity():
    p = random_povm(5, 3, rng)
    T1, T2 = rand_density(5), rand_density(5)
    m1 = state_to_measure(p, T1)
    m2 = state_to_measure(p, T2)
    assert abs(m1.sum() - 1.0) < 1e-12
    lam = 0.3
    mix = state_to_measure(p, lam * T1 + (1 - lam) * T2)
    assert np.max(np.abs(mix - (lam * m1 + (1 - lam) * m2))) < 1e-14


def test_state_to_measure_rejects_bad_density():
    p = random_povm(4, 2, rng)
    with pytest.raises(ValueError):
        state_to_measure(p, np.eye(4))           # trace 4


def test_state_to_measure_rejects_non_hermitian_density():
    # unit trace with a positive symmetrised spectrum, but tr(E_i T) has
    # imaginary parts that taking the real part would drop
    p = random_povm(2, 4, rng)
    with pytest.raises(ValueError, match="not Hermitian"):
        state_to_measure(p, [[0.5, 1.0], [0.0, 0.5]])


def test_psi_contraction_bound():
    p = random_povm(6, 5, rng)
    for _ in range(100):
        vals = rng.standard_normal(5)
        table = dict(zip([round(0.5 * sum(r.cells[0]), 9) for r in p.regions],
                         vals))
        psi = povm_integrate(p, lambda x: table[round(x, 9)])
        assert opnorm(psi) <= np.abs(vals).max() + 1e-10


def test_psi_indicator_recovers_effect():
    p = random_povm(4, 3, rng)
    target = p.effects[1]
    mid = 0.5 * sum(p.regions[1].cells[0])
    psi = povm_integrate(p, lambda x: 1.0 if abs(x - mid) < 1e-9 else 0.0)
    assert opnorm(psi - target) < 1e-12


def test_naimark_roundtrip_bounds():
    for d, k in [(4, 2), (16, 8)]:
        p = random_povm(d, k, rng)
        dil = naimark_dilate(p)
        assert opnorm(adjoint(dil.isometry) @ dil.isometry - np.eye(d)) < 1e-12
        assert dil.isometry_residual < 1e-12
        assert opnorm(dil.compressions() - p.effects).max() < 1e-12


def test_non_contraction_rejected():
    with pytest.raises(ValueError):
        contraction_moment_povm(np.array([[1.5]]), 8, 16)


def test_zero_contraction_moments_and_uniformity():
    p, rep = contraction_moment_povm(np.array([[0.0]]), 32, 64)
    assert rep.moment_residuals[1:].max() < 1e-10
    assert np.max(np.abs(rep.cell_masses - 1.0 / 64)) < 1e-2


def test_unitary_input_is_point_mass():
    phi = 0.7
    p, rep = contraction_moment_povm(np.array([[np.exp(1j * phi)]]), 8, 16)
    assert povm_validate(p, NUMERIC_TOL).multiplicative
    # the whole mass sits in the cell containing phi
    masses = rep.cell_masses
    hits = [i for i, r in enumerate(p.regions) if r.indicator([phi])[0]]
    assert len(hits) == 1
    assert abs(masses[hits[0]] - 1.0) < 1e-12
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)


def test_phase_on_a_cell_edge_goes_to_the_cell_it_starts():
    # half-open cells: a phase on an edge, up to rounding, belongs to the
    # cell whose left endpoint it equals
    edge = -np.pi + 2 * np.pi * 5 / 16
    _, rep = contraction_moment_povm(np.array([[np.exp(1j * edge)]]), 8, 16)
    assert rep.cell_masses[5] == pytest.approx(1.0, abs=1e-12)


def test_poisson_masses_for_half_contraction():
    r = 0.5
    _, rep = contraction_moment_povm(np.array([[r]]), 32, 64)
    edges = np.linspace(-np.pi, np.pi, 65)
    worst = 0.0
    for i in range(64):
        sub = np.linspace(edges[i], edges[i + 1], 1001)
        mid = 0.5 * (sub[:-1] + sub[1:])
        dens = (1 - r * r) / (1 - 2 * r * np.cos(mid) + r * r) / (2 * np.pi)
        worst = max(worst, abs(rep.cell_masses[i]
                               - float(dens.sum() * (sub[1] - sub[0]))))
    assert worst < 1e-2


def test_moment_certification_2x2():
    # a genuinely non-normal contraction
    T = np.array([[0.3, 0.5], [0.0, -0.2]], dtype=complex)
    _, rep = contraction_moment_povm(T, 16, 32)
    assert rep.moment_residuals.max() < 1e-10


def test_povm_shape_mismatch():
    with pytest.raises(ValueError):
        DiscretePOVM(regions=equal_partition(circle_full(), 2),
                     effects=[np.eye(2)])


def pair_loop_multiplicative(p, tol):
    """Reference PVM check: ||E_i E_j - delta_ij E_i|| <= tol pair by pair."""
    for i, Ei in enumerate(p.effects):
        for j, Ej in enumerate(p.effects):
            target = Ei if i == j else 0.0
            if opnorm(Ei @ Ej - target) > tol:
                return False
    return True


def test_pvm_check_matches_pair_loop():
    unitary, _ = contraction_moment_povm(np.array([[np.exp(0.7j)]]), 32, 64)
    coords = [np.diag(np.eye(8)[i]).astype(complex) for i in range(8)]
    coords[3][3, 3] += 1e-9
    coordinate = DiscretePOVM(regions=equal_partition(circle_full(), 8),
                              effects=coords)
    unsharp = random_povm(6, 4, rng)
    # E_0^2 - E_0 = 0.6e-8 on four coordinates: operator norm 0.6e-8 but
    # Frobenius norm 1.2e-8, so at tol 1e-8 only the SVD certifies the pair
    wide = [np.diag(np.r_[np.full(4, 1 + 0.6e-8), np.zeros(4)]).astype(complex),
            np.diag(np.r_[np.zeros(4), np.ones(4)]).astype(complex)]
    assert np.linalg.norm(wide[0] @ wide[0] - wide[0]) > 1e-8
    spread = DiscretePOVM(regions=equal_partition(circle_full(), 2),
                          effects=wide)
    cases = [
        (unitary, 1e-8, True),
        (unsharp, 1e-8, False),
        (unsharp, 1e-10, False),
        (coordinate, 1e-8, True),
        (coordinate, 1e-10, False),
        (spread, 1e-8, True),
        (spread, 0.5e-8, False),
    ]
    for p, tol, expected in cases:
        assert pair_loop_multiplicative(p, tol) is expected
        assert povm_validate(p, tol).multiplicative is expected


def test_verify_all_leaves_scipy_unloaded():
    # the runtime needs numpy alone; scipy is a test-only reference
    src = str(Path(povmlab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from povmlab import harness; "
            "harness.run_suite(harness.SuiteConfig(suite='all')); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("seed", range(8))
def test_norm_one_contraction_moments_are_certified(seed):
    # a non-normal T with ||T|| = 1, so both defect operators are singular
    r = np.random.default_rng(seed)
    T = r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))
    _, rep = contraction_moment_povm(T / opnorm(T), 32, 64)
    assert rep.moment_residuals.max() <= 1e-10


def test_fine_binning_of_a_norm_one_8x8_stays_small():
    # 512 point masses in 2048 cells: binning them adds each (8, 8) mass to
    # its cell, and no (cells, d, K) array of 128 MB is formed
    r = np.random.default_rng(7)
    T = r.standard_normal((8, 8)) + 1j * r.standard_normal((8, 8))
    tracemalloc.start()
    try:
        p, rep = contraction_moment_povm(T / opnorm(T), 32, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert rep.moment_residuals.max() <= 1e-10
    assert p.effects.shape == (2048, 8, 8)


def test_eigenphases_on_the_first_cayley_candidates():
    d, M = 4, 8
    N = 2 * M * d                        # size of the dilation
    alphas = np.pi * (2 * np.arange(d) + 1) / (2 * N)
    T = np.diag(np.exp(1j * alphas))
    U = dilation(T, M)
    for alpha in alphas:                 # each of these candidates is blocked
        H = (np.exp(-1j * alpha) * U + np.exp(1j * alpha) * adjoint(U)) / 2
        assert np.linalg.eigvalsh(H)[-1] > np.cos(np.pi / (4 * N))
    thetas, V = _unitary_eigh(U)
    assert opnorm(adjoint(V) @ V - np.eye(N)) < 1e-12
    assert opnorm(U @ V - V * np.exp(1j * thetas)) < 1e-12
    p, rep = contraction_moment_povm(T, M, 2 * M)
    assert rep.moment_residuals.max() < 1e-12
    assert povm_validate(p, NUMERIC_TOL).multiplicative


def test_non_normal_input_fails_the_residual_check():
    # spectrum {1, -1} on the circle, but not unitary: the Cayley point
    # z = e^{i pi/4} is accepted and only the residual check can object
    with pytest.raises(ValueError, match="residual"):
        _unitary_eigh(np.array([[1.0, 1e-3], [0.0, -1.0]], dtype=complex))


def schur_moment_povm(T, M, cells):
    """Reference spectral measure from the complex Schur form of the
    dilation: sorted phases and binned effects."""
    linalg = pytest.importorskip("scipy.linalg")
    d = T.shape[0]
    S, V = linalg.schur(dilation(T, M), output="complex")
    thetas = np.angle(np.diag(S))
    thetas[thetas >= np.pi - 1e-15] = -np.pi
    edges = np.linspace(-np.pi, np.pi, cells + 1)
    effects = []
    for a, b in zip(edges, edges[1:]):
        W = V[:d, (thetas >= a - 1e-12) & (thetas < b - 1e-12)]
        effects.append(W @ adjoint(W))
    return np.sort(thetas), effects


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["0.9", "0.5", "unitary"])
def test_cayley_matches_schur_reference(d, kind):
    r = np.random.default_rng(d)
    A = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
    T = np.linalg.qr(A)[0] if kind == "unitary" else float(kind) * A / opnorm(A)
    M, cells = 32, 64
    ref_thetas, ref_effects = schur_moment_povm(T, M, cells)
    thetas, _ = _unitary_eigh(dilation(T, M))
    thetas[thetas >= np.pi - 1e-15] = -np.pi
    assert np.abs(np.sort(thetas) - ref_thetas).max() < 1e-10
    p, _ = contraction_moment_povm(T, M, cells)
    for E, ref in zip(p.effects, ref_effects, strict=True):
        assert opnorm(E - ref) < 1e-10


@pytest.mark.parametrize("tol", [1e-10, NUMERIC_TOL])
def test_batched_classification_matches_is_effect(tol):
    unitary, _ = contraction_moment_povm(np.array([[np.exp(0.7j)]]), 32, 64)
    povms = [random_povm(d, k, rng) for d, k in [(1, 3), (4, 2), (6, 4),
                                                 (8, 8)]]
    povms.append(unitary)
    povms += [DiscretePOVM(regions=equal_partition(circle_full(), 1),
                           effects=[E]) for E in planted_effects(tol)]
    seen = set()
    for p in povms:
        classes = povm_validate(p, tol).classifications
        assert classes == [is_effect(E, tol) for E in p.effects]
        assert povm_validate(p, tol).multiplicative == all(
            opnorm(E @ F - (E if i == j else 0)) <= tol
            for i, E in enumerate(p.effects) for j, F in enumerate(p.effects))
        seen.update(classes)
    assert seen == {NOT_EFFECT, EFFECT, PROJECTION}
    assert [povm_validate(p, tol).classifications[0] for p in povms[-4:]] == [
        NOT_EFFECT if tol < 1e-9 else EFFECT, NOT_EFFECT, PROJECTION,
        PROJECTION]


def test_batched_classification_takes_svds_only_of_open_matrices(
        monkeypatch):
    # the Frobenius and column-norm bounds decide every effect and pair
    # defect of these POVMs; of the planted effects the SVD sees near's
    # E^2 - E, once in is_effect and once as its own pair defect, and
    # leaky itself, which scales the bound, with its Hermiticity defect.
    # The tests take SVDs of stacks; opnorm's SVD of each sum residual
    # takes the one matrix
    unitary, _ = contraction_moment_povm(np.array([[np.exp(0.7j)]]), 32, 64)
    povms = [unitary, random_povm(6, 4, rng)]
    _, _, near, leaky = planted = planted_effects(1e-10)
    povms += [DiscretePOVM(regions=equal_partition(circle_full(), 1),
                           effects=[E]) for E in planted]
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda X, *a, **k: seen.append(X) or svd(X, *a, **k))
    povm_validate(povms[0], NUMERIC_TOL)
    povm_validate(povms[1])
    for p in povms[2:]:
        povm_validate(p, 1e-10)
    sums = [X for X in seen if X.ndim == 2]
    assert len(sums) == len(povms)
    for X, p in zip(sums, povms):
        assert np.array_equal(X, p.total() - np.eye(p.dim))
    seen = [X for X in seen if X.ndim == 3]
    R = near @ near - near
    expected = [R, R, leaky, leaky - adjoint(leaky)]
    assert len(seen) == len(expected)
    for X, Y in zip(seen, expected):
        assert X.shape == (1,) + Y.shape and np.allclose(X[0], Y, rtol=0,
                                                         atol=1e-20)


@pytest.mark.parametrize("d", [3, 4, 6, 8])
def test_norm_one_dilation_is_unitary_to_rounding(d):
    # ||T|| = 1 and T not normal: I - T*T and I - TT* are singular, and the
    # dilation stays unitary to rounding only if their square roots share
    # one SVD of T
    for seed in range(8):
        r = np.random.default_rng(seed)
        T = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
        T /= opnorm(T)
        U = dilation(T, 8)
        assert opnorm(adjoint(U) @ U - np.eye(len(U))) < 1e-13
        _, rep = contraction_moment_povm(T, 8, 16)
        assert rep.moment_residuals.max() <= 1e-12


# --------------------------------------------------------------------------
# the one-pass moment POVM against the per-block, per-cell construction it
# replaced, kept here as the reference


def put_loop_dilation(T, M):
    """Reference circular dilation, filled block by block."""
    d = T.shape[0]
    K = 2 * M
    W, S, Xs = np.linalg.svd(T)
    C = np.sqrt(np.clip(1.0 - S * S, 0.0, None))
    U = np.zeros((K * d, K * d), dtype=complex)

    def put(r, c, block):
        U[r * d:(r + 1) * d, c * d:(c + 1) * d] = block

    put(0, 0, T)
    put(1, 0, (adjoint(Xs) * C) @ Xs)
    put(0, K - 1, -((W * C) @ adjoint(W)))
    put(1, K - 1, adjoint(T))
    for c in range(1, K - 1):
        put(c + 1, c, np.eye(d))
    return U


def hermitian_part_candidate(U):
    """Reference Cayley point rule: the first candidate pi (2k + 1) / (2N)
    at which the Hermitian part of e^{-i alpha} U has top eigenvalue at most
    cos(pi / (4N)), that is, whose distance to the spectrum is at least
    pi / (4N)."""
    N = len(U)
    for k in range(2 * N):
        z = np.exp(1j * np.pi * (2 * k + 1) / (2 * N))
        H = (np.conj(z) * U + z * adjoint(U)) / 2
        if np.linalg.eigvalsh(H)[-1] <= np.cos(np.pi / (4 * N)):
            return k
    raise AssertionError("no candidate off the spectrum")


def cayley_candidate(U, monkeypatch):
    """Index of the candidate ``_unitary_eigh`` accepts: it makes one solve
    per candidate tried and stops at the one it accepts."""
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a: solves.append(1) or solve(*a))
    _unitary_eigh(U)
    monkeypatch.undo()
    return len(solves) - 1


def per_cell_binning(T, M, cells):
    """Reference binning of the spectrum the function bins: sorted phases,
    one slice, one in-order sum of the point masses and one trace per
    cell."""
    d = T.shape[0]
    thetas, masses = _block0_spectrum(T, M, _defect_svd(T))
    thetas[thetas >= np.pi - 1e-15] = -np.pi
    order = np.argsort(thetas, kind="stable")
    thetas, masses = thetas[order], masses[order]
    regions = equal_partition(RegionSet.circle([(-np.pi, np.pi)]), cells)
    a, b = np.array([region.cells[0] for region in regions]).T - 1e-12
    effects = [sum(masses[i:j], np.zeros((d, d)))
               for i, j in zip(np.searchsorted(thetas, a),
                               np.searchsorted(thetas, b))]
    return effects, np.array([E.trace().real / d for E in effects])


def blocked_candidates(d, M):
    """Diagonal unitary T whose eigenphases sit on the first d Cayley
    candidates of its dilation, so each of them is blocked."""
    N = 2 * M * d
    return np.diag(np.exp(1j * np.pi * (2 * np.arange(d) + 1) / (2 * N)))


def differential_inputs(d):
    r = np.random.default_rng(100 + d)
    A = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
    return {"random": 0.7 * A / opnorm(A), "norm-one": A / opnorm(A),
            "unitary": np.linalg.qr(A)[0], "blocked": blocked_candidates(d, 8)}


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_circular_dilation_matches_the_put_loop_bit_for_bit(d):
    for T in differential_inputs(d).values():
        for M in (1, 2, 8):
            assert np.array_equal(dilation(T, M),
                                  put_loop_dilation(T, M))


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["random", "norm-one", "unitary", "blocked"])
def test_cayley_eigenvalue_rule_picks_the_hermitian_part_candidate(
        d, kind, monkeypatch):
    T = differential_inputs(d)[kind]
    for M in ((8, 32) if d < 8 else (8,)):
        U = dilation(T, M)
        k = hermitian_part_candidate(U)
        assert cayley_candidate(U, monkeypatch) == k
        if kind == "blocked" and M == 8:
            assert k == d


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["random", "norm-one", "unitary", "blocked"])
@pytest.mark.parametrize("cells", [1, 7, 64])
def test_one_pass_binning_matches_the_per_cell_reference(d, kind, cells):
    T = differential_inputs(d)[kind]
    M = 8 if d == 8 else 32
    p, rep = contraction_moment_povm(T, M, cells)
    effects, masses = per_cell_binning(T, M, cells)
    assert len(p.effects) == len(effects) == cells
    # both sum the point masses of a cell in phase order, at every d; the
    # trace of a 1 x 1 effect is the effect itself
    assert all(np.array_equal(E, ref) for E, ref in zip(p.effects, effects))
    if d == 1:
        assert np.array_equal(rep.cell_masses, masses)
    assert np.abs(rep.cell_masses - masses).max() <= 1e-13


def test_one_pass_binning_with_empty_cells_and_a_phase_on_an_edge():
    # 16 phases in 64 cells leave most cells empty; the phase of T sits
    # exactly on the left edge of cell 21
    edge = equal_partition(circle_full(), 64)[21].cells[0][0]
    T = np.array([[np.exp(1j * edge)]])
    p, rep = contraction_moment_povm(T, 8, 64)
    effects, masses = per_cell_binning(T, 8, 64)
    assert sum(not E.any() for E in effects) > 40
    assert all(np.array_equal(E, ref) for E, ref in zip(p.effects, effects))
    assert np.array_equal(rep.cell_masses, masses)
    assert rep.cell_masses[21] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta", [5e-13, 2e-12, 1e-16])
def test_phase_just_below_pi_lands_in_a_cell(delta):
    # the binning edges sit 1e-12 below the arc edges, so a phase in
    # [pi - 1e-12, pi) is -pi up to rounding and goes to cell 0
    p, rep = contraction_moment_povm(np.array([[np.exp(1j * (np.pi - delta))]]),
                                     8, 16)
    assert povm_validate(p, NUMERIC_TOL).ok
    assert rep.cell_masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert rep.cell_masses[0 if delta < 1e-12 else 15] == pytest.approx(
        1.0, abs=1e-12)


@pytest.mark.parametrize("M", [0, -1, 2.5, 2.0, True])
def test_moment_depth_must_be_a_positive_integer(M):
    with pytest.raises(ValueError, match="moment depth M"):
        contraction_moment_povm(np.array([[0.5]]), M, 16)


@pytest.mark.parametrize("cells", [0, -1, 2.5, np.float64(4.0), True])
def test_cell_count_must_be_a_positive_integer(cells):
    with pytest.raises(ValueError, match="cell count cells"):
        contraction_moment_povm(np.array([[0.5]]), 8, cells)


def test_numpy_integer_cell_count_accepted():
    p, rep = contraction_moment_povm(np.array([[0.5]]), 8, np.int64(4))
    assert len(p.effects) == 4
    assert rep.cell_masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_empty_contraction_rejected_naming_its_shape():
    with pytest.raises(ValueError, match=r"shape \(0, 0\)"):
        contraction_moment_povm(np.zeros((0, 0)), 8, 16)


def test_numpy_integer_moment_depth_accepted():
    _, rep = contraction_moment_povm(np.array([[0.5]]), np.int64(8), 16)
    assert rep.moment_residuals.max() <= 1e-10


@pytest.mark.parametrize("regions, effects, message", [
    ([], [], "empty partition"),
    (equal_partition(circle_full(), 2), [np.eye(2)],
     "regions and effects must have equal length"),
    (equal_partition(circle_full(), 2), [np.eye(2), np.eye(3)],
     "effects must be matrices of one shape, got a ragged input"),
    (equal_partition(circle_full(), 2), [np.ones((2, 3))] * 2,
     r"effects must be a square matrix or a stack of them, of nonzero "
     r"size, got shape \(2, 2, 3\)"),
    (equal_partition(circle_full(), 2), [np.ones(2)] * 2,
     r"effects must be a stack \(k, d, d\), not one matrix, "
     r"got shape \(2, 2\)"),
    (equal_partition(circle_full(), 2), [np.eye(2), np.full((2, 2), np.nan)],
     "effects must be finite"),
    (equal_partition(circle_full(), 2), [np.eye(2), np.diag([1.0, np.inf])],
     "effects must be finite"),
])
def test_discrete_povm_error_messages(regions, effects, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DiscretePOVM(regions=regions, effects=effects)


def test_discrete_povm_keeps_a_complex_stack_of_effects():
    p = DiscretePOVM(regions=equal_partition(circle_full(), 2),
                     effects=[np.eye(2), np.zeros((2, 2), dtype=int)])
    assert isinstance(p.effects, np.ndarray)
    assert p.effects.dtype == complex and p.effects.shape == (2, 2, 2)
    assert np.array_equal(p.effects, [np.eye(2), np.zeros((2, 2))])
    assert p.dim == 2


def per_effect_random_povm(d, k, rng):
    """Reference random POVM, one draw, one Gram matrix and one product per
    effect, summed with Python's sum."""
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(k)]
    gram = [adjoint(A) @ A for A in mats]
    lam, V = np.linalg.eigh((sum(gram) + adjoint(sum(gram))) / 2.0)
    S_isqrt = (V / np.sqrt(lam)) @ adjoint(V)
    return [S_isqrt @ G @ S_isqrt for G in gram]


@pytest.mark.parametrize("d, k", [(1, 3), (1, 16), (4, 2), (8, 4), (16, 8)])
def test_naimark_roots_are_the_per_effect_roots_bit_for_bit(d, k):
    # the stacked random POVM, Naimark roots and compressions, total,
    # probabilities and functional calculus against their per-effect loops
    p = random_povm(d, k, np.random.default_rng(d * k))
    effects = per_effect_random_povm(d, k, np.random.default_rng(d * k))
    assert np.array_equal(p.effects, effects)
    assert np.array_equal(p.total(), sum(effects))
    dil = naimark_dilate(p)
    assert np.array_equal(dil.isometry,
                          np.vstack([sqrtm_psd(E) for E in p.effects]))
    blocks = [dil.isometry[i * d:(i + 1) * d] for i in range(k)]
    compressions = [adjoint(J) @ J for J in blocks]
    assert np.array_equal(dil.compressions(), compressions)
    assert np.array_equal(opnorm(dil.compressions() - p.effects),
                          [opnorm(C - E) for C, E in zip(compressions, effects)])
    J = dil.isometry
    assert dil.isometry_residual == opnorm(adjoint(J) @ J - np.eye(d))
    assert dil.report == povm_validate(p, NUMERIC_TOL)
    T = rand_density(d)
    assert np.array_equal(state_to_measure(p, T),
                          [np.trace(E @ T).real for E in effects])
    values = np.random.default_rng(k).standard_normal(k) + 0.5j
    mids = [0.5 * sum(region.cells[0]) for region in p.regions]
    psi = np.zeros((d, d), dtype=complex)
    for value, E in zip(values, effects):
        psi += value * E
    assert np.array_equal(
        povm_integrate(p, lambda x: values[mids.index(x)]), psi)


def test_naimark_tests_its_effects_hermitian_once(monkeypatch):
    # the validation's is_effect tests the stack; the roots test nothing
    calls, real = [], operators._hermitian_stack
    monkeypatch.setattr(operators, "_hermitian_stack",
                        lambda *a: calls.append(a) or real(*a))
    naimark_dilate(random_povm(4, 3, np.random.default_rng(2)))
    assert len(calls) == 1


def test_povm_suite_validates_three_times(monkeypatch):
    # povm.random.sum is read from the dilation's own validation
    calls, real = [], povm.povm_validate
    monkeypatch.setattr(povm, "povm_validate",
                        lambda *a: calls.append(a) or real(*a))
    report = harness.run_suite(harness.SuiteConfig(suite="povm"))
    assert report["summary"]["failed"] == 0
    assert len(calls) == 3


@pytest.mark.parametrize("d", [1, 8])
def test_moment_povm_takes_one_svd_of_t(d, monkeypatch):
    # one SVD of T serves the contraction check and both defect operators;
    # np.linalg.norm reaches the SVD through numpy.linalg._linalg
    r = np.random.default_rng(d)
    T = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
    T = 0.9 * T / opnorm(T)
    seen = []
    for module in (np.linalg, np.linalg._linalg):
        real = module.svd
        monkeypatch.setattr(module, "svd", lambda X, *a, real=real, **k:
                            seen.append(np.array(X)) or real(X, *a, **k))
    _, rep = contraction_moment_povm(T, 8, 16)
    assert rep.moment_residuals.max() <= 1e-12
    assert sum(X.shape == T.shape and np.array_equal(X, T) for X in seen) == 1


# --------------------------------------------------------------------------
# the closed-form spectrum of a scalar dilation against the dense Cayley
# path and the Schur reference

SCALARS = {
    "0": 0.0, "0.5": 0.5, "-0.9": -0.9, "0.3+0.4i": 0.3 + 0.4j,
    # a pair of roots split by 2 s / sqrt(K - 1) on either side of phase 0
    "1-1e-9": 1 - 1e-9,
    # the SVD gives |t| = 1 + 2e-16, so s is clipped to 0
    "norm-one above": np.exp(0.1j),
    # the SVD gives |t| = 1 - 1e-16, so s = 1.5e-8
    "norm-one below": np.exp(3j),
    "e^0.7i": np.exp(0.7j),
    "e^i(pi-1e-13)": np.exp(1j * (np.pi - 1e-13)),
    # the left edge of cell 5 of 16; at M = 8 also a double root
    "cell edge": np.exp(1j * (-np.pi + 2 * np.pi * 5 / 16)),
    # t^K = 1: t is also a root of lambda^{K-1} = conj t
    "double root": 1.0,
    # |t| rounds to 1 - 1e-16, so s = 1.5e-8, and t^K = 1 for K = 64 k: a
    # pair of roots 2 s / sqrt(K - 1) apart straddles the arc end at arg t
    "arc-end pair": np.exp(2j * np.pi * 3 / 64),
}


def grouped_spectrum(thetas, weights, split=1e-9):
    """Phases mapped and sorted as contraction_moment_povm does, and the
    weights summed over phases closer than ``split``: a double eigenvalue's
    weight splits arbitrarily between the eigenvectors a solver returns."""
    thetas = thetas.copy()
    thetas[thetas >= np.pi - 1e-12] = -np.pi
    order = np.argsort(thetas, kind="stable")
    thetas, weights = thetas[order], weights[order]
    starts = np.flatnonzero(np.diff(thetas, prepend=-np.inf) > split)
    return thetas, starts, np.add.reduceat(weights, starts)


@pytest.mark.parametrize("M", [1, 2, 8, 32, 256])
@pytest.mark.parametrize("name", list(SCALARS))
def test_scalar_spectrum_matches_the_dense_and_schur_references(name, M):
    T = np.array([[SCALARS[name]]], dtype=complex)
    found = _scalar_spectrum(complex(T[0, 0]), _defect_svd(T)[1][0], M)
    assert found is not None
    # the two weights of the "arc-end pair", 3.7e-9 apart at M = 32, are
    # conditioned by eps / split in every solver (the dense and Schur
    # references differ by 2e-7 at M = 32), and their sum is not: the pair
    # is compared as one group
    split = 1e-7 if name == "arc-end pair" else 1e-9
    thetas, starts, weights = grouped_spectrum(*found, split)
    assert np.abs(weights.sum() - 1) <= 1e-12
    U = dilation(T, M)
    dense_thetas, V = _unitary_eigh(U)
    refs = [(grouped_spectrum(dense_thetas, np.abs(V[0]) ** 2, split), 1e-12)]
    if M <= 32:         # the Schur form of the 512 x 512 U takes 2 s
        linalg = pytest.importorskip("scipy.linalg")
        S, Q = linalg.schur(U, output="complex")
        # the Schur vectors of the pair of "1-1e-9" are accurate only to
        # about eps / split, 2e-11 at M = 32, where the closed form agrees
        # with a 50-digit refinement of its roots to 2e-16 (at M = 256)
        refs.append((grouped_spectrum(np.angle(np.diag(S)), np.abs(Q[0]) ** 2,
                                      split),
                     1e-10 if name == "1-1e-9" else 1e-12))
    for ref, tol in refs:
        assert np.abs(thetas - ref[0]).max() <= 1e-12
        assert np.array_equal(starts, ref[1])
        assert np.abs(weights - ref[2]).max() <= tol
    _, rep = contraction_moment_povm(T, M, 2 * M)
    assert rep.moment_residuals.max() <= 1e-12


# t = r e^{i a} over the closed unit disc, r drawn near 0, uniformly and
# within 10^-k of 1 (1 - r down to one ulp, and |t| = 1 itself)
RADII = st.one_of(st.floats(0.0, 1.0), st.just(1.0),
                  st.integers(1, 16).map(lambda k: 1 - 10.0 ** -k),
                  st.just(1 - 2.0 ** -53))
ANGLES = st.one_of(st.floats(-np.pi, np.pi),
                   st.sampled_from([0.0, np.pi, -np.pi + 2 * np.pi * 5 / 16]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t=st.builds(lambda r, a: r * np.exp(1j * a), RADII, ANGLES))
@example(t=np.exp(2j * np.pi * 3 / 64))         # an arc end: t^64 = 1
@example(t=np.exp(0.7j))                        # unitary
@example(t=1 - 2.0 ** -53)
@example(t=0.0)
def test_scalar_spectrum_is_sound(t):
    # whatever the closed form certifies lies on the spectrum of the dense
    # dilation U: U is unitary, so sigma_min(U - e^{i theta} I) is the
    # distance of e^{i theta} from its spectrum; and the block-0 weights
    # of an orthonormal eigenbasis sum to ||e_0||^2 = 1
    T = np.array([[t]], dtype=complex)
    s = _defect_svd(T)[1][0]
    for M in (1, 2, 8, 32):
        found = _scalar_spectrum(complex(t), s, M)
        if found is None:
            continue
        thetas, weights = found
        U = dilation(T, M)
        shifted = U - np.exp(1j * thetas)[:, None, None] * np.eye(len(U))
        distance = np.linalg.svd(shifted, compute_uv=False)[:, -1]
        assert distance.max() <= NUMERIC_TOL, (t, M, distance.max())
        assert abs(weights.sum() - 1) <= 1e-12, (t, M)


def test_scalar_moment_povm_takes_no_dense_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(povm, "_unitary_eigh", refuse)
    monkeypatch.setattr(povm, "_circular_dilation", refuse)
    for t in SCALARS.values():
        _, rep = contraction_moment_povm(np.array([[t]]), 32, 64)
        assert rep.moment_residuals.max() <= 1e-12


def dense_calls(monkeypatch):
    """A list that grows by one on every call of ``_unitary_eigh``."""
    calls, real = [], povm._unitary_eigh
    monkeypatch.setattr(povm, "_unitary_eigh",
                        lambda U: calls.append(len(U)) or real(U))
    return calls


@pytest.mark.parametrize("t, depths", [
    (1 - 2.0 ** -53, (8, 32, 256, 1024)),
    (np.exp(2j * np.pi * 3 / 64), (32, 256, 1024)),
], ids=["1-2^-53", "e^(2 pi i 3/64)"])
def test_roots_on_an_arc_end_take_no_dense_solve(monkeypatch, t, depths):
    # |t| rounds to 1 - 1e-16, so s = 1.5e-8, and t^K = 1 with arg t on an
    # arc end: g's value there, about 1 - |t|, is below its rounding, but
    # the phase keeps a margin of 2 arccos|t| = 3e-8 at every arc end
    T = np.array([[t]])
    s = _defect_svd(T)[1][0]
    r = abs(t)
    assert s > 0 and 1 - r < 2 * np.finfo(float).eps
    assert abs(t ** (2 * depths[0]) - 1) < 1e-12
    calls = dense_calls(monkeypatch)
    for M in depths:
        p, rep = contraction_moment_povm(T, M, 2 * M)
        assert rep.moment_residuals.max() <= 1e-12
        assert abs(rep.cell_masses.sum() - 1) <= 1e-12
    assert calls == []


def test_phase_margin_within_rounding_is_refused():
    # a defect of 1e-15 with |t| = 1 - 1e-16 leaves the phase 2e-15 from
    # its targets at the arc ends, below their rounding: no arc is
    # certified, and the caller falls back to the dense path
    assert _scalar_spectrum(1 - 2.0 ** -53, 1e-15, 8) is None
    assert _scalar_spectrum(1 - 2.0 ** -53, _defect_svd(
        np.array([[1 - 2.0 ** -53]]))[1][0], 8) is not None


def test_wrong_roots_fail_the_residual_certificate(monkeypatch):
    # roots moved by 1e-6 leave |g| ~ M 1e-6 in every arc: the residual
    # bound exceeds NUMERIC_TOL, and the dense path diagonalises U
    real = povm._arc_roots
    monkeypatch.setattr(povm, "_arc_roots", lambda *a: real(*a) + 1e-6)
    T = np.array([[0.5]])
    assert _scalar_spectrum(0.5, _defect_svd(T)[1][0], 32) is None
    calls = dense_calls(monkeypatch)
    _, rep = contraction_moment_povm(T, 32, 64)
    assert calls == [64] and rep.moment_residuals.max() <= 1e-12


# --------------------------------------------------------------------------
# the powers of T by doubling and the 1 x 1 residuals as moduli, against
# the repeated matmuls and the SVD norms


def loop_powers(T, M):
    """T^0, ..., T^{M-1} by M - 1 repeated matmuls."""
    powers = [np.eye(len(T), dtype=complex)]
    for _ in range(1, M):
        powers.append(powers[-1] @ T)
    return np.array(powers)


@pytest.mark.parametrize("t", [0.0, 0.5, np.exp(0.7j)],
                         ids=["0", "0.5", "e^0.7i"])
def test_scalar_moments_match_the_matmul_loop(t, monkeypatch):
    # the three scalars of the povm suite: powers of 0 and 0.5 are exact
    # either way, so their residuals are the loop's bit for bit; those of
    # e^{0.7i} stay within n eps, and every binned effect is the loop's
    T = np.array([[t]], dtype=complex)
    p, fast = contraction_moment_povm(T, 32, 64)
    eps = np.finfo(float).eps
    n = np.arange(32)
    doubled, looped = _powers(T, 32), loop_powers(T, 32)
    assert (np.abs(doubled - looped)[:, 0, 0] <= n * eps).all()
    monkeypatch.setattr(povm, "_powers", loop_powers)
    monkeypatch.setattr(povm, "_modulus", lambda z: opnorm(z[:, None, None]))
    q, loop = contraction_moment_povm(T, 32, 64)
    assert np.array_equal(p.effects, q.effects)
    assert np.array_equal(fast.cell_masses, loop.cell_masses)
    if t in (0.0, 0.5):
        assert np.array_equal(doubled, looped)
        assert np.array_equal(fast.moment_residuals, loop.moment_residuals)
    else:
        assert (np.abs(fast.moment_residuals - loop.moment_residuals)
                <= n * eps).all()


@pytest.mark.parametrize("M", [1, 2, 3, 5, 32, 33, 256, 1024])
def test_doubled_powers_stay_within_n_eps_of_the_loop(M):
    # T^n doubled against T^n by repeated products, for seeded scalars
    # |t| <= 1 and for 3 x 3 contractions (within n d eps in norm)
    draw = np.random.default_rng(M)
    eps = np.finfo(float).eps
    n = np.arange(M)[:, None, None]
    for _ in range(20):
        t = draw.uniform(0, 1) * np.exp(1j * draw.uniform(-np.pi, np.pi))
        T = np.array([[t]])
        doubled = _powers(T, M)
        assert doubled.shape == (M, 1, 1)
        assert (np.abs(doubled - loop_powers(T, M)) <= n * eps).all()
        A = _rand_complex(draw, 3)
        A *= draw.uniform(0.5, 1) / opnorm(A)
        assert (opnorm(_powers(A, M) - loop_powers(A, M))
                <= 3 * n[:, 0, 0] * eps).all()


def test_modulus_is_the_svd_norm_of_a_1x1_bit_for_bit():
    draw = np.random.default_rng(3)
    z = (draw.standard_normal(4096) + 1j * draw.standard_normal(4096)) \
        * 10.0 ** draw.integers(-17, 3, 4096)
    z[:64] = z[:64].real
    z[64:128] = 1j * z[64:128].imag
    z[128:136] = 0.0
    assert np.array_equal(_modulus(z), opnorm(z[:, None, None]))
