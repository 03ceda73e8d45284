import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import povmlab
from povmlab.operators import (EFFECT, NOT_EFFECT, NUMERIC_TOL, PROJECTION,
                               adjoint, is_effect, opnorm)
from povmlab.povm import (DiscretePOVM, _circular_dilation, _unitary_eigh,
                          contraction_moment_povm, naimark_dilate,
                          povm_integrate, povm_validate, random_povm,
                          state_to_measure)
from povmlab.regions import RegionSet, circle_full, equal_partition
from test_operators import planted_effects

rng = np.random.default_rng(23)


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
        for i in range(k):
            assert opnorm(dil.compress(i) - p.effects[i]) < 1e-12


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


def test_eigenphases_on_the_first_cayley_candidates():
    d, M = 4, 8
    N = 2 * M * d                        # size of the dilation
    alphas = np.pi * (2 * np.arange(d) + 1) / (2 * N)
    T = np.diag(np.exp(1j * alphas))
    U = _circular_dilation(T, M)
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
    S, V = linalg.schur(_circular_dilation(T, M), output="complex")
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
    thetas, _ = _unitary_eigh(_circular_dilation(T, M))
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
    # leaky itself, which scales the bound, with its Hermiticity defect
    unitary, _ = contraction_moment_povm(np.array([[np.exp(0.7j)]]), 32, 64)
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda X, *a, **k: seen.append(X) or svd(X, *a, **k))
    povm_validate(unitary, NUMERIC_TOL)
    povm_validate(random_povm(6, 4, rng))
    assert seen == []
    _, _, near, leaky = planted = planted_effects(1e-10)
    for E in planted:
        povm_validate(DiscretePOVM(regions=equal_partition(circle_full(), 1),
                                   effects=[E]), 1e-10)
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
        U = _circular_dilation(T, 8)
        assert opnorm(adjoint(U) @ U - np.eye(len(U))) < 1e-13
        _, rep = contraction_moment_povm(T, 8, 16)
        assert rep.moment_residuals.max() <= 1e-12
