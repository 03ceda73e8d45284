import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import povmlab
from povmlab.operators import EFFECT, NUMERIC_TOL, PROJECTION, adjoint, opnorm
from povmlab.povm import (DiscretePOVM, contraction_moment_povm,
                          naimark_dilate, povm_integrate, povm_validate,
                          random_povm, state_to_measure)
from povmlab.regions import RegionSet, circle_full, equal_partition

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
    cases = [
        (unitary, 1e-8, True),
        (unsharp, 1e-8, False),
        (unsharp, 1e-10, False),
        (coordinate, 1e-8, True),
        (coordinate, 1e-10, False),
    ]
    for p, tol, expected in cases:
        assert pair_loop_multiplicative(p, tol) is expected
        assert povm_validate(p, tol).multiplicative is expected


def test_import_leaves_scipy_unloaded():
    # scipy.linalg is most of a cold start; only the contraction POVM uses it
    src = str(Path(povmlab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import povmlab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
