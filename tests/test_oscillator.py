import numpy as np
import pytest

from povmlab.operators import adjoint, opnorm
from povmlab.oscillator import (commutator_defect, covariance_residual,
                                gibbs, number_operator, phase_effect,
                                thermal_covariance_residual, toeplitz_arg,
                                weyl_failure_check)
from povmlab.regions import RegionSet, circle_full, equal_partition

rng = np.random.default_rng(41)


def test_phase_effect_closed_entries_d2():
    B = RegionSet.circle([(0.0, np.pi)])
    E = phase_effect(B, 2)
    expected = np.array([[0.5, 1j / np.pi], [-1j / np.pi, 0.5]])
    assert opnorm(E - expected) < 1e-14


def test_phase_effects_sum_to_identity():
    for k in (2, 5, 8):
        total = sum(phase_effect(B, 10) for B in equal_partition(circle_full(), k))
        assert opnorm(total - np.eye(10)) < 1e-12


def test_phase_effect_additive_in_region():
    B1 = RegionSet.circle([(0.0, 1.0)])
    B2 = RegionSet.circle([(1.0, 2.5)])
    B = RegionSet.circle([(0.0, 2.5)])
    assert opnorm(phase_effect(B1, 6) + phase_effect(B2, 6)
                  - phase_effect(B, 6)) < 1e-13


def test_covariance_closed_form():
    for _ in range(10):
        t = float(rng.uniform(-4, 4))
        a = float(rng.uniform(-np.pi, np.pi))
        B = RegionSet.circle([(a, a + float(rng.uniform(0.1, 2.0)))])
        assert covariance_residual(16, t, B) < 1e-12


def test_toeplitz_arg_entries():
    F = toeplitz_arg(4)
    assert F[0, 0] == 0
    assert abs(F[1, 0] - (-1j)) < 1e-15          # c_1 = -i
    assert abs(F[2, 0] - 1j / 2) < 1e-15         # c_2 = i/2
    assert abs(F[0, 1] - 1j) < 1e-15             # c_{-1} = i
    assert opnorm(F - adjoint(F)) < 1e-14        # selfadjoint


def test_commutator_defect_rank_one():
    info = commutator_defect(32)
    assert info["rank_one_ratio"] < 1e-10
    assert info["alternating_alignment"] > 1 - 1e-12
    assert abs(info["top_singular_value"] - 32.0) < 1e-10
    assert info["orthogonal_commutator_residual"] < 1e-10


def test_commutator_on_orthogonal_vectors():
    d = 16
    N = number_operator(d)
    F = toeplitz_arg(d)
    C = N @ F - F @ N
    v = ((-1.0) ** np.arange(d)).astype(complex)
    for _ in range(5):
        h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        h -= (np.vdot(v, h) / np.vdot(v, v)) * v
        assert np.linalg.norm(C @ h + 1j * h) < 1e-10 * np.linalg.norm(h)


def test_weyl_failure_regression():
    assert weyl_failure_check(8, np.pi, 1.0) >= 0.1


def test_gibbs_limits():
    assert opnorm(gibbs(0.0, 5) - np.eye(5) / 5) < 1e-15
    with pytest.raises(ValueError):
        gibbs(-1.0, 4)


def test_thermal_covariance():
    for beta in (0.5, 1.0):
        for _ in range(5):
            t = float(rng.uniform(-1, 1))
            a = float(rng.uniform(-np.pi, np.pi))
            B = RegionSet.circle([(a, a + 1.0)])
            assert thermal_covariance_residual(beta, 12, [(t, B)]) < 1e-8


def test_worst_thermal_residual_is_max_over_single_samples():
    # one triple for all samples gives exactly the residuals of one triple each
    draw = np.random.default_rng(5)
    samples = [(float(t), RegionSet.circle([(a, a + 1.0)]))
               for t, a in zip(draw.uniform(-1, 1, 4),
                               draw.uniform(-np.pi, np.pi, 4))]
    singles = [thermal_covariance_residual(0.7, 10, [s]) for s in samples]
    assert thermal_covariance_residual(0.7, 10, samples) == max(singles)


def test_thermal_rotation_direction_frozen():
    # the flow of an asymmetric arc matches rotation by -beta*t and is far
    # from rotation by +beta*t; guards against a silent sign flip
    from povmlab.modular import build_modular, left_mult
    beta, d, t = 1.0, 8, 0.7
    B = RegionSet.circle([(0.2, 1.2)])
    triple = build_modular(gibbs(beta, d))
    flowed = triple.flow(t, left_mult(phase_effect(B, d)))
    good = left_mult(phase_effect(B.shifted(-beta * t), d))
    bad = left_mult(phase_effect(B.shifted(beta * t), d))
    assert opnorm(flowed - good) < 1e-8
    assert opnorm(flowed - bad) > 1e-2


@pytest.mark.parametrize("d", [4, 8, 12, 14])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_carrier_flow_of_a_phase_effect_is_its_algebra_flow(d, beta):
    # thermal_covariance_residual flows E_B on the d x d algebra; the flow
    # of its left multiplication through the decomposed d^2 x d^2 Delta is
    # the dense reference
    from povmlab.modular import build_modular, left_mult
    triple = build_modular(gibbs(beta, d))
    for t, a in [(0.3, -1.0), (-0.8, 2.0), (1.0, 0.0)]:
        E = phase_effect(RegionSet.circle([(a, a + 1.0)]), d)
        assert opnorm(triple.flow(t, left_mult(E))
                      - left_mult(triple.flow(t, E))) < 1e-12


def test_thermal_guard():
    with pytest.raises(ValueError):
        thermal_covariance_residual(2.0, 16, [(0.5, RegionSet.circle([(0.0, 1.0)]))])
