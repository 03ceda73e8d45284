import numpy as np
import pytest

from povmlab.operators import (DEFAULT_TOL, adjoint, diag_conjugate,
                               imag_power, opnorm, partition_defect)
from povmlab.oscillator import (commutator_defect, covariance_residual,
                                gibbs, phase_effect,
                                thermal_covariance_residual, toeplitz_arg,
                                weyl_failure_check)
from povmlab.regions import RegionSet, circle_full, equal_partition
from test_operators import arc_covariance, toeplitz_part

rng = np.random.default_rng(41)
EPS = np.finfo(float).eps


def closed_form_phase_effect(B, d):
    """The dense arc effect (E_B)_{mn} = (1/2pi) int_B e^{i(n-m)theta}:
    per arc [a, b), diagonal (b-a)/2pi and off-diagonal
    (e^{ik b} - e^{ik a}) / (2 pi i k) with k = n - m, summed over arcs.
    An end at pi is the point -pi of the circle, and enters the
    exponentials as -pi."""
    idx = np.arange(d)
    k = idx[None, :] - idx[:, None]          # k = n - m
    E = np.zeros((d, d), dtype=complex)
    for a, b in B.cells:
        length = b - a
        a, b = (x - 2 * np.pi if x >= np.pi else x for x in (a, b))
        with np.errstate(divide="ignore", invalid="ignore"):
            off = (np.exp(1j * k * b) - np.exp(1j * k * a)) / (2j * np.pi * k)
        np.fill_diagonal(off, length / (2 * np.pi))
        E += off
    return E


REGIONS = [
    RegionSet.circle([(0.0, np.pi)]),
    RegionSet.circle([(-0.4, 1.3)]),
    RegionSet.circle([(2.5, 4.0)]),                  # wraps past pi
    RegionSet.circle([(-3.0, -2.0), (0.1, 2.9)]),
    RegionSet.circle([(-2.8, -2.1), (-0.5, 0.2), (1.0, 2.6)]),
]


@pytest.mark.parametrize("d", [1, 2, 3, 12, 34])
@pytest.mark.parametrize("B", REGIONS, ids=range(len(REGIONS)))
def test_phase_effect_block_is_the_closed_form_bit_for_bit(d, B):
    E = phase_effect(B, d)
    assert E.k == d and len(E.c) == 2 * d and E.c[d] == 0
    assert np.array_equal(E.dense(), closed_form_phase_effect(B, d))


@pytest.mark.parametrize("d", [4096, 16384, 65536])
def test_a_partition_of_the_circle_telescopes_at_large_d(d):
    # circle_full() ends at the double nearest pi, as it begins at its
    # negative: evaluated as two points, e^{ik pi} and e^{-ik pi} left
    # about 4e-17 in each generator entry of the sum, coherently, a bound
    # of 3.2e-13 at d = 4096 and 5.1e-12 at d = 65536 (osc.povm.sum's tol
    # is 1e-12); as one point the arcs telescope
    arcs = equal_partition(circle_full(), 6)
    defect = partition_defect(phase_effect(arcs, d))
    assert defect.bound[0] <= 1e-15


def test_phase_effect_closed_entries_d2():
    B = RegionSet.circle([(0.0, np.pi)])
    E = phase_effect(B, 2).dense()
    expected = np.array([[0.5, 1j / np.pi], [-1j / np.pi, 0.5]])
    assert opnorm(E - expected) < 1e-14


def test_phase_effects_sum_to_identity():
    for k in (2, 5, 8):
        total = sum(phase_effect(B, 10).dense()
                    for B in equal_partition(circle_full(), k))
        assert opnorm(total - np.eye(10)) < 1e-12


def test_phase_effect_additive_in_region():
    B1 = RegionSet.circle([(0.0, 1.0)])
    B2 = RegionSet.circle([(1.0, 2.5)])
    B = RegionSet.circle([(0.0, 2.5)])
    assert opnorm(phase_effect(B1, 6).dense() + phase_effect(B2, 6).dense()
                  - phase_effect(B, 6).dense()) < 1e-13


@pytest.mark.parametrize("call", [
    lambda: phase_effect(RegionSet.circle([(0.0, 1.0)]), 0),
    lambda: phase_effect(RegionSet.circle([(0.0, 1.0)]), -3),
    lambda: covariance_residual(0, 0.3, RegionSet.circle([(0.0, 1.0)])),
])
def test_empty_dimension_rejected_naming_d(call):
    with pytest.raises(ValueError, match="d must be at least 1"):
        call()


def test_covariance_closed_form():
    for _ in range(10):
        t = float(rng.uniform(-4, 4))
        a = float(rng.uniform(-np.pi, np.pi))
        B = RegionSet.circle([(a, a + float(rng.uniform(0.1, 2.0)))])
        value, certified = covariance_residual(16, t, B).norm(DEFAULT_TOL)
        assert certified and value < 1e-12


@pytest.mark.parametrize("d", [1, 2, 12, 64, 256])
def test_certified_covariance_bound_covers_the_dense_defect(d):
    # ||dense|| <= ||D|| + ||dense - D|| for the defect block D, whose
    # norm the certified bound covers; D is the Toeplitz part of the
    # residual's own dense defect, and dense - D is the rounding of the
    # phase products along each diagonal
    draw = np.random.default_rng(d)
    for B in REGIONS[1:]:
        t = float(draw.uniform(-np.pi, np.pi))
        phase = np.exp(-1j * t * np.arange(d))
        dense = (diag_conjugate(phase, closed_form_phase_effect(B, d))
                 - closed_form_phase_effect(B.shifted(t), d))
        defect = covariance_residual(d, t, B)
        D = toeplitz_part(defect.dense([0])[0])
        assert np.array_equal(D[:, 0], dense[:, 0])
        assert np.array_equal(D[0], dense[0])
        value, certified = defect.norm(DEFAULT_TOL)
        assert certified and value <= 1e-10
        assert value + np.linalg.norm(dense - D) >= opnorm(dense)


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
    N = np.diag(np.arange(d)).astype(complex)        # the number operator
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
            assert thermal_covariance_residual(
                beta, 12, [(t, B)]).norm(1e-8)[0] < 1e-8


def test_worst_thermal_residual_is_max_over_single_samples():
    # one triple for all samples gives exactly the residuals of one triple each
    draw = np.random.default_rng(5)
    samples = [(float(t), RegionSet.circle([(a, a + 1.0)]))
               for t, a in zip(draw.uniform(-1, 1, 4),
                               draw.uniform(-np.pi, np.pi, 4))]
    singles = [thermal_covariance_residual(0.7, 10, [s]) for s in samples]
    stack = thermal_covariance_residual(0.7, 10, samples)
    assert np.array_equal(stack.bound, [one.bound[0] for one in singles])
    for tol in (DEFAULT_TOL, 1e-30):
        assert stack.norm(tol) == max((one.norm(tol) for one in singles),
                                      key=lambda out: out[0])


def test_thermal_rotation_direction_frozen():
    # the flow of an asymmetric arc matches rotation by -beta*t and is far
    # from rotation by +beta*t; guards against a silent sign flip
    from povmlab.modular import build_modular, left_mult
    beta, d, t = 1.0, 8, 0.7
    B = RegionSet.circle([(0.2, 1.2)])
    triple = build_modular(gibbs(beta, d))
    flowed = triple.flow(t, left_mult(phase_effect(B, d).dense()))
    good = left_mult(phase_effect(B.shifted(-beta * t), d).dense())
    bad = left_mult(phase_effect(B.shifted(beta * t), d).dense())
    assert opnorm(flowed - good) < 1e-8
    assert opnorm(flowed - bad) > 1e-2


@pytest.mark.parametrize("d", [4, 8, 12, 14])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_carrier_flow_of_a_phase_effect_is_its_algebra_flow(d, beta):
    # thermal_covariance_residual flows E_B on the d x d algebra, densely
    # by the imag_power conjugation; the flow of its left multiplication
    # through the decomposed d^2 x d^2 Delta is the dense reference
    from povmlab.modular import build_modular, left_mult
    T = gibbs(beta, d)
    triple = build_modular(T)
    for t, a in [(0.3, -1.0), (-0.8, 2.0), (1.0, 0.0)]:
        E = phase_effect(RegionSet.circle([(a, a + 1.0)]), d).dense()
        U = imag_power(T, -t)
        assert opnorm(triple.flow(t, left_mult(E))
                      - left_mult(U @ E @ adjoint(U))) < 1e-12


def test_thermal_guard():
    with pytest.raises(ValueError):
        thermal_covariance_residual(2.0, 16, [(0.5, RegionSet.circle([(0.0, 1.0)]))])


@pytest.mark.parametrize("beta, d", [(0.0, 12), (0.5, 12), (1.0, 12),
                                     (1.0, 20), (0.5, 40)])
def test_certified_thermal_bound_covers_the_dense_flow_defect(beta, d):
    # the block path reads T^{-it} off the Gibbs density's diagonal; the
    # bound plus the rounding of forming the dense block covers the dense
    # defect of the imag_power flow, and at beta*d = 20, the guard's edge,
    # it holds
    from povmlab.modular import flow_phase
    T = gibbs(beta, d)
    draw = np.random.default_rng(d)
    for t, a in zip(draw.uniform(-1, 1, 4), draw.uniform(-np.pi, np.pi, 4)):
        B = RegionSet.circle([(a, a + 1.0)])
        E, target = phase_effect(B, d), phase_effect(B.shifted(-beta * t), d)
        defect = thermal_covariance_residual(beta, d, [(t, B)])
        value, certified = defect.norm(DEFAULT_TOL)
        assert certified and value <= 1e-12
        U = imag_power(T, -t)
        dense = U @ E.dense() @ adjoint(U) - target.dense()
        block = toeplitz_part(diag_conjugate(flow_phase(T, t), E.dense())
                              - target.dense())
        assert value + np.linalg.norm(dense - block) >= opnorm(dense)
        # below the bound the dense flow decides: it is the imag_power
        # conjugation bit for bit, and reads the same value
        assert np.array_equal(defect.dense(np.array([0])), dense[None])
        assert defect.norm(1e-30) == (opnorm(dense), False)


def test_thermal_takes_the_dense_flow_only_when_the_phase_is_refused(
        monkeypatch):
    # a density that is not diagonal has no flow phase: its ValueError
    # propagates, where only a phase that is not geometric sends a draw to
    # the dense flow
    from povmlab import oscillator
    gibbs = oscillator.gibbs
    U = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
    monkeypatch.setattr(oscillator, "gibbs",
                        lambda beta, d: U @ gibbs(beta, d) @ adjoint(U))
    B = RegionSet.circle([(0.3, 1.3)])
    with pytest.raises(ValueError, match="needs a diagonal density"):
        thermal_covariance_residual(1.0, 6, [(0.4, B)])


@pytest.mark.parametrize("d", [12, 4096])
def test_covariance_at_a_large_rotation_is_certified(d):
    # t = 1000.3 rounds its angles t n by ~|t| n eps, far beyond the
    # geometric check's allowance; the phase is formed from t reduced
    # modulo 2 pi, the same rotation (the arc ends of B.shifted(t) still
    # carry the rounding of a + t, which shows in the residual)
    B = RegionSet.circle([(0.3, 1.8)])
    t = 1000.3
    unreduced = np.exp(-1j * t * np.arange(d))[None]
    assert arc_covariance(unreduced, B, t)[0].bound[0] == np.inf
    value, certified = covariance_residual(d, t, B).norm(DEFAULT_TOL)
    assert certified and value <= 1e-10


@pytest.mark.parametrize("d", [1, 2, 12, 34])
def test_stacked_phase_effects_are_the_one_region_generators_bit_for_bit(d):
    # the regions include an empty one and arcs that wrap past pi
    regions = REGIONS + [RegionSet.circle([])] + REGIONS[::-1]
    E = phase_effect(regions, d)
    assert E.c.shape == (len(regions), 2 * d) and E.k == d
    for row, B in zip(E.c, regions):
        assert np.array_equal(row, phase_effect(B, d).c)


def _covariance_draws(count=10, seed=3):
    draw = np.random.default_rng(seed)
    ts = draw.uniform(-np.pi, np.pi, count).tolist()
    regions = [RegionSet.circle([(a, a + w)]) for a, w in zip(
        draw.uniform(-np.pi, np.pi, count), draw.uniform(0.1, 2.0, count))]
    return ts, regions


@pytest.mark.parametrize("d", [12, 256])
def test_stacked_covariance_is_the_worst_one_draw_call(d):
    ts, regions = _covariance_draws()
    singles = [covariance_residual(d, t, B) for t, B in zip(ts, regions)]
    stack = covariance_residual(d, ts, regions)
    assert np.array_equal(stack.bound, [one.bound[0] for one in singles])
    for tol in (DEFAULT_TOL, 1e-30):
        assert stack.norm(tol) == max((one.norm(tol) for one in singles),
                                      key=lambda out: out[0])
    with pytest.raises(ValueError, match="one entry per draw, got 9 and 10"):
        covariance_residual(d, ts[:9], regions)


def test_a_covariance_check_without_draws_is_refused():
    # shift_covariance refuses zero draws before any effect is built; an
    # empty Defect would otherwise die in np.argmax inside Defect.norm
    with pytest.raises(ValueError, match="needs at least one draw"):
        covariance_residual(12, [], [])


def test_a_refused_draw_alone_forms_its_dense_defect(monkeypatch):
    # the phase of draw 3 of 10 read as not geometric: its bound is inf,
    # its dense defect, and no other, is formed, and its value is the
    # dense SVD norm
    from povmlab import operators
    d, ts, regions = 12, *_covariance_draws()
    real_deviation, formed = operators.geometric_deviation, []

    def refused(phase):
        deviation, allowance = real_deviation(phase)
        deviation = deviation.copy()
        deviation[3] = 1.0
        return deviation, allowance

    def spy(phase, A):
        formed.append(A.shape)
        return diag_conjugate(phase, A)

    monkeypatch.setattr(operators, "geometric_deviation", refused)
    monkeypatch.setattr(operators, "diag_conjugate", spy)
    defect = covariance_residual(d, ts, regions)
    assert defect.bound[3] == np.inf and np.isfinite(np.delete(defect.bound,
                                                               3)).all()
    out = defect.norm(DEFAULT_TOL)
    assert formed == [(1, d, d)]
    monkeypatch.undo()
    dense = (diag_conjugate(np.exp(-1j * ts[3] * np.arange(d)),
                            closed_form_phase_effect(regions[3], d))
             - closed_form_phase_effect(regions[3].shifted(ts[3]), d))
    values = [covariance_residual(d, t, B).norm(DEFAULT_TOL)
              for t, B in zip(ts, regions)]
    assert all(certified for _, certified in values)
    values[3] = (opnorm(dense), False)
    assert out == max(values, key=lambda out: out[0])
