from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmlab.operators import (DEFAULT_TOL, adjoint, diag_conjugate, opnorm,
                               shift_covariance)
from povmlab.weylnc import (MellinLattice, SymbolRep, _shift_diagonals,
                            conjugation_residual, htau_norm, indicator_Q,
                            nc_covariance_residual, nc_effect, nc_integral,
                            quantize, weyl_defect, weyl_relation_residual)
from povmlab.regions import RegionSet, equal_partition
from test_relativistic import exact_shift

rng = np.random.default_rng(61)


def selfdual_lattice(m):
    delta = float(np.sqrt(2 * np.pi / m))
    return MellinLattice(m, delta, -delta * (m // 2))


# (m, delta, u_min / delta): not self-dual, u_min != -delta * m / 2, and
# m/2 odd (10, 34) or even (16)
SKEWED = {10: (0.7, -3), 16: (0.45, 2), 34: (0.3, -20)}


def skewed_lattice(m):
    delta, j0 = SKEWED[m]
    return MellinLattice(m, delta, j0 * delta)


def dense_multiplier_Q(lat, values):
    """Dense reference: Phi diag(values) Phi* with Phi[l, k] =
    e^{i q_k u_l} / sqrt(m)."""
    Phi = np.exp(1j * np.outer(lat.u, lat.q)) / np.sqrt(lat.m)
    return (Phi * values) @ adjoint(Phi)


def test_shift_is_unitary_and_matches_exp_q():
    lat = selfdual_lattice(16)
    S = lat.shift(2 * lat.delta)
    assert opnorm(S @ adjoint(S) - np.eye(16)) < 1e-12
    assert opnorm(S - dense_multiplier_Q(
        lat, np.exp(2j * lat.delta * lat.q))) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.sampled_from(tuple(SKEWED)), data=st.data())
def test_indicator_q_matches_dense_reference(m, data):
    start = data.draw(st.integers(0, m - 1), label="start")
    length = data.draw(st.integers(1, m), label="length")
    lat = skewed_lattice(m)
    q0, dq = lat.q[0], lat.dual_spacing
    B = lat.q_region([(q0 + start * dq, q0 + (start + length) * dq)])
    ind = ((np.arange(m) - start) % m < length).astype(float)
    assert opnorm(indicator_Q(lat, B).dense() - dense_multiplier_Q(lat, ind)) < 1e-12


def from_nonzeros(lat, cols, vals):
    """The m x m matrix with the entry vals[l] at (l, cols[l])."""
    D = np.zeros((lat.m, lat.m), dtype=complex)
    D[np.arange(lat.m), cols] = vals
    return D


def test_weyl_defect_matches_dense_reference():
    for lat in [skewed_lattice(m) for m in SKEWED] + [selfdual_lattice(192)]:
        for s in (0.37, lat.dual_spacing):
            Es = np.diag(np.exp(1j * s * lat.u))
            for t in (2 * lat.delta, -3 * lat.delta):
                St = lat.shift(t)
                dense = Es @ St - np.exp(-1j * s * t) * St @ Es
                # on the lattice the norm is the largest nonzero modulus,
                # which the SVD of the dense defect must reproduce
                assert weyl_relation_residual(lat, s, t) == pytest.approx(
                    opnorm(dense), rel=1e-12, abs=1e-15), (lat.m, s, t)
                D = from_nonzeros(lat, *weyl_defect(lat, s, t))
                assert opnorm(D - dense) < 1e-12
        # a t off delta*Z has no lattice shift: both refuse it
        for residual in (weyl_defect, weyl_relation_residual):
            with pytest.raises(ValueError, match="lattice multiple"):
                residual(lat, 0.37, 0.6 * lat.delta)


def dense_weyl_defect(lat, s, t):
    """Reference: the defect with S(t) formed as a dense permutation."""
    St = lat.shift(t)
    Es = lat.exp_P(s)
    return Es[:, None] * St - np.exp(-1j * s * t) * St * Es[None, :]


def dense_quantize(lat, a):
    """Reference: the quantization summed over dense shift matrices."""
    O = np.zeros((lat.m, lat.m), dtype=complex)
    for (j, k), c in a.coeffs.items():
        u = j * lat.delta
        v = k * lat.dual_spacing
        O += c * np.exp(0.5j * u * v) * (lat.exp_P(v)[:, None] * lat.shift(u))
    return O


@pytest.mark.parametrize("m", tuple(SKEWED))
def test_lattice_shift_paths_match_dense_shift_formulas(m):
    lat = skewed_lattice(m)
    for j in (0, 1, -3, m - 1, m + 2):
        t = j * lat.delta
        for s in (0.37, 3 * lat.dual_spacing):
            assert np.array_equal(from_nonzeros(lat, *weyl_defect(lat, s, t)),
                                  dense_weyl_defect(lat, s, t)), (j, s)
    nyq = m // 2
    coeffs = {}
    for j in (0, 1, -3, nyq, -nyq):
        for k in (0, 2, -nyq):      # repeated j: terms share a diagonal
            coeffs[(j, k)] = complex(*rng.standard_normal(2))
    a = SymbolRep(coeffs=coeffs)
    assert np.array_equal(quantize(lat, a), dense_quantize(lat, a))
    for j in (m - 1, m + 2):        # beyond the Nyquist bound
        with pytest.raises(ValueError, match="Nyquist"):
            quantize(lat, SymbolRep(coeffs={(j, 1): 1.0}))


@pytest.mark.parametrize("m", [16, 34])
def test_compressed_indicator_is_the_positive_site_block(m):
    delta = 0.45
    for u_min in (0.0, -delta * m / 2, -3 * delta):
        lat = MellinLattice(m, delta, u_min)
        pos = lat.positive_sites
        assert np.array_equal(pos, np.arange(m - len(pos), m))
        q0, dq = lat.q[0], lat.dual_spacing
        regions = equal_partition(lat.q_region([]), 4) + [
            lat.q_region([(q0 + 3 * dq, q0 + 9 * dq)]),
            lat.q_region([(q0 + (m - 2) * dq, q0 + (m + 3) * dq)]),  # wraps
            lat.q_region([(q0 + 0.4 * dq, q0 + 5.3 * dq)]),          # misaligned
        ]
        for B in regions:
            assert np.array_equal(indicator_Q(lat, B, len(pos)).dense(),
                                  indicator_Q(lat, B).dense()[np.ix_(pos, pos)])


@pytest.mark.parametrize("m", [8, 10, 64])
@pytest.mark.parametrize("delta", [0.1, 0.45, 1.0, float(np.sqrt(2 * np.pi / 64))])
def test_positive_sites_equal_the_sites_at_or_above_zero(m, delta):
    # the suffix from -u_min / delta on is the old cut u >= -1e-12 of the
    # lattice's float sites, for u_min from -(m + 2) delta to 2 delta; a
    # lattice wholly below 0 (u_min <= -m delta) is refused
    for k in range(-(m + 2), 3):
        lat = MellinLattice(m, delta, k * delta)
        cut = np.flatnonzero(lat.u >= -1e-12)
        if len(cut) == 0:
            assert k <= -m
            with pytest.raises(ValueError, match="no site with u >= 0"):
                lat.positive_sites
        else:
            assert np.array_equal(lat.positive_sites, cut)


def test_positive_sites_reject_a_lattice_below_zero():
    lat = MellinLattice(16, 0.45, -20 * 0.45)
    with pytest.raises(ValueError, match="no site with u >= 0"):
        lat.positive_sites


def test_shift_rejects_misaligned():
    lat = selfdual_lattice(16)
    with pytest.raises(ValueError):
        lat.shift(0.3 * lat.delta)


def test_shift_of_a_huge_lattice_multiple_wraps_without_overflow():
    # 2^80 steps is 0 mod m: the shift is the identity permutation, where
    # adding the step count to the site indices overflowed int64
    lat = MellinLattice(16, 1.0, 0.0)
    for t in (2.0 ** 80, -2.0 ** 80):
        assert np.array_equal(lat.shift_columns(t), np.arange(16))


def test_weyl_relation_exact_path():
    lat = selfdual_lattice(64)
    # s on the dual grid, t a lattice multiple: exact
    assert weyl_relation_residual(lat, lat.dual_spacing, lat.delta) < 1e-12
    assert weyl_relation_residual(lat, 3 * lat.dual_spacing, 2 * lat.delta) < 1e-12


def test_weyl_relation_wrap_defect_reported():
    lat = selfdual_lattice(16)
    # generic s: the wrap-around seam contributes a visible defect
    assert weyl_relation_residual(lat, 0.37, lat.delta) > 1e-3


def make_real_symbol(lat):
    coeffs = {}
    xs = lat.x_grid
    a0 = np.zeros(lat.m)
    for _ in range(3):
        j = int(rng.integers(1, 5))
        k = int(rng.integers(0, 5))
        amp = float(rng.standard_normal())
        coeffs[(j, k)] = coeffs.get((j, k), 0.0) + 0.5 * amp
        coeffs[(-j, -k)] = coeffs.get((-j, -k), 0.0) + 0.5 * amp
        a0 += amp * np.cos(j * lat.delta * xs)
    return SymbolRep(coeffs=coeffs, a0_pos=a0.copy(), a0_neg=a0.copy())


def test_real_symbol_quantizes_selfadjoint():
    lat = selfdual_lattice(32)
    a = make_real_symbol(lat)
    A = quantize(lat, a)
    assert opnorm(A - adjoint(A)) < 1e-12


def test_quantize_rejects_beyond_nyquist():
    lat = selfdual_lattice(16)
    with pytest.raises(ValueError):
        quantize(lat, SymbolRep(coeffs={(9, 0): 1.0}))


def scatter(lat, diags):
    """Dense reference: each shift diagonal written to its entries."""
    O = np.zeros((lat.m, lat.m), dtype=complex)
    for j, d in diags.items():
        for l in range(lat.m):
            O[l, (l + j) % lat.m] = d[l]
    return O


CONJUGATION_LATTICES = {8: MellinLattice(8, 0.55, -0.55), **{
    m: skewed_lattice(m) for m in SKEWED}}


@pytest.mark.parametrize("m", tuple(CONJUGATION_LATTICES))
def test_conjugation_bound_covers_the_dense_defect(m, monkeypatch):
    lat = CONJUGATION_LATTICES[m]
    nyq = m // 2
    # repeated j; j = +/- m/2 share one diagonal; k = -m/2
    keys = [(0, 0), (1, 0), (1, 2), (-1, -nyq), (nyq, 1), (-nyq, -nyq),
            (3, -nyq), (2 - nyq, nyq)]
    a = SymbolRep(coeffs={key: complex(*rng.standard_normal(2))
                          for key in keys})
    diags = _shift_diagonals(lat, a)
    assert sorted(diags) == sorted({j % m for j, _ in keys})
    assert np.array_equal(scatter(lat, diags), quantize(lat, a))
    assert np.array_equal(quantize(lat, a), dense_quantize(lat, a))
    # the bound at rounding level, then for an O(1) defect: a_t built for -t
    real = SymbolRep.translated
    for wrong_direction in (False, True):
        if wrong_direction:
            monkeypatch.setattr(SymbolRep, "translated",
                                lambda self, lat, t: real(self, lat, -t))
        for steps in (1, 3, -2):
            t = steps * lat.dual_spacing
            dense = (diag_conjugate(np.exp(1j * t * lat.u), quantize(lat, a))
                     - quantize(lat, a.translated(lat, t)))
            defect = conjugation_residual(lat, t, a)
            value, certified = defect.norm(np.inf)
            assert certified and value >= opnorm(dense)
            # below the bound the dense SVD is reported unchanged
            assert defect.norm(0.5 * value) == (opnorm(dense), False)


def test_conjugation_shift_identity():
    lat = selfdual_lattice(32)
    a = make_real_symbol(lat)
    for steps in (1, 3):
        t = steps * lat.dual_spacing
        assert conjugation_residual(lat, t, a).norm(DEFAULT_TOL)[0] < 1e-10


def test_conjugation_refuses_a_translation_off_the_x_grid():
    # the translated symbol's own check refuses it, before any defect
    lat = selfdual_lattice(32)
    a = make_real_symbol(lat)
    for t in (0.5 * lat.dual_spacing, 2.3 * lat.dual_spacing):
        with pytest.raises(ValueError, match="multiple of the x-grid spacing"):
            conjugation_residual(lat, t, a)


def test_translation_invariance_of_integral_and_norm():
    lat = selfdual_lattice(32)
    a = make_real_symbol(lat)
    t = 2 * lat.dual_spacing
    at = a.translated(lat, t)
    assert abs(nc_integral(at, lat.x_length) - nc_integral(a, lat.x_length)) < 1e-13
    assert abs(htau_norm(at, lat.x_length) - htau_norm(a, lat.x_length)) < 1e-13


def test_channel_cancellation_is_exact_zero():
    lat = selfdual_lattice(16)
    a0 = rng.standard_normal(16)
    odd = SymbolRep(coeffs={}, a0_pos=a0, a0_neg=-a0)
    assert nc_integral(odd, lat.x_length) == 0.0


def test_indicator_q_is_projection_and_additive():
    lat = selfdual_lattice(32)
    parts = equal_partition(lat.q_region([]), 4)
    P = indicator_Q(lat, parts[0]).dense()
    assert opnorm(P @ P - P) < 1e-12
    total = sum(indicator_Q(lat, B).dense() for B in parts)
    assert opnorm(total - np.eye(32)) < 1e-12


def test_nc_effects_form_povm():
    lat = selfdual_lattice(32)
    parts = equal_partition(lat.q_region([]), 4)
    effects = [nc_effect(lat, B).dense() for B in parts]
    dim = len(lat.positive_sites)
    assert opnorm(sum(effects) - np.eye(dim)) < 1e-12


def test_nc_effect_rejects_misaligned():
    lat = selfdual_lattice(16)
    B = lat.q_region([(0.0, 0.4 * lat.dual_spacing)])
    with pytest.raises(ValueError):
        nc_effect(lat, B)


def test_indicator_q_rejects_a_region_off_the_q_spectral_circle():
    # the same cells on a circle of half the period: sampled on lat.q,
    # each point reduced modulo that period, they would mark the cells
    # twice over, which is not 1_B(Q); indicator_Q refuses them, alone and
    # as a member of a stack
    lat = selfdual_lattice(16)
    B = lat.q_region([(0.0, 2 * lat.dual_spacing)])
    off = RegionSet.line(B.cells, length=lat.x_length / 2, base=B.base / 2)
    assert off.indicator(lat.q).sum() == 2 * B.indicator(lat.q).sum()
    for regions in (off, [B, off]):
        with pytest.raises(ValueError, match="Q-spectral circle"):
            indicator_Q(lat, regions)
    indicator_Q(lat, [B, B])


def test_nc_covariance_exact_path():
    lat = selfdual_lattice(64)
    B = equal_partition(lat.q_region([]), 4)[0]
    for steps in (1, 3):
        t = steps * lat.dual_spacing
        assert exact_shift(B, t, lat.dual_spacing)
        assert nc_covariance_residual(lat, t, B).norm(DEFAULT_TOL)[0] < 1e-12


def test_nc_covariance_at_a_large_translation_is_certified():
    # 100 periods 2 pi / delta of the phase e^{itu} beyond t = 3 dual
    # steps: the unreduced angles t u round beyond the geometric check's
    # allowance, and the phase is formed from t reduced modulo the period
    lat = selfdual_lattice(64)
    B = equal_partition(lat.q_region([]), 4)[0]
    t = 3 * lat.dual_spacing + 100 * 2 * np.pi / lat.delta
    unreduced = shift_covariance(
        np.exp(1j * t * lat.u[lat.positive_sites])[None],
        partial(indicator_Q, lat, k=len(lat.positive_sites)), [B],
        [B.shifted(t)])
    assert unreduced.bound[0] == np.inf
    assert exact_shift(B, t, lat.dual_spacing)
    value, certified = nc_covariance_residual(lat, t, B).norm(1e-12)
    assert certified and value <= 1e-12


def test_nc_covariance_interpolation_path_reports():
    lat = selfdual_lattice(16)
    B = equal_partition(lat.q_region([]), 4)[0]
    t = 0.37 * lat.dual_spacing
    assert not exact_shift(B, t, lat.dual_spacing)
    assert nc_covariance_residual(lat, t, B).norm(DEFAULT_TOL)[0] > 1e-6


def test_selfdual_spacing_aligns_both_grids():
    lat = selfdual_lattice(64)
    assert abs(lat.dual_spacing - lat.delta) < 1e-12
    assert abs(lat.x_length / lat.m - lat.delta) < 1e-12


def test_partition_cells_cover_every_lattice_point():
    # points within rounding below the window's base must wrap into the
    # first cell, not onto the seam where no half-open cell holds them
    for m in range(8, 400, 4):
        lat = selfdual_lattice(m)
        parts = equal_partition(lat.q_region([]), 4)
        total = np.sum([B.indicator(lat.q) for B in parts], axis=0)
        assert np.array_equal(total, np.ones(m)), m
