"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line (run with pytest -s or -v to see them).  Tolerances here are
pinned; loosening them is a release decision, not a test fix."""

import numpy as np
import pytest

from povmlab.modular import (TraceWeight, build_gns, build_modular,
                             kms_residual, left_mult, lemma_modular_residual,
                             vec)
from povmlab.operators import (DEFAULT_TOL, EFFECT, NUMERIC_TOL, PROJECTION,
                               adjoint, is_effect, opnorm, sqrtm_psd)
from povmlab.oscillator import (commutator_defect, covariance_residual, gibbs,
                                phase_effect, thermal_covariance_residual,
                                toeplitz_arg, weyl_failure_check)
from povmlab.povm import (DiscretePOVM, contraction_moment_povm,
                          naimark_dilate, povm_validate, random_povm)
from povmlab.regions import RegionSet, circle_full, equal_partition
from povmlab.relativistic import (CircleGrid, HardyModel,
                                  boundary_isometry_check, poisson_kernel_error,
                                  rel_covariance_residual, rel_effect,
                                  tau_unitarity_residual)
from povmlab.weylnc import (MellinLattice, SymbolRep, conjugation_residual,
                            htau_norm, nc_covariance_residual, nc_effect,
                            nc_integral, weyl_relation_residual)
from povmlab.harness import SuiteConfig, report_body, run_suite


def verdict(num, label, ok, detail):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_phase_covariance():
    rng = np.random.default_rng(101)
    d = 64
    worst = 0.0
    for _ in range(20):
        t = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        a = float(rng.uniform(-np.pi, np.pi))
        w1 = float(rng.uniform(0.1, 1.5))
        a2 = a + w1 + float(rng.uniform(0.1, 1.0))
        w2 = float(rng.uniform(0.1, 1.0))
        B = RegionSet.circle([(a, a + w1), (a2, a2 + w2)])
        worst = max(worst, covariance_residual(d, t, B).norm(DEFAULT_TOL)[0])
    verdict(1, "phase covariance d=64", worst <= 1e-10, f"residual {worst:.3e}")


def test_criterion_02_thermal_covariance():
    rng = np.random.default_rng(102)
    worst = 0.0
    for beta in (0.5, 1.0):
        for _ in range(5):
            t = float(rng.uniform(-1.0, 1.0))
            a = float(rng.uniform(-np.pi, np.pi))
            B = RegionSet.circle([(a, a + float(rng.uniform(0.3, 1.5)))])
            worst = max(worst, thermal_covariance_residual(
                beta, 12, [(t, B)]).norm(DEFAULT_TOL)[0])
    verdict(2, "thermal covariance beta in {0.5,1} d=12", worst <= 1e-8,
            f"residual {worst:.3e}")


def test_criterion_03_modular_closed_forms():
    rng = np.random.default_rng(103)
    T = gibbs(1.0, 6)
    triple = build_modular(T)
    worst = max(triple.closed_form_residuals.values())
    sq = sqrtm_psd(T)
    half = triple.delta_power(0.5)
    for _ in range(20):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        worst = max(worst, float(np.linalg.norm(
            half @ vec(A @ sq) - vec(sq @ A))))
        worst = max(worst, lemma_modular_residual(triple, A))
    verdict(3, "modular closed forms (Delta, J, lemma)", worst <= 1e-8,
            f"residual {worst:.3e}")


def test_criterion_04_kms():
    rng = np.random.default_rng(104)
    T = gibbs(1.0, 6)
    worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        worst = max(worst, kms_residual(T, A, B))
    tracial = kms_residual(np.eye(6) / 6,
                           rng.standard_normal((6, 6)),
                           rng.standard_normal((6, 6)))
    ok = worst <= 1e-12 and tracial <= 1e-12
    verdict(4, "KMS identity d=6", ok,
            f"residual {worst:.3e}, beta=0 residual {tracial:.3e}")


def test_criterion_05_commutator_defect():
    d = 32
    info = commutator_defect(d)
    N = np.diag(np.arange(d)).astype(complex)        # the number operator
    F = toeplitz_arg(d)
    C = N @ F - F @ N
    v = ((-1.0) ** np.arange(d)).astype(complex)
    rng = np.random.default_rng(105)
    worst_h = 0.0
    for _ in range(10):
        h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        h -= (np.vdot(v, h) / np.vdot(v, v)) * v
        h /= np.linalg.norm(h)
        worst_h = max(worst_h, float(np.linalg.norm(C @ h + 1j * h)))
    ok = (info["rank_one_ratio"] <= 1e-10
          and info["alternating_alignment"] >= 1 - 1e-12
          and worst_h <= 1e-10)
    verdict(5, "commutator defect rank one d=32", ok,
            f"sigma2/sigma1 {info['rank_one_ratio']:.3e}, "
            f"alignment {info['alternating_alignment']:.15f}, "
            f"[N,F]h+ih {worst_h:.3e}")


def test_criterion_06_weyl_failure():
    val = weyl_failure_check(8, np.pi, 1.0)
    verdict(6, "Weyl-relation failure (d=8, s=pi, t=1)", val >= 0.1,
            f"norm {val:.6f}")


def test_criterion_07_naimark():
    rng = np.random.default_rng(107)
    worst = 0.0
    for d, k in [(4, 2), (8, 4), (16, 8)]:
        p = random_povm(d, k, rng)
        dil = naimark_dilate(p)
        worst = max(worst, opnorm(adjoint(dil.isometry) @ dil.isometry - np.eye(d)))
        worst = max(worst, opnorm(dil.compressions() - p.effects).max())
    arcs = equal_partition(circle_full(), 8)
    phase = DiscretePOVM(regions=arcs,
                         effects=[phase_effect(B, 16).dense() for B in arcs])
    dil = naimark_dilate(phase)
    worst = max(worst, opnorm(adjoint(dil.isometry) @ dil.isometry - np.eye(16)))
    worst = max(worst, opnorm(dil.compressions() - phase.effects).max())
    verdict(7, "Naimark dilation d<=16 k<=8 incl. phase POVM", worst <= 1e-12,
            f"residual {worst:.3e}")


def test_criterion_08_contraction_moments():
    worst = 0.0
    for z in (0.0, 0.5, np.exp(0.7j)):
        _, rep = contraction_moment_povm(np.array([[z]]), 32, 64)
        worst = max(worst, float(rep.moment_residuals.max()))
    r = 0.5
    _, rep = contraction_moment_povm(np.array([[r]]), 32, 64)
    edges = np.linspace(-np.pi, np.pi, 65)
    mass_dev = 0.0
    for i in range(64):
        sub = np.linspace(edges[i], edges[i + 1], 1001)
        mid = 0.5 * (sub[:-1] + sub[1:])
        dens = (1 - r * r) / (1 - 2 * r * np.cos(mid) + r * r) / (2 * np.pi)
        mass_dev = max(mass_dev, abs(rep.cell_masses[i]
                                     - float(dens.sum() * (sub[1] - sub[0]))))
    pu, _ = contraction_moment_povm(np.array([[np.exp(0.7j)]]), 32, 64)
    multiplicative = povm_validate(pu, NUMERIC_TOL).multiplicative
    ok = worst <= 1e-8 and mass_dev <= 1e-2 and multiplicative
    verdict(8, "contraction POVM moments M=32", ok,
            f"moment residual {worst:.3e}, Poisson mass dev {mass_dev:.3e}, "
            f"unitary multiplicative {multiplicative}")


def test_criterion_09_relativistic():
    rng = np.random.default_rng(109)
    grid = CircleGrid(256, 8 * np.pi)
    model = HardyModel(grid)
    B = grid.region([(0.0, grid.L / 4)])
    cov = rel_covariance_residual(model, 1.0, 8 * grid.h, B).norm(
        DEFAULT_TOL)[0]
    # rank-4 operators a_L a_R* and c_L c_R* from unit-variance factors,
    # the left ones scaled by n^(-1/4) so that |<A, C>_tau| does not grow
    # with n (see tau_unitarity_residual)
    a_L, a_R, c_L, c_R = (rng.standard_normal((256, 4))
                          + 1j * rng.standard_normal((256, 4))
                          for _ in range(4))
    tau = tau_unitarity_residual(grid, 1.0, 0.7, (a_L / 4, a_R), (c_L / 4, c_R))
    coef = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    rep = boundary_isometry_check(model, model.synthesize(coef),
                                  np.logspace(-3, 1, 20))
    parts = equal_partition(RegionSet.line([], length=grid.L), 4)
    effects = [rel_effect(model, Bi).dense() for Bi in parts]
    axioms = opnorm(sum(effects) - np.eye(model.dim))
    effects_ok = all(is_effect(E, 1e-10) in (EFFECT, PROJECTION)
                     for E in effects)
    errs = [poisson_kernel_error(n, np.pi * n / 16)
            for n in (128, 256, 512, 1024)]
    kernel_ok = all(b < a for a, b in zip(errs, errs[1:]))
    ok = (cov <= 1e-10 and tau <= 1e-12
          and rep["boundary_residual"] <= 1e-12
          and rep["monotonicity_violations"] == 0
          and axioms <= 1e-12 and effects_ok and kernel_ok)
    verdict(9, "relativistic model n=256", ok,
            f"covariance {cov:.3e}, tau-unitarity {tau:.3e}, boundary "
            f"{rep['boundary_residual']:.3e}, axioms {axioms:.3e}, "
            f"kernel errors decreasing {kernel_ok}")


def test_criterion_10_weyl_mellin():
    rng = np.random.default_rng(110)
    m = 64
    delta = float(np.sqrt(2 * np.pi / m))
    lat = MellinLattice(m, delta, -delta * (m // 2))
    weyl = weyl_relation_residual(lat, lat.dual_spacing, lat.delta)
    coeffs = {}
    a0 = np.zeros(m)
    for _ in range(4):
        j = int(rng.integers(1, 5))
        amp = float(rng.standard_normal())
        coeffs[(j, 2)] = coeffs.get((j, 2), 0.0) + 0.5 * amp
        coeffs[(-j, -2)] = coeffs.get((-j, -2), 0.0) + 0.5 * amp
        a0 += amp * np.cos(j * lat.delta * lat.x_grid)
    a = SymbolRep(coeffs=coeffs, a0_pos=a0.copy(), a0_neg=a0.copy())
    t = 2 * lat.dual_spacing
    conj = conjugation_residual(lat, t, a).norm(DEFAULT_TOL)[0]
    at = a.translated(lat, t)
    inv = abs(nc_integral(at, lat.x_length) - nc_integral(a, lat.x_length))
    iso = abs(htau_norm(at, lat.x_length) - htau_norm(a, lat.x_length))
    B = equal_partition(lat.q_region([]), 4)[0]
    cov = nc_covariance_residual(lat, 3 * lat.dual_spacing, B).norm(
        DEFAULT_TOL)[0]
    odd = SymbolRep(coeffs={}, a0_pos=a0, a0_neg=-a0)
    chan = nc_integral(odd, lat.x_length)
    ok = (weyl <= 1e-12 and conj <= 1e-10 and cov <= 1e-12
          and inv <= 1e-13 and iso <= 1e-13 and chan == 0.0)
    verdict(10, "Weyl/Mellin model m=64", ok,
            f"weyl {weyl:.3e}, conjugation {conj:.3e}, covariance {cov:.3e}, "
            f"integral inv {inv:.3e}, isometry {iso:.3e}, channel {chan!r}")


def test_criterion_11_gns():
    units = [np.eye(2)[:, [i]] @ np.eye(2)[[j], :]
             for i in range(2) for j in range(2)]
    worst = 0.0
    g = build_gns(units, np.diag([0.7, 0.3]).astype(complex))
    pure = build_gns(units, np.diag([1.0, 0.0]).astype(complex))
    for rep in (g, pure):
        for A in units:
            worst = max(worst, abs(rep.state(A)
                                   - np.vdot(rep.omega_vec,
                                             rep.represent(A) @ rep.omega_vec)))
    dims_ok = g.dim == 4 and g.faithful and pure.dim == 2 and not pure.faithful
    verdict(11, "GNS state identity and quotient dims", worst <= 1e-12 and dims_ok,
            f"residual {worst:.3e}, dims ({g.dim}, {pure.dim})")


def test_criterion_12_determinism():
    a = report_body(run_suite(SuiteConfig(suite="all", seed=7)))
    b = report_body(run_suite(SuiteConfig(suite="all", seed=7)))
    verdict(12, "deterministic report bodies", a == b,
            f"{len(a)} bytes, identical {a == b}")
