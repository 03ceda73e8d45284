import csv
import dataclasses
import inspect
import io
import json
import sys
import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest

from povmlab import (harness, modular, operators, oscillator, povm, regions,
                     relativistic, weylnc)
from povmlab.cli import main
from povmlab.harness import (REQUIRED_ANCHORS, STUDY_KINDS, SuiteConfig,
                             _circulant_idempotency_defect, convergence_study,
                             report_body, report_to_csv, run_suite)
from povmlab.operators import adjoint, diag_conjugate, opnorm
from test_operators import toeplitz_part
from test_oscillator import closed_form_phase_effect
from test_povm import per_effect_random_povm
from test_relativistic import exact_shift


def test_full_suite_passes():
    report = run_suite(SuiteConfig(suite="all"))
    failed = [c for c in report["cases"] if not c["pass"]]
    assert failed == []
    assert report["summary"]["failed"] == 0


def test_every_anchor_is_exercised():
    report = run_suite(SuiteConfig(suite="all"))
    seen = {c["anchor"] for c in report["cases"]}
    assert set(REQUIRED_ANCHORS) <= seen


def test_determinism_of_report_bodies():
    cfg = SuiteConfig(suite="all", seed=7)
    a = report_body(run_suite(cfg))
    b = report_body(run_suite(SuiteConfig(suite="all", seed=7)))
    assert a == b


def test_seed_changes_randomized_residuals_not_outcomes():
    r1 = run_suite(SuiteConfig(suite="povm", seed=1))
    r2 = run_suite(SuiteConfig(suite="povm", seed=2))
    assert r1["summary"]["failed"] == 0
    assert r2["summary"]["failed"] == 0
    assert report_body(r1) != report_body(r2)


def test_tolerance_override_fails_everything_finite():
    report = run_suite(SuiteConfig(suite="gns-modular", tol=1e-30))
    assert report["summary"]["failed"] > 0


def test_guard_violations_become_skips():
    report = run_suite(SuiteConfig(suite="oscillator", d=30, betas=(1.0,)))
    skipped = [c for c in report["cases"] if c.get("skipped")]
    assert skipped
    assert all(c["pass"] for c in skipped)


def test_oscillator_suite_builds_no_triple_and_flows_densely_only_refused_draws(
        monkeypatch):
    # osc.thermal reads its flow off the Gibbs density: no modular triple
    # at any beta, and no dense flow while every draw is certified; under
    # tol 1e-30 each of the five draws of each run beta takes the dense
    # fallback, whose value the record carries, from one decomposition of
    # T per beta
    built, spectra, powers = [], [], []
    real_build, real_spectrum, real_power = (
        modular.build_modular, oscillator.herm_spectrum,
        oscillator.spectral_power)
    monkeypatch.setattr(modular, "build_modular",
                        lambda T: built.append(T) or real_build(T))
    monkeypatch.setattr(oscillator, "herm_spectrum",
                        lambda A: spectra.append(A) or real_spectrum(A))
    monkeypatch.setattr(oscillator, "spectral_power",
                        lambda s, p: powers.append(p) or real_power(s, p))
    for tol, decomposed, flowed in ((None, 0, 0), (1e-30, 2, 10)):
        report = run_suite(SuiteConfig(suite="oscillator", d=12, tol=tol,
                                       betas=(0.5, 1.0, 2.0)))
        thermal = _thermal_records(report)
        assert [c.get("skipped") is None for c in thermal] == [True, True,
                                                               False]
        assert built == [] and len(powers) == flowed
        assert len(spectra) == decomposed and all(
            np.array_equal(A, oscillator.gibbs(beta, 12))
            for A, beta in zip(spectra, (0.5, 1.0)))
        assert [c.get("upper_bound") is True for c in thermal[:2]] == \
            [tol is None] * 2
        del spectra[:], powers[:]
    monkeypatch.undo()
    for i, beta in enumerate((0.5, 1.0)):
        assert thermal[i]["residual"] == _dense_thermal_worst(
            beta, 12, _thermal_draws(7, i))


def test_csv_header_and_shape():
    report = run_suite(SuiteConfig(suite="weyl"))
    lines = report_to_csv(report).strip().splitlines()
    assert lines[0] == ("case,anchor,param,residual,tol,pass,upper_bound,"
                        "skipped")
    assert len(lines) == len(report["cases"]) + 1


def test_csv_marks_certified_bounds_and_skips():
    report = run_suite(SuiteConfig(suite="oscillator", d=48))
    rows = {(r["case"], r["param"]): r for r in csv.DictReader(
        io.StringIO(report_to_csv(report)))}
    assert rows[("osc.povm.sum", "d=48 6 arcs")]["upper_bound"] == "True"
    assert rows[("osc.defect.rank1", "d=32")]["upper_bound"] == "False"
    skipped = rows[("osc.thermal", "beta=1.0 d=48")]
    assert skipped["skipped"] == "conditioning guard beta*d <= 20"
    assert skipped["residual"] == "" and skipped["pass"] == "True"


def test_invalid_suite_rejected():
    with pytest.raises(ValueError):
        SuiteConfig(suite="nonsense")


def test_study_poisson_kernel_decreasing():
    out = convergence_study("poisson-kernel", [128, 256, 512, 1024])
    assert out["monotone"] == "decreasing"


def test_study_covariance_interp_decreasing():
    out = convergence_study("covariance-interp", [128, 256, 512])
    assert out["monotone"] == "decreasing"


def test_study_weyl_wrap_decreasing():
    out = convergence_study("weyl-wrap", [16, 32, 64, 128])
    assert out["monotone"] == "decreasing"


def covariance_defect(phase, E, sampled, B, shift, h):
    """Reference: the dense defect diag(phase) E diag(phase)* - E_{B + shift}
    of a covariance identity for the effect E = E_B, and whether the exact
    path applies (shift a multiple of h, B + shift aligned to the grid)."""
    return (diag_conjugate(phase, E) - sampled(B.shifted(shift)),
            exact_shift(B, shift, h))


def dense_rel_covariance_defect(model, s, B):
    return covariance_defect(
        np.exp(-1j * s * model.xi), relativistic.rel_effect(model, B).dense(),
        lambda R: relativistic.thermal_model(model).effects(R).dense(), B, s,
        model.grid.h)


def dense_nc_covariance_defect(lat, t, B):
    return covariance_defect(
        np.exp(1j * t * lat.u[lat.positive_sites]),
        weylnc.nc_effect(lat, B).dense(),
        lambda R: weylnc.thermal_model(lat).effects(R).dense(), B, t,
        lat.dual_spacing)


def dense_covariance_interp_error(n):
    """Reference: the study's matrix element read off the dense n/2 x n/2
    defect diag(phase) E_B diag(phase)* - E_{B+s}."""
    grid = relativistic.CircleGrid(n, 8 * np.pi)
    model = relativistic.HardyModel(grid)
    s = 2.5 * grid.h
    B = grid.region([(0.0, grid.L / 4)])
    defect, exact = dense_rel_covariance_defect(model, s, B)
    assert not exact
    f = np.exp(-0.2 * model.xi)
    g = np.exp(-0.3 * model.xi) * np.exp(1.3j * model.xi)
    return abs(np.vdot(g, defect @ f))


def dense_weyl_wrap_error(m):
    """Reference: the dense m x m Weyl defect, S(t) a permutation matrix,
    applied to the study's Gaussian."""
    delta = float(np.sqrt(2 * np.pi / m))
    lat = weylnc.MellinLattice(m, delta, -delta * (m // 2))
    St = lat.shift(lat.delta)
    Es = lat.exp_P(0.37)
    defect = Es[:, None] * St - np.exp(-0.37j * lat.delta) * St * Es[None, :]
    g = np.exp(-lat.u ** 2 / 8.0)
    g /= np.linalg.norm(g)
    return np.linalg.norm(defect @ g)


@pytest.mark.parametrize("kind, dense", [
    ("covariance-interp", dense_covariance_interp_error),
    ("weyl-wrap", dense_weyl_wrap_error),
])
def test_matrix_free_studies_match_dense_formulas(kind, dense):
    sizes = [16, 32, 64, 128, 256, 512, 1024]
    rows = convergence_study(kind, sizes)["rows"]
    for size, row in zip(sizes, rows):
        assert row["error"] == pytest.approx(dense(size), rel=1e-12), size


def test_studies_are_matrix_free():
    # the dense path needs a 4096 x 4096 complex defect (268 MB) for
    # weyl-wrap and two 2048 x 2048 effects for covariance-interp
    tracemalloc.start()
    try:
        for kind in STUDY_KINDS:
            convergence_study(kind, [4096])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_study_covariance_interp_decreasing_at_large_sizes():
    out = convergence_study("covariance-interp", [4096, 16384, 65536])
    assert out["monotone"] == "decreasing"


@pytest.mark.parametrize("cells", [4, 64])
@pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
def test_poisson_masses_match_the_midpoint_rule(r, cells):
    """The closed-form cell masses against a 20000-point midpoint rule per
    cell, whose error is below 2e-11 here and falls as its step squared."""
    edges = np.linspace(-np.pi, np.pi, cells + 1)
    masses = []
    for a, b in zip(edges, edges[1:]):
        sub = np.linspace(a, b, 20001)
        mids = 0.5 * (sub[:-1] + sub[1:])
        dens = (1 - r * r) / (1 - 2 * r * np.cos(mids) + r * r) / (2 * np.pi)
        masses.append(dens.sum() * (sub[1] - sub[0]))
    report = povm.MomentReport(moment_residuals=None,
                               cell_masses=np.array(masses))
    assert harness._poisson_cell_masses(report, r) < 5e-11


def test_circulant_idempotency_defect_matches_dense_norm():
    m = 48
    lat = weylnc.MellinLattice(m, 0.4, -0.4 * (m // 2))
    rng = np.random.default_rng(67)
    q0, dq = lat.q[0], lat.dual_spacing
    for c in (weylnc.indicator_Q(lat, lat.q_region([(q0, q0 + 11 * dq)])).c,
              rng.standard_normal(m) + 1j * rng.standard_normal(m),
              np.fft.ifft(rng.uniform(0, 1, m))):
        C = operators.circulant(c)
        dense = opnorm(C @ C - C)
        assert _circulant_idempotency_defect(c) == pytest.approx(
            dense, rel=1e-12, abs=1e-15)


# --------------------------------------------------------------------------
# certified residuals: Toeplitz-block bounds against the dense formulas

EPS = np.finfo(float).eps


def rel_covariance_cases():
    """(n, model, B): grids with n/2 even and odd, B aligned at every n."""
    for n in (8, 10, 16, 34, 384):
        grid = relativistic.CircleGrid(n, 8 * np.pi)
        yield n, relativistic.HardyModel(grid), grid.region(
            [(grid.h, 4 * grid.h)])


def nc_covariance_cases():
    """(lattice, B): the self-dual lattice of the harness (k = m/2) and
    lattices with u_min != -delta m/2, with k < m/2 (m=34) and k > m/2
    (m=10, 16)."""
    for m, delta, j0 in ((8, None, None), (384, None, None), (10, 0.7, -3),
                         (16, 0.45, 2), (34, 0.3, -20)):
        if delta is None:
            delta, j0 = float(np.sqrt(2 * np.pi / m)), -(m // 2)
        lat = weylnc.MellinLattice(m, delta, j0 * delta)
        q0, dq = lat.q[0], lat.dual_spacing
        yield lat, lat.q_region([(q0 + 2 * dq, q0 + 5 * dq)])


def covariance_paths():
    """(label, residual(shift), dense defect and exactness(shift), grid
    step) for every grid and lattice above."""
    for n, model, B in rel_covariance_cases():
        yield (f"rel n={n}",
               lambda s, model=model, B=B: relativistic.
               rel_covariance_residual(model, 1.0, s, B),
               lambda s, model=model, B=B: dense_rel_covariance_defect(
                   model, s, B),
               model.grid.h)
    for lat, B in nc_covariance_cases():
        yield (f"nc m={lat.m} k={len(lat.positive_sites)}",
               lambda t, lat=lat, B=B: weylnc.nc_covariance_residual(
                   lat, t, B),
               lambda t, lat=lat, B=B: dense_nc_covariance_defect(lat, t, B),
               lat.dual_spacing)


@pytest.mark.parametrize("path", list(covariance_paths()),
                         ids=lambda p: p[0])
def test_covariance_generator_matches_the_dense_defect(path):
    _, residual, dense_defect, h = path
    for steps in (1, 3, 2.5):
        dense, exact = dense_defect(steps * h)
        assert exact == (steps != 2.5)
        defect = residual(steps * h)
        # the residual's own dense defect is the dense formula, bit for
        # bit; its Toeplitz part D, the generator's block, differs from it
        # by the rounding of the phase products
        assert np.array_equal(defect.dense([0])[0], dense)
        D = toeplitz_part(dense)
        assert np.abs(D - dense).max() <= 8 * EPS
        value, certified = defect.norm(1e-12)
        if exact:
            # ||dense|| <= ||D|| + ||dense - D||, and the bound covers ||D||
            assert certified and value <= 1e-12
            assert value + np.linalg.norm(dense - D) >= opnorm(dense)
        else:
            # misaligned: the bound exceeds tol, and the dense SVD of the
            # dense formula is reported unchanged
            assert defect.bound[0] > 1e-12
            assert not certified and value == opnorm(dense)


def test_identity_defect_is_the_dense_sum_minus_identity():
    model = relativistic.HardyModel(relativistic.CircleGrid(384, 8 * np.pi))
    lat = weylnc.MellinLattice(36, 0.3, -6.0)    # k = 16 < m/2
    for effects in (
            relativistic.rel_effect(model, regions.equal_partition(
                regions.RegionSet.line([], length=model.grid.L), 4)),
            weylnc.nc_effect(lat, regions.equal_partition(lat.q_region([]), 4)),
            oscillator.phase_effect(regions.equal_partition(
                regions.circle_full(), 6), 12)):
        dense = sum(effects.dense()) - np.eye(effects.k)
        assert np.array_equal(operators.partition_defect(effects).dense([0]),
                              dense[None])


def _case(report, name):
    (case,) = [c for c in report["cases"] if c["case"] == name]
    return case


def _perturbed(E, entry=1, by=1e-11, member=None):
    """E with one generator entry moved, in the given member of a stack."""
    c = E.c.copy()
    c[entry if member is None else (member, entry)] += by
    return operators.ToeplitzBlock(c, E.k)


@pytest.mark.parametrize("suite, module, make, case", [
    ("relativistic", relativistic, "rel_effect", "rel.povm.sum"),
    ("weyl", weylnc, "nc_effect", "nc.povm.sum"),
])
def test_perturbed_sum_fails_through_the_dense_fallback(monkeypatch, suite,
                                                        module, make,
                                                        case):
    # one off-diagonal generator entry of the second effect of the stack
    # moved by 1e-11
    real, built = getattr(module, make), []

    def perturbed(*args):
        E = real(*args)
        built.append(E if E.c.ndim == 1 else _perturbed(E, member=1))
        return built[-1]

    monkeypatch.setattr(module, make, perturbed)
    record = _case(run_suite(SuiteConfig(suite=suite)), case)
    (effects,) = [E for E in built if E.c.ndim == 2]
    assert not record["pass"] and "upper_bound" not in record
    assert record["residual"] == opnorm(sum(effects.dense())
                                        - np.eye(effects.k))
    assert record["residual"] > 0.5e-11


def _harness_rel_model(n=256):
    grid = relativistic.CircleGrid(n, 2 * np.pi * 4)
    return relativistic.HardyModel(grid), grid.region([(0.0, grid.L / 4)])


def _harness_lattice(m=64):
    delta = float(np.sqrt(2 * np.pi / m))
    lat = weylnc.MellinLattice(m, delta, -delta * (m // 2))
    return lat, regions.equal_partition(lat.q_region([]), 4)[0]


def dense_conjugation_defect(lat):
    """The dense defect diag(e^{itu}) a(Q,P) diag(e^{itu})* - a_t(Q,P) of
    the harness's nc.conjugation case at seed 7, t = 2 * dual."""
    a = harness._random_symbol(lat, np.random.default_rng(7 + 4))
    t = 2 * lat.dual_spacing
    return (diag_conjugate(np.exp(1j * t * lat.u), weylnc.quantize(lat, a))
            - weylnc.quantize(lat, a.translated(lat, t)))


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("m", [64, 192])
def test_random_symbol_samples_match_its_coefficients(seed, m):
    # a0(x) = Re sum c_jk e^{-i j delta x}, for the symbol and for its
    # translate a_t(x) = a(x + t); seed 8 draws one (j, k) twice
    lat, _ = _harness_lattice(m)
    a = harness._random_symbol(lat, np.random.default_rng(seed + 4))

    def principal(sym):
        return sum(c * np.exp(-1j * j * lat.delta * lat.x_grid)
                   for (j, _), c in sym.coeffs.items()).real

    for sym in (a, a.translated(lat, 2 * lat.dual_spacing)):
        assert np.abs(sym.a0_pos - principal(sym)).max() < 1e-12
        assert np.array_equal(sym.a0_neg, sym.a0_pos)


@pytest.mark.parametrize("mutation", ["direction", "twist"])
def test_wrong_translation_fails_nc_conjugation_through_the_dense_fallback(
        monkeypatch, mutation):
    # a_t built for -t, or with the coefficient twist e^{+i u_j t}
    real = weylnc.SymbolRep.translated

    def wrong(self, lat, t):
        if mutation == "direction":
            return real(self, lat, -t)
        out = real(self, lat, t)
        out.coeffs = {(j, k): c * np.exp(1j * j * lat.delta * t)
                      for (j, k), c in self.coeffs.items()}
        return out

    monkeypatch.setattr(weylnc.SymbolRep, "translated", wrong)
    record = _case(run_suite(SuiteConfig(suite="weyl")), "nc.conjugation")
    assert not record["pass"] and "upper_bound" not in record
    lat, _ = _harness_lattice()
    assert record["residual"] == opnorm(dense_conjugation_defect(lat)) > 0.1


@pytest.mark.parametrize("model", ["rel", "nc"])
def test_perturbed_covariance_target_fails_through_the_dense_fallback(
        monkeypatch, model):
    # the target effect E_{B+s} of the first case, member 1 of the stack
    # [E_B, E_{B+s}] of the model record's effects call, moved by 1e-11 in
    # one off-diagonal generator entry; the second case is left intact
    if model == "rel":
        md, B = _harness_rel_model()
        s, module, suite = 8 * md.grid.h, relativistic, "relativistic"
        cases = ("rel.covariance", "rel.covariance.def")
        dense = lambda: dense_rel_covariance_defect(md, s, B)[0]
    else:
        md, B = _harness_lattice()
        s, module, suite = 3 * md.dual_spacing, weylnc, "weyl"
        cases = ("nc.covariance", "nc.covariance.def")
        dense = lambda: dense_nc_covariance_defect(md, s, B)[0]
    real, stack = module.thermal_model, [B, B.shifted(s)]

    def perturbed(lat_or_model):
        thermal = real(lat_or_model)

        def effects(R):
            # the one effects call of the case, and the reference's own
            E = thermal.effects(R)
            if R == stack:
                return _perturbed(E, member=1)
            return _perturbed(E) if R == stack[1] else E

        return dataclasses.replace(thermal, effects=effects)

    monkeypatch.setattr(module, "thermal_model", perturbed)
    report = run_suite(SuiteConfig(suite=suite))
    broken, intact = (_case(report, c) for c in cases)
    assert not broken["pass"] and "upper_bound" not in broken
    assert broken["residual"] == opnorm(dense())
    assert intact["pass"] and intact["upper_bound"]


COVARIANCE_CASES = ("osc.covariance", "rel.covariance", "rel.covariance.def",
                    "nc.covariance", "nc.covariance.def")


def test_a_negated_lattice_phase_fails_every_covariance_case(monkeypatch):
    # operators.lattice_phase is the one phase of the rotation, of the
    # relativistic translation and of the lattice translation, which
    # ThermalModel.covariance reads for all three.  Run backwards, it
    # fails each of their covariance cases through the dense defect
    assert all(r["pass"] for r in run_suite(SuiteConfig())["cases"])
    real = operators.lattice_phase
    monkeypatch.setattr(operators, "lattice_phase", lambda s, sites, period:
                        real(-np.asarray(s), sites, period))
    report = run_suite(SuiteConfig())
    for name in COVARIANCE_CASES:
        record = _case(report, name)
        assert not record["pass"] and "upper_bound" not in record, record
        assert record["residual"] > 1e-3


@pytest.mark.parametrize("module, cases", [
    (oscillator, ("osc.covariance",)),
    (relativistic, ("rel.covariance", "rel.covariance.def")),
    (weylnc, ("nc.covariance", "nc.covariance.def")),
], ids=["osc", "rel", "nc"])
def test_negated_record_sites_fail_only_that_models_covariance(monkeypatch,
                                                               module, cases):
    # the witness of the covariance case that the three models share: one
    # model's ThermalModel with its sites negated, its flow run backwards,
    # fails that model's covariance cases through the dense defect, and
    # the other two models' still pass, certified
    real = module.thermal_model

    def negated(*args):
        model = real(*args)
        return dataclasses.replace(model, sites=-model.sites)

    monkeypatch.setattr(module, "thermal_model", negated)
    report = run_suite(SuiteConfig())
    assert {r["case"] for r in report["cases"] if not r["pass"]} == set(cases)
    for name in COVARIANCE_CASES:
        record = _case(report, name)
        if name in cases:
            assert "upper_bound" not in record and record["residual"] > 1e-3
        else:
            assert record["pass"] and record["upper_bound"]


def _relativistic_failures():
    """The cases that fail in a run of the relativistic suite."""
    report = run_suite(SuiteConfig(suite="relativistic"))
    return [r["case"] for r in report["cases"] if not r["pass"]]


def test_a_doubled_semigroup_parameter_fails_rel_boundary_isometry(
        monkeypatch):
    # P(2y) in place of P(y): the norms still fall with y, but not as the
    # exact e^{-y|xi|} weights say
    real = relativistic.poisson_apply
    monkeypatch.setattr(relativistic, "poisson_apply", lambda grid, y, g:
                        real(grid, 2 * np.asarray(y), g))
    assert _relativistic_failures() == ["rel.boundary.isometry"]


def test_a_growing_semigroup_fails_rel_boundary_monotone(monkeypatch):
    # e^{+y|xi|} in place of e^{-y|xi|}: ||P(y) f|| grows with y, and
    # departs from the exact norms too
    def growing(grid, y, g):
        return grid.ifft(np.exp(np.outer(np.abs(grid.xi), y))
                         * grid.fft(g)[:, None])

    monkeypatch.setattr(relativistic, "poisson_apply", growing)
    assert _relativistic_failures() == ["rel.boundary.isometry",
                                        "rel.boundary.monotone"]


def test_an_unnormalised_poisson_kernel_fails_rel_poisson_convergence(
        monkeypatch):
    # the kernel without its 1/L: with L = pi n / 16, the error at the
    # origin grows with the refinement
    real = relativistic.poisson_kernel
    monkeypatch.setattr(relativistic, "poisson_kernel",
                        lambda grid, y: real(grid, y) * grid.L)
    assert _relativistic_failures() == ["rel.poisson.convergence"]


def test_verify_all_bounds_its_covariances_in_seven_calls(monkeypatch):
    # one shift_covariance call per covariance case, from
    # ThermalModel.covariance, and one per beta of osc.thermal; every draw
    # of a case is a member of its one call
    real, calls = operators.shift_covariance, []

    def counting(phase, *args, **kwargs):
        calls.append(len(phase))
        return real(phase, *args, **kwargs)

    for module in (operators, oscillator):
        monkeypatch.setattr(module, "shift_covariance", counting)
    run_suite(SuiteConfig())
    assert calls == [10, 5, 5, 1, 1, 1, 1]


def test_wrong_twist_sign_fails_through_the_dense_fallback(monkeypatch):
    # conjugating by e^{+is|D|} in place of e^{-is|D|}
    monkeypatch.setattr(relativistic.HardyModel, "xi", property(
        lambda self: -self.grid.xi[: self.dim]))
    report = run_suite(SuiteConfig(suite="relativistic"))
    model, B = _harness_rel_model()
    for name, steps in (("rel.covariance", 8), ("rel.covariance.def", 4)):
        record = _case(report, name)
        assert not record["pass"] and "upper_bound" not in record
        dense = dense_rel_covariance_defect(model, steps * model.grid.h, B)[0]
        assert record["residual"] == opnorm(dense) > 0.1


def _mutated_rel_effect(mutation):
    """rel_effect with the first effect of a partition's stack scaled by
    1 + 1e-9, so that its spectrum reaches 1 + 1e-9, or given the
    anti-Hermitian part 1e-9 i I; the effect of one region is left alone."""
    real = relativistic.rel_effect

    def mutated(model, B):
        E = real(model, B)
        if isinstance(B, regions.RegionSet):
            return E
        if mutation == "skewed":
            return _perturbed(E, 0, 1e-9j, member=0)
        c = E.c.copy()
        c[0] *= 1 + 1e-9
        return operators.ToeplitzBlock(c, E.k)

    return mutated


@pytest.mark.parametrize("mutation", ["scaled", "skewed"])
def test_effect_outside_the_unit_interval_fails_forming_only_that_member(
        monkeypatch, mutation):
    # the scaled member fails ||E + E* - I|| <= 1 + 2 tol, the skewed one
    # ||E - E*|| <= tol; the bounds certify every other member, so the
    # flag forms one dense block, member 0's, after the one of the
    # partition sum that the mutation also breaks
    mutated, real, formed = (_mutated_rel_effect(mutation),
                             operators.circulant, [])

    def spy(c, k=None):
        formed.append(np.array(c))
        return real(c, k)

    monkeypatch.setattr(operators, "circulant", spy)
    report = run_suite(SuiteConfig(suite="relativistic"))
    assert _case(report, "rel.povm.effects")["pass"] and formed == []
    monkeypatch.setattr(relativistic, "rel_effect", mutated)
    report = run_suite(SuiteConfig(suite="relativistic"))
    assert not _case(report, "rel.povm.effects")["pass"]
    model, _ = _harness_rel_model()
    c = mutated(model, regions.equal_partition(
        regions.RegionSet.line([], length=model.grid.L), 4)).c[0]
    n = len(c)
    star = np.conj(c[-np.arange(n) % n])
    expected = c - star if mutation == "skewed" else c + star - np.eye(1, n)
    assert [X.shape for X in formed] == [(1, n), (1, n)]
    assert np.array_equal(formed[1], expected.reshape(1, n))


def test_effect_flag_over_the_dense_budget_fails_forming_nothing(
        monkeypatch):
    # with no dense budget the scaled member fails on its bound: no
    # circulant is formed, and the run stays far below the 64 MB of one
    # 2048 x 2048 effect, which the flag used to form and classify
    def refuse(*args):
        raise AssertionError("a dense block was formed")

    monkeypatch.setattr(operators, "DENSE_BUDGET", 0)
    monkeypatch.setattr(operators, "circulant", refuse)
    monkeypatch.setattr(relativistic, "rel_effect",
                        _mutated_rel_effect("scaled"))
    tracemalloc.start()
    try:
        report = run_suite(SuiteConfig(suite="relativistic", n=4096))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(r["case"], r["param"]) for r in report["cases"]
            if not r["pass"]] == [
        ("rel.povm.sum", "n=4096 4 blocks [dense 2048x2048 over budget]"),
        ("rel.povm.effects", "n=4096")]
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_effect_flag_equals_dense_is_effect_near_the_boundary(n):
    # stacks of 1-3 members whose blocks sit within a few tol of the
    # effects: an indicator spectrum, that spectrum moved entry by entry
    # within 3 tol, the skew a i I with |a| <= 2 tol, or a scale of
    # 1 +- 3 tol; the flag must read what is_effect reads on the dense
    # blocks
    tol, draw, verdicts = 1e-10, np.random.default_rng(n), []
    for _ in range(75):
        kind = draw.choice(["indicator", "hermitian", "skewed", "scaled"])
        k, members = int(draw.choice([1, n // 2, n])), int(draw.integers(1, 4))
        spectra = (draw.uniform(size=(members, n)) < 0.5).astype(float)
        if kind == "hermitian":
            spectra += draw.uniform(-3 * tol, 3 * tol, (members, n))
        if kind == "scaled":
            spectra *= 1 + draw.uniform(-3 * tol, 3 * tol, (members, 1))
        c = np.fft.ifft(spectra, axis=-1)
        if kind == "skewed":
            c[:, 0] += 1j * draw.uniform(-2 * tol, 2 * tol, members)
        E = operators.ToeplitzBlock(c, k)
        dense = all(cls in (operators.EFFECT, operators.PROJECTION)
                    for cls in operators.is_effect(E.dense(), tol))
        assert harness._effects_within(E, tol) == dense, (kind, k)
        verdicts.append(dense)
    assert 0 < sum(verdicts) < len(verdicts)


def test_tolerance_below_every_bound_reports_the_dense_values():
    report = run_suite(SuiteConfig(suite="all", tol=1e-30))
    assert not any("upper_bound" in r for r in report["cases"])
    model, B = _harness_rel_model()
    lat, half = _harness_lattice()
    rel = [relativistic.rel_effect(model, R) for R in regions.equal_partition(
        regions.RegionSet.line([], length=model.grid.L), 4)]
    nc = [weylnc.nc_effect(lat, R)
          for R in regions.equal_partition(lat.q_region([]), 4)]
    expected = {
        "rel.povm.sum": sum(E.dense() for E in rel) - np.eye(model.dim),
        "nc.povm.sum": sum(E.dense() for E in nc) - np.eye(nc[0].k),
        "rel.covariance": dense_rel_covariance_defect(
            model, 8 * model.grid.h, B)[0],
        "rel.covariance.def": dense_rel_covariance_defect(
            model, 4 * model.grid.h, B)[0],
        "nc.covariance": dense_nc_covariance_defect(
            lat, 3 * lat.dual_spacing, half)[0],
        "nc.covariance.def": dense_nc_covariance_defect(
            lat, lat.dual_spacing, half)[0],
        "nc.conjugation": dense_conjugation_defect(lat),
    }
    for name, dense in expected.items():
        record = _case(report, name)
        assert record["residual"] == opnorm(dense), name
        assert not record["pass"]


def test_a_bound_above_tol_over_the_dense_budget_fails_forming_nothing(
        monkeypatch):
    # at d = 16384 the bound of osc.covariance, 8.2e-11, exceeds a tol of
    # 1e-11, and its dense defects would be ten 16384 x 16384 matrices
    # (40 GiB): the record fails on the bound, says why, and no circulant
    # is formed.  osc.povm.sum, whose arcs telescope, is certified at 3e-16
    def refuse(*args):
        raise AssertionError("a dense block was formed")

    monkeypatch.setattr(operators, "circulant", refuse)
    report = run_suite(SuiteConfig(suite="oscillator", d=16384, tol=1e-11))
    rng = np.random.default_rng(7 + 2)
    draws = [[float(rng.uniform(lo, hi)) for lo, hi in
              ((-np.pi, np.pi), (-np.pi, np.pi), (0.1, 2.0))]
             for _ in range(10)]
    bound = oscillator.covariance_residual(
        16384, [t for t, _, _ in draws],
        [regions.RegionSet.circle([(a, a + w)]) for _, a, w in draws]).bound
    assert bound.max() > 1e-11
    assert _case(report, "osc.covariance") == {
        "case": "osc.covariance", "anchor": "Thm quantum-phase",
        "param": "d=16384 10 cases [dense 16384x16384 over budget]",
        "residual": bound.max(), "tol": 1e-11, "pass": False,
        "upper_bound": True}
    assert [r["case"] for r in report["cases"] if not r["pass"]] == [
        "osc.covariance"]


def test_certified_residuals_are_marked_and_within_tol():
    report = run_suite(SuiteConfig(suite="all"))
    marked = {r["case"] for r in report["cases"] if r.get("upper_bound")}
    assert marked == {"osc.covariance", "osc.thermal", "osc.povm.sum",
                      "rel.povm.sum", "rel.covariance", "rel.covariance.def",
                      "nc.povm.sum", "nc.conjugation", "nc.covariance",
                      "nc.covariance.def"}
    for r in report["cases"]:
        if r.get("upper_bound"):
            assert r["upper_bound"] is True and r["residual"] <= r["tol"]


def test_study_single_size():
    out = convergence_study("poisson-kernel", [128])
    assert out["monotone"] == "n/a"
    assert len(out["rows"]) == 1


def test_study_unknown_kind():
    with pytest.raises(ValueError):
        convergence_study("bogus", [8, 16])


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "povm", "--seed", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["summary"]["failed"] == 0
    assert main(["verify", "povm", "--tol", "1e-30", "--out", str(out)]) == 1
    assert main(["verify", "definitely-not-a-suite"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, field", [
    (["verify", "all", "--tol", "nan"], "tol"),
    (["verify", "all", "--tol", "-1"], "tol"),
    (["verify", "povm", "--tol", "0"], "tol"),
    (["verify", "povm", "--d", "0"], "d"),
    (["verify", "all", "--beta", "nan"], "betas"),
    (["verify", "oscillator", "--beta", "inf"], "betas"),
    (["verify", "oscillator", "--beta", "1", "-0.5"], "betas"),
    (["verify", "povm", "--seed", "-1"], "seed"),
    (["verify", "relativistic", "--n", "10"], "n"),
    (["verify", "relativistic", "--n", "4"], "n"),
    (["verify", "weyl", "--m", "18"], "m"),
    (["verify", "gns-modular", "--d", "0"], "d"),
    (["verify", "oscillator", "--d", "0"], "d"),
    (["verify", "all", "--n", "10"], "n"),
    (["verify", "all", "--m", "18"], "m"),
    (["study", "covariance-interp", "--sizes", "128", "130"], "covariance-interp"),
    (["study", "poisson-kernel", "--sizes", "256", "128"], "poisson-kernel"),
    (["study", "weyl-wrap", "--sizes", "16", "16"], "weyl-wrap"),
])
def test_cli_rejects_bad_config_naming_the_field(argv, field, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} ")


@pytest.mark.parametrize("argv", [
    ["verify", "povm", "--n", "10"],
    ["verify", "povm", "--m", "18", "--beta", "-1"],
    ["verify", "weyl", "--d", "0", "--n", "4"],
])
def test_cli_ignores_fields_the_suite_does_not_read(argv, tmp_path):
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_cli_report_config_lists_only_fields_read(beta, tmp_path):
    # a field the suite never reads is neither validated nor echoed, so a
    # non-finite beta cannot leave NaN or Infinity in the report
    out = tmp_path / "report.json"
    assert main(["verify", "povm", "--beta", beta, "--out", str(out)]) == 0
    data = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert set(data["config"]) == {"d", "seed", "tol"}
    full = run_suite(SuiteConfig(suite="all"))["config"]
    assert set(full) == {"d", "n", "m", "betas", "seed", "tol"}


def test_cli_study_rejects_a_grid_below_eight_points(capsys):
    assert main(["study", "poisson-kernel", "--sizes", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid size must be even and at least 8\n"


@pytest.mark.parametrize("sizes", [["0"], ["-8", "16"]])
def test_cli_study_refuses_a_size_below_one_before_running(sizes, capsys):
    # a size of 0 divided by zero, and -8 took a square root, before any
    # check; now each size is refused by name, and nothing runs or warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["study", "weyl-wrap", "--sizes", *sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: weyl-wrap size must be at least 1, "
                            f"got {sizes[0]}\n")


NAN, INF = float("nan"), float("inf")
ARC = regions.RegionSet.circle([(0.0, 1.0)])
LAT = weylnc.MellinLattice(16, 1.0, 0.0)
GRID = relativistic.CircleGrid(16, 1.0)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: oscillator.gibbs(1.0, 2.5), "d", id="gibbs-d-2.5"),
    pytest.param(lambda: oscillator.gibbs(NAN, 3), "beta", id="gibbs-beta-nan"),
    pytest.param(lambda: oscillator.gibbs(INF, 3), "beta", id="gibbs-beta-inf"),
    pytest.param(lambda: oscillator.phase_effect(ARC, 3.0), "d",
                 id="phase_effect-d-3.0"),
    pytest.param(lambda: oscillator.covariance_residual(12.0, 0.3, ARC), "d",
                 id="covariance_residual-d-12.0"),
    pytest.param(lambda: relativistic.CircleGrid(16, NAN), "L",
                 id="CircleGrid-L-nan"),
    pytest.param(lambda: relativistic.CircleGrid(16.0, 1.0), "n",
                 id="CircleGrid-n-16.0"),
    pytest.param(lambda: weylnc.MellinLattice(16, NAN, 0), "delta",
                 id="MellinLattice-delta-nan"),
    pytest.param(lambda: weylnc.MellinLattice(16.0, 1.0, 0), "m",
                 id="MellinLattice-m-16.0"),
    pytest.param(lambda: regions.RegionSet.line([(0, 1)], length=NAN),
                 "period", id="line-length-nan"),
    pytest.param(lambda: regions.RegionSet.circle([(0, NAN)]), "cell end",
                 id="circle-cell-end-nan"),
    *(pytest.param(lambda x=x: weylnc.MellinLattice(16, 1.0, x), "u_min",
                   id=f"MellinLattice-u_min-{x}") for x in (NAN, INF, -INF)),
    *(pytest.param(lambda x=x: weylnc.weyl_relation_residual(LAT, 0.5, x),
                   "shift amount", id=f"weyl_relation_residual-t-{x}")
      for x in (NAN, INF, -INF)),
    *(pytest.param(lambda x=x: weylnc.conjugation_residual(
        LAT, x, weylnc.SymbolRep({(1, 0): 1.0})), "translation",
        id=f"conjugation_residual-t-{x}") for x in (NAN, INF, -INF)),
    *(pytest.param(lambda x=x: relativistic.poisson_kernel(GRID, x), "y",
                   id=f"poisson_kernel-y-{x}") for x in (NAN, INF)),
    *(pytest.param(lambda x=x: relativistic.poisson_apply(GRID, x,
                                                          np.ones(16)), "y",
                   id=f"poisson_apply-y-{x}") for x in (NAN, INF)),
    *(pytest.param(lambda x=x: relativistic.boundary_isometry_check(
        relativistic.HardyModel(GRID), np.ones(16), [0.1, x]), "y",
        id=f"boundary_isometry_check-y-{x}") for x in (NAN, INF)),
    pytest.param(lambda: povm.random_povm(0, 2, np.random.default_rng(0)), "d",
                 id="random_povm-d-0"),
    pytest.param(lambda: povm.random_povm(2, 0, np.random.default_rng(0)), "k",
                 id="random_povm-k-0"),
    pytest.param(lambda: oscillator.commutator_defect(True), "d",
                 id="commutator_defect-d-True"),
    *(pytest.param(call, "shift", id=f"{label}-t-{x}")
      for x in (NAN, INF, -INF) for label, call in (
          ("covariance_residual",
           lambda x=x: oscillator.covariance_residual(12, x, ARC)),
          ("rel_covariance_residual",
           lambda x=x: relativistic.rel_covariance_residual(
               relativistic.HardyModel(GRID), 1.0, x,
               GRID.region([(0.0, GRID.L / 4)]))),
          ("nc_covariance_residual",
           lambda x=x: weylnc.nc_covariance_residual(
               LAT, x, regions.equal_partition(LAT.q_region([]), 4)[0])),
          ("tau_unitarity_residual",
           lambda x=x: relativistic.tau_unitarity_residual(
               GRID, 1.0, x, (np.ones((16, 1)),) * 2,
               (np.ones((16, 1)),) * 2)))),
    *(pytest.param(lambda x=x: relativistic.tau_unitarity_residual(
        GRID, x, 0.7, (np.ones((16, 1)),) * 2, (np.ones((16, 1)),) * 2),
        "beta", id=f"tau_unitarity_residual-beta-{x}")
      for x in (NAN, INF, -INF)),
    pytest.param(lambda: modular.modtime_unitarity(
        modular.TraceWeight(np.eye(2)), np.eye(2), np.array([]),
        [(np.eye(2), np.eye(2))]), "ts", id="modtime_unitarity-ts-empty"),
    pytest.param(lambda: modular.modtime_unitarity(
        modular.TraceWeight(np.eye(2)), np.eye(2), [0.0, 0.4], []),
        "samples", id="modtime_unitarity-samples-empty"),
    *(pytest.param(lambda k=k: regions.equal_partition(regions.circle_full(),
                                                       k),
                   "cell count k", id=f"equal_partition-k-{k}")
      for k in (2.5, NAN, True, 0)),
    *(pytest.param(call, name, id=f"{label}-{x}")
      for x in (NAN, INF, -INF) for label, name, call in (
          ("thermal_covariance_residual-t", "time",
           lambda x=x: oscillator.thermal_covariance_residual(1.0, 4,
                                                              [(x, ARC)])),
          ("weyl_relation_residual-s", "exponent s",
           lambda x=x: weylnc.weyl_relation_residual(LAT, x, 1.0)),
          ("weyl_failure_check-s", "angle s",
           lambda x=x: oscillator.weyl_failure_check(4, x, 1.0)),
          ("weyl_failure_check-t", "shift t",
           lambda x=x: oscillator.weyl_failure_check(4, 1.0, x)),
          ("imag_power-t", "power",
           lambda x=x: operators.imag_power(np.eye(2), x)),
          ("delta_power-p", "power",
           lambda x=x: modular.build_modular(np.eye(2) / 2).delta_power(x)),
          ("ModularTriple.flow-t", "power",
           lambda x=x: modular.build_modular(np.eye(2) / 2).flow(
               x, np.eye(4))),
          ("modtime_unitarity-ts", "power",
           lambda x=x: modular.modtime_unitarity(
               modular.TraceWeight(np.eye(2)), np.eye(2), [0.0, x],
               [(np.eye(2), np.eye(2))])))),
    pytest.param(lambda: relativistic.boundary_isometry_check(
        relativistic.HardyModel(GRID), np.ones(16), []), "ys",
        id="boundary_isometry_check-ys-empty"),
    pytest.param(lambda: modular.kms_residual(
        np.eye(2) / 2, np.zeros((0, 2, 2)), np.zeros((0, 2, 2))), "A",
        id="kms_residual-A-empty"),
    pytest.param(lambda: modular.lemma_modular_residual(
        modular.build_modular(np.eye(2) / 2), np.zeros((0, 2, 2))), "A",
        id="lemma_modular_residual-A-empty"),
    pytest.param(lambda: modular.build_gns([], np.eye(2) / 2), "generators",
                 id="build_gns-generators-empty"),
    pytest.param(lambda: modular.kms_residual(
        np.eye(3) / 3, np.ones((3, 3, 3)), np.ones((2, 3, 3))), "A",
        id="kms_residual-A-B-lengths"),
    pytest.param(lambda: modular.kms_residual(np.eye(3) / 3, np.eye(4),
                                              np.eye(3)), "A",
                 id="kms_residual-A-size"),
    pytest.param(lambda: modular.lemma_modular_residual(
        modular.build_modular(np.eye(3) / 3), np.eye(4)), "A",
        id="lemma_modular_residual-A-size"),
    pytest.param(lambda: modular.TraceWeight(np.eye(3)).inner(np.eye(4),
                                                              np.eye(4)),
                 "A", id="TraceWeight.inner-size"),
    pytest.param(lambda: modular.TraceWeight(np.eye(3)).inner(
        np.eye(3), np.full((3, 3), NAN)), "B", id="TraceWeight.inner-B-nan"),
    pytest.param(lambda: modular.modtime_unitarity(
        modular.TraceWeight(np.eye(3)), np.eye(3) / 3, [0.0, 0.4],
        [(np.eye(4), np.eye(4))]), "samples",
        id="modtime_unitarity-samples-size"),
    pytest.param(lambda: modular.build_gns([np.eye(2)], np.eye(2) / 2).state(
        np.eye(3)), "A", id="GnsRep.state-size"),
    pytest.param(lambda: modular.build_gns([np.eye(2)],
                                           np.eye(2) / 2).represent(np.eye(3)),
                 "A", id="GnsRep.represent-size"),
    pytest.param(lambda: modular.build_gns([np.eye(3)], np.eye(2) / 2),
                 "generator", id="build_gns-generator-size"),
    pytest.param(lambda: modular.build_modular(np.eye(2) / 2).flow(
        0.5, np.eye(9)), "A", id="ModularTriple.flow-A-size"),
    pytest.param(lambda: operators.herm_spectrum(np.zeros((0, 0))),
                 "operator", id="herm_spectrum-size-0"),
    pytest.param(lambda: povm.DiscretePOVM(
        regions.equal_partition(regions.circle_full(), 2), [np.ones(2)] * 2),
        "effects", id="DiscretePOVM-effects-one-matrix"),
    pytest.param(lambda: povm.povm_integrate(
        povm.random_povm(3, 4, np.random.default_rng(0)), lambda x: NAN),
        "f", id="povm_integrate-f-nan"),
    pytest.param(lambda: povm.state_to_measure(
        povm.random_povm(3, 4, np.random.default_rng(0)), np.eye(2) / 2),
        "density T", id="state_to_measure-T-size"),
    pytest.param(lambda: povm.contraction_moment_povm(np.zeros((0, 0)), 8,
                                                      16),
                 "contraction T", id="contraction_moment_povm-T-empty"),
])
def test_model_input_not_an_integer_or_not_finite_is_refused_by_name(call,
                                                                     name):
    # each of these returned a NaN or wrongly sized object, or failed with
    # an IndexError, an OverflowError or a message that did not name the
    # input; now each is refused by name, with no warning first
    with warnings.catch_warnings(), pytest.raises(ValueError,
                                                  match=rf"\b{name}\b"):
        warnings.simplefilter("error")
        call()


def test_cli_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", "weyl", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().startswith("case,anchor,param,residual,tol,pass")


def test_cli_study(tmp_path):
    out = tmp_path / "study.csv"
    code = main(["study", "poisson-kernel", "--sizes", "128", "256",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "size,error"


def test_tau_unitarity_inputs_detect_a_symbol_off_the_unit_circle(monkeypatch):
    # the harness scales its factors so |<A, B>_tau| stays O(1): at every
    # size the rounding must stay far below the case's tolerance while a
    # symbol u scaled by 1 + 1e-10 exceeds it; unit-variance factors fail
    # the first at n = 2048, unit-norm columns the second
    seen = []
    defect = relativistic._factored_isometry_defect

    def capture(grid, u, w, A, B):
        seen.append((grid, u, w, A, B))
        return defect(grid, u, w, A, B)

    monkeypatch.setattr(relativistic, "_factored_isometry_defect", capture)
    for n in (256, 384, 2048, 8192):
        report = run_suite(SuiteConfig(suite="relativistic", n=n))
        (case,) = [c for c in report["cases"]
                   if c["case"] == "rel.tau-unitarity"]
        (grid, u, w, A, B), = seen
        seen.clear()
        assert grid.n == n
        assert case["residual"] <= case["tol"] / 100
        assert defect(grid, u * (1 + 1e-10), w, A, B) > case["tol"]


def test_tau_unitarity_case_memory_is_linear_in_n():
    # rank-4 factors at n = 65536 hold 16 columns of 1 MB each; one n x n
    # input would take 64 GB
    n = 65536
    rng = np.random.default_rng(0)
    grid = relativistic.CircleGrid(n, 2 * np.pi * 4)
    A, B = ((harness._rand_factor(rng, n, 4, n ** 0.25),
             harness._rand_factor(rng, n, 4, n ** 0.5)) for _ in range(2))
    tracemalloc.start()
    try:
        residual = relativistic.tau_unitarity_residual(grid, 1.0, 0.7, A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual < 1e-14
    assert peak < 6 * 16 * n * 16           # a few copies of the 16 columns


def test_weyl_suite_passes_where_the_seam_point_rounds_below_base():
    report = run_suite(SuiteConfig(suite="weyl", m=20))
    assert [c["case"] for c in report["cases"] if not c["pass"]] == []


# Functions that no verify or study run reaches, each kept for a reason.
UNREACHED = {
    # the dense circulant form of a Fourier multiplier: tau_unitarity_residual
    # applies its multipliers to factor columns by FFT, and test_relativistic's
    # test_tau_unitarity_fft_matches_dense_multiplier_products keeps this as
    # the reference; kept because perfbench/layers.py traces it by name
    "relativistic.CircleGrid.multiplier_matrix",
    # the dense permutation S(t): weyl_defect and quantize find its m
    # nonzeros by index, and test_weylnc keeps this as their reference;
    # kept because perfbench/layers.py traces it by name
    "weylnc.MellinLattice.shift",
    # the dense quantization: conjugation_residual certifies its defect from
    # the shift diagonals and forms the two m x m operators only in the
    # fallback taken when the bound exceeds tol, which
    # test_wrong_translation_fails_nc_conjugation_through_the_dense_fallback
    # exercises; kept because perfbench/layers.py traces it by name
    "weylnc.quantize",
    # A^{it} from a fresh eigendecomposition: no model calls it, because
    # osc.thermal's dense fallback and modtime_unitarity each raise one
    # spectrum of T to many powers with spectral_power; test_operators and
    # test_modular keep it as the one-call reference for that flow; kept
    # because perfbench/layers.py traces it by name
    "operators.imag_power",
    # the dense conjugation diag(phase) A diag(phase)*: every run certifies
    # its conjugation defects from generators or shift diagonals and forms
    # the dense defect only in the fallback taken when a bound exceeds tol,
    # which the *_fails_through_the_dense_fallback tests exercise
    "operators.diag_conjugate",
    # the modular flow of a carrier operator through the powers of the
    # decomposed Delta: no case flows a carrier operator, and test_modular
    # and test_oscillator keep it as the reference that the d x d
    # imag_power flow of an algebra element is the carrier flow of its left
    # multiplication; kept because perfbench/layers.py traces it by name
    "modular.ModularTriple.flow",
    # the dense circular dilation and its Cayley eigensolver: every run
    # passes a scalar T, whose dilation is diagonalised in closed form by
    # povm._scalar_spectrum; they are the solver for d >= 2, which
    # test_povm exercises, and the fallback taken when the closed form's
    # certificate fails, which
    # test_failing_scalar_certificate_falls_back_with_the_same_verdicts
    # exercises
    "povm._unitary_eigh",
    "povm._circular_dilation",
}


def _library_functions():
    """(file, first line) -> dotted name of every function and method
    defined in the library modules, properties included."""
    found = {}
    for mod in (operators, povm, modular, oscillator, relativistic, weylnc,
                regions):
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, fn in members:
                fn = getattr(fn, "__func__", fn)     # classmethod, staticmethod
                if isinstance(fn, (property, cached_property)):
                    fn = getattr(fn, "fget", None) or fn.func
                code = getattr(fn, "__code__", None)
                if code is None or code.co_filename != mod.__file__:
                    continue        # not a function, or made by @dataclass
                found[(code.co_filename, code.co_firstlineno)] = \
                    ".".join(filter(None, (short, name, attr)))
    return found


def test_verify_and_studies_reach_every_library_function():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_suite(SuiteConfig(suite="all", n=16, m=16))
        for kind in STUDY_KINDS:
            convergence_study(kind, [16, 32])
    finally:
        sys.setprofile(previous)
    functions = _library_functions()
    unreached = {name for key, name in functions.items() if key not in called}
    assert unreached == UNREACHED


def test_wrong_rotation_fails_osc_covariance_through_the_dense_fallback(
        monkeypatch):
    # every arc rotated by -t: E_B conjugated by e^{-itN} against E_{B-t}
    real = regions.RegionSet.shifted
    monkeypatch.setattr(regions.RegionSet, "shifted",
                        lambda self, t: real(self, -t))
    record = _case(run_suite(SuiteConfig(suite="oscillator")),
                   "osc.covariance")
    assert not record["pass"] and "upper_bound" not in record
    rng, d, worst = np.random.default_rng(7 + 2), 12, 0.0
    for _ in range(10):
        t, a, w = (float(rng.uniform(lo, hi)) for lo, hi in
                   ((-np.pi, np.pi), (-np.pi, np.pi), (0.1, 2.0)))
        B = regions.RegionSet.circle([(a, a + w)])
        dense = (diag_conjugate(np.exp(-1j * t * np.arange(d)),
                                closed_form_phase_effect(B, d))
                 - closed_form_phase_effect(real(B, -t), d))
        worst = max(worst, opnorm(dense))
    assert record["residual"] == worst > 0.5


def test_rolled_cell_masses_fail_the_poisson_case(monkeypatch):
    # the 64 masses of T = 0.5 rolled by one cell: a binning rotated by
    # 2 pi / 64 reads 4.3e-3, above the tol, while the discretisation
    # error of the unrolled masses at M=32 is 1.3e-3
    record = _case(run_suite(SuiteConfig(suite="povm")),
                   "contraction.poisson.masses")
    assert record["pass"] and 1e-3 < record["residual"] < record["tol"]
    real = povm.contraction_moment_povm

    def rolled(*args):
        p, report = real(*args)
        report.cell_masses = np.roll(report.cell_masses, 1)
        return p, report

    monkeypatch.setattr(povm, "contraction_moment_povm", rolled)
    record = _case(run_suite(SuiteConfig(suite="povm")),
                   "contraction.poisson.masses")
    assert not record["pass"] and record["residual"] > 4e-3


CONTRACTION_CASES = ("contraction.zero.moments", "contraction.poisson.masses",
                     "contraction.unitary.pvm")


def _contraction_records(monkeypatch=None, change=None):
    """The three contraction records of a povm run, with ``change(t, s, M,
    thetas, weights)`` applied to every spectrum ``_scalar_spectrum``
    certifies when one is given."""
    if change is not None:
        real = povm._scalar_spectrum
        monkeypatch.setattr(povm, "_scalar_spectrum",
                            lambda t, s, M: change(t, s, M, *real(t, s, M)))
    report = run_suite(SuiteConfig(suite="povm"))
    return {case: _case(report, case) for case in CONTRACTION_CASES}


def _passes(records):
    return {case: record["pass"] for case, record in records.items()}


def test_failing_scalar_certificate_falls_back_with_the_same_verdicts(
        monkeypatch):
    def verdicts():
        return [(c["case"], c["param"], c["pass"])
                for c in run_suite(SuiteConfig(suite="povm"))["cases"]]

    calls, real_eigh = [], povm._unitary_eigh
    monkeypatch.setattr(povm, "_unitary_eigh",
                        lambda U: calls.append(len(U)) or real_eigh(U))
    unpatched = verdicts()
    assert calls == [] and all(passed for *_, passed in unpatched)
    # roots moved by 1e-6 fail the residual certificate of all three scalar
    # inputs, so each dilation goes through the dense Cayley path
    real_roots = povm._arc_roots
    monkeypatch.setattr(povm, "_arc_roots", lambda *a: real_roots(*a) + 1e-6)
    assert verdicts() == unpatched
    assert calls == [64, 64, 64]


def test_weights_without_the_depth_factor_fail_contraction_zero_moments(
        monkeypatch):
    # s^2 / (s^2 + |e^{i theta} - t|^2) gives T = 0 the weight 1/2 per
    # phase, so moment 0 reads K/2 - 1 = 31
    def no_depth(t, s, M, thetas, weights):
        return thetas, s * s / (s * s + np.abs(np.exp(1j * thetas) - t) ** 2)

    assert all(_passes(_contraction_records()).values())
    record = _contraction_records(monkeypatch, no_depth)[
        "contraction.zero.moments"]
    assert not record["pass"]
    assert record["residual"] == pytest.approx(31, rel=1e-12)


def test_phases_rotated_by_half_an_arc_fail_contraction_poisson_masses(
        monkeypatch):
    # the K equal weights of T = 0 on any rotation of the K-gon reproduce
    # T^n = 0 for 0 < n < K, so no moment case can see this rotation; it
    # moves half the phases of T = 0.5 across a cell edge instead
    def rotated(t, s, M, thetas, weights):
        return thetas + np.pi / (2 * M), weights

    assert _passes(_contraction_records(monkeypatch, rotated)) == {
        "contraction.zero.moments": True,
        "contraction.poisson.masses": False,
        "contraction.unitary.pvm": True}


def test_spread_unitary_mass_fails_contraction_unitary_pvm(monkeypatch):
    # weight 1/K on every phase of e^{0.7i}: each cell holds a fraction of
    # the identity, which is no projection
    def spread(t, s, M, thetas, weights):
        return thetas, (np.full(2 * M, 1 / (2 * M)) if abs(t) > 0.99
                        else weights)

    assert _passes(_contraction_records(monkeypatch, spread)) == {
        "contraction.zero.moments": True,
        "contraction.poisson.masses": True,
        "contraction.unitary.pvm": False}


@pytest.mark.parametrize("field, value", [
    ("d", 5.5), ("d", True), ("d", 12.0), ("seed", 1.5), ("seed", None),
    ("seed", False), ("m", 64.0), ("n", np.float64(256.0)), ("n", True),
])
def test_non_integer_sizes_and_seed_rejected_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        SuiteConfig(suite="all", **{field: value})


@pytest.mark.parametrize("tol", [True, 0.0, -1e-9, np.inf, np.nan])
def test_tol_must_be_a_finite_positive_number(tol):
    # a bool would pass 0 < tol < inf and reach every record as a JSON bool
    with pytest.raises(ValueError, match="^tol must be finite and > 0, got "):
        SuiteConfig(suite="weyl", tol=tol)


@pytest.mark.parametrize("sizes", [[128.7, 256], [128, True], [np.float64(128.0)]])
def test_study_sizes_must_be_integers(sizes):
    # int() would truncate 128.7 to 128 and read True as 1
    with pytest.raises(ValueError, match="^poisson-kernel size must be an integer, got "):
        convergence_study("poisson-kernel", sizes)


def test_study_needs_a_size():
    with pytest.raises(ValueError, match="needs at least one size"):
        convergence_study("poisson-kernel", [])
    rows = convergence_study("poisson-kernel", [np.int64(128), 256])["rows"]
    assert [type(r["size"]) for r in rows] == [int, int]


def test_a_suite_that_reads_betas_needs_one():
    # with no beta the oscillator suite would run no osc.thermal case and
    # leave "Thm thermal-L" unchecked without a word
    for suite in ("oscillator", "all"):
        with pytest.raises(ValueError, match="at least one inverse temperature"):
            SuiteConfig(suite=suite, betas=())
    assert "betas" not in run_suite(SuiteConfig(suite="povm", betas=()))["config"]


def test_integer_fields_validated_only_where_read_and_coerced():
    SuiteConfig(suite="weyl", d=5.5, n=True)
    SuiteConfig(suite="povm", m=64.0)
    cfg = SuiteConfig(suite="all", d=np.int64(12), seed=np.uint8(7))
    assert type(cfg.d) is int and type(cfg.seed) is int
    assert report_body(run_suite(SuiteConfig(suite="povm", d=np.int64(5)))) \
        == report_body(run_suite(SuiteConfig(suite="povm", d=5)))


def _thermal_draws(seed, beta_index):
    """The five (t, B) draws of the oscillator suite's osc.thermal case for
    its beta_index-th beta, as the suite draws them."""
    rng = np.random.default_rng(seed + 2)
    rng.uniform(size=30)            # the ten (t, a, w) draws of osc.covariance
    rng.uniform(size=10 * beta_index)
    return [(t, regions.RegionSet.circle([(a, a + 1.0)]))
            for t, a in ((float(rng.uniform(-1.0, 1.0)),
                          float(rng.uniform(-np.pi, np.pi)))
                         for _ in range(5))]


def _dense_thermal_worst(beta, d, samples):
    """Reference: the largest dense defect ||T^{-it} E_B T^{it} -
    E_{B - beta t}||, T^{-it} the ``spectral_power`` of the
    ``herm_spectrum`` of ``oscillator.gibbs``, each as the module sees it
    at call time."""
    T = oscillator.gibbs(beta, d)

    def flow(t, X):
        U = oscillator.spectral_power(oscillator.herm_spectrum(T), 1j * -t)
        return U @ X @ adjoint(U)

    return max(opnorm(flow(t, oscillator.phase_effect(B, d).dense())
                      - oscillator.phase_effect(B.shifted(-beta * t),
                                                d).dense())
               for t, B in samples)


def _thermal_records(report):
    return [r for r in report["cases"] if r["case"] == "osc.thermal"]


def test_osc_thermal_is_certified_and_below_its_dense_defect_by_rounding():
    report = run_suite(SuiteConfig(suite="oscillator"))
    dense = run_suite(SuiteConfig(suite="oscillator", tol=1e-30))
    for i, beta in enumerate((0.5, 1.0)):
        record, fallback = _thermal_records(report)[i], \
            _thermal_records(dense)[i]
        assert record["pass"] and record["upper_bound"] is True
        assert record["residual"] < 1e-13
        # below every bound, the record is the dense flow's value
        worst = _dense_thermal_worst(beta, 12, _thermal_draws(7, i))
        assert "upper_bound" not in fallback
        assert fallback["residual"] == worst < 1e-13


@pytest.mark.parametrize("witness", ["backward flow", "non-Gibbs density"])
def test_osc_thermal_witnesses_fail_through_the_dense_flow(monkeypatch,
                                                           witness):
    if witness == "backward flow":
        # sigma_t read as Delta^{it} . Delta^{-it}: the phase and the dense
        # flow both run at -t
        power, phase = oscillator.spectral_power, oscillator.flow_phase
        monkeypatch.setattr(oscillator, "spectral_power",
                            lambda s, p: power(s, -p))
        monkeypatch.setattr(oscillator, "flow_phase",
                            lambda T, t: phase(T, -np.asarray(t)))
    else:
        # the weight of one interior level moved: log T is no longer affine
        # in n, so the phase is not geometric and the dense flow is taken
        gibbs = oscillator.gibbs

        def moved(beta, d):
            T = gibbs(beta, d).copy()
            T[d // 2, d // 2] *= 1.1
            return T / np.trace(T).real

        monkeypatch.setattr(oscillator, "gibbs", moved)
    report = run_suite(SuiteConfig(suite="oscillator"))
    for i, beta in enumerate((0.5, 1.0)):
        record = _thermal_records(report)[i]
        assert not record["pass"] and "upper_bound" not in record
        worst = _dense_thermal_worst(beta, 12, _thermal_draws(7, i))
        assert record["residual"] == worst > 1e-4


@pytest.mark.parametrize("suite, size", [("oscillator", {"d": 4096}),
                                         ("relativistic", {"n": 8192}),
                                         ("weyl", {"m": 8192})])
def test_covariance_phases_are_geometric_at_the_ci_sizes(monkeypatch, suite,
                                                         size):
    # every phase shift_covariance reads passes its geometric check with
    # a margin of ten, and the covariance cases stay certified
    seen = []
    real = operators.geometric_deviation

    def spy(phase):
        deviation, allowance = real(phase)
        seen.append(np.max(deviation / allowance))
        return deviation, allowance

    monkeypatch.setattr(operators, "geometric_deviation", spy)
    report = run_suite(SuiteConfig(suite=suite, **size))
    assert seen and max(seen) < 0.1
    covariance = [r for r in report["cases"] if ".covariance" in r["case"]]
    assert covariance and all(r["pass"] and r.get("upper_bound")
                              for r in covariance)


def test_stacked_harness_draws_equal_the_per_draw_reference():
    # the per-draw loops the gns-modular and povm suites ran before they
    # took their draws as stacks: the same random numbers, the same
    # per-matrix arithmetic, so every residual is equal bit for bit
    def rand_complex(rng, d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    report = run_suite(SuiteConfig(suite="all"))
    rng = np.random.default_rng(7 + 1)
    d = 6
    T = oscillator.gibbs(1.0, d)
    kms = max(modular.kms_residual(T, rand_complex(rng, d),
                                   rand_complex(rng, d)) for _ in range(10))
    tracial = modular.kms_residual(np.eye(d) / d, rand_complex(rng, d),
                                   rand_complex(rng, d))
    triple = modular.build_modular(oscillator.gibbs(1.0, d))
    lemma = max(modular.lemma_modular_residual(triple, rand_complex(rng, d))
                for _ in range(5))
    assert _case(report, "kms.gibbs")["residual"] == kms
    assert _case(report, "kms.tracial")["residual"] == tracial
    assert _case(report, "modular.lemma")["residual"] == lemma

    rng = np.random.default_rng(7)
    p = povm.random_povm(8, 4, rng)
    phase = povm.DiscretePOVM(
        regions=regions.equal_partition(regions.circle_full(), 4),
        effects=[oscillator.phase_effect(B, 8).dense()
                 for B in regions.equal_partition(regions.circle_full(), 4)])
    for name, q in (("naimark.phase.reconstruction", phase),
                    ("naimark.random.reconstruction", p)):
        roots = [operators.sqrtm_psd(E) for E in q.effects]
        rec = max(opnorm(adjoint(R) @ R - E) for R, E in zip(roots, q.effects))
        assert _case(report, name)["residual"] == rec


@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_povm_suite_residuals_equal_the_per_effect_reference(seed):
    # the povm suite's residuals against the per-effect lists it kept
    # before its effects became one stack: the same random numbers, each
    # effect's products and sums in the same order, so every residual is
    # equal bit for bit; d is capped at 8 at default and scaled sizes alike
    report = run_suite(SuiteConfig(suite="povm", seed=seed))
    rng, d = np.random.default_rng(seed), 8
    effects = per_effect_random_povm(d, 4, rng)
    g = rng.standard_normal((2, d, d))
    T = g[0] + 1j * g[1]
    T = T @ adjoint(T)
    T = T / np.trace(T).real
    probs = np.array([np.trace(E @ T).real for E in effects])
    arcs = regions.equal_partition(regions.circle_full(), 4)
    phase = [closed_form_phase_effect(B, d) for B in arcs]
    roots = [operators.sqrtm_psd(E) for E in phase]
    J = np.vstack(roots)
    fvals = rng.standard_normal(4)
    psi = np.zeros((d, d), dtype=complex)
    for f, E in zip(fvals, effects):
        psi += complex(f) * E
    expected = {
        "povm.random.sum": opnorm(sum(effects) - np.eye(d)),
        "povm.total-mass": abs(probs.sum() - 1.0),
        "naimark.phase.isometry": opnorm(adjoint(J) @ J - np.eye(d)),
        "naimark.phase.reconstruction": max(
            opnorm(adjoint(R) @ R - E) for R, E in zip(roots, phase)),
        "naimark.random.reconstruction": max(
            opnorm(adjoint(R) @ R - E)
            for R, E in zip(map(operators.sqrtm_psd, effects), effects)),
        "psi.contraction": max(0.0, opnorm(psi) - abs(fvals).max()),
    }
    for name, residual in expected.items():
        assert _case(report, name)["residual"] == residual, name


def _covariance_draws(seed):
    """The ten (t, B) draws of the oscillator suite's osc.covariance case."""
    rng = np.random.default_rng(seed + 2)
    draws = [[float(rng.uniform(lo, hi)) for lo, hi in
              ((-np.pi, np.pi), (-np.pi, np.pi), (0.1, 2.0))]
             for _ in range(10)]
    return [(t, regions.RegionSet.circle([(a, a + w)])) for t, a, w in draws]


def test_one_arc_rotated_the_wrong_way_fails_osc_covariance(monkeypatch):
    # the target of draw 4 of the stacked call rotated by -t: that draw
    # alone forms its dense defect, which is the case's residual
    unpatched = run_suite(SuiteConfig(suite="oscillator"))
    assert all(r["pass"] for r in unpatched["cases"])
    assert _case(unpatched, "osc.covariance")["upper_bound"] is True
    real, calls, formed = regions.RegionSet.shifted, [], []

    def shifted(self, t):
        calls.append(t)
        return real(self, -t if len(calls) == 5 else t)

    real_conjugate = operators.diag_conjugate
    monkeypatch.setattr(regions.RegionSet, "shifted", shifted)
    monkeypatch.setattr(operators, "diag_conjugate", lambda phase, A: (
        formed.append(A.shape) or real_conjugate(phase, A)))
    record = _case(run_suite(SuiteConfig(suite="oscillator")),
                   "osc.covariance")
    assert not record["pass"] and "upper_bound" not in record
    assert formed == [(1, 12, 12)]
    t, B = _covariance_draws(7)[4]
    dense = (diag_conjugate(np.exp(-1j * t * np.arange(12)),
                            closed_form_phase_effect(B, 12))
             - closed_form_phase_effect(real(B, -t), 12))
    assert record["residual"] == opnorm(dense) > 0.1


def test_wrong_sign_flow_phase_sends_every_thermal_draw_to_the_dense_flow(
        monkeypatch):
    # T^{+it} read as the flow's phase: no draw's bound is within tol, so
    # every draw of each beta takes the dense flow, whose value the record
    # carries unmarked; the flow itself is right, so the case passes, and
    # a broken phase can never certify a residual (the backward-flow
    # witness, which turns the dense flow too, fails it)
    phase, formed = oscillator.flow_phase, []
    power = oscillator.spectral_power
    monkeypatch.setattr(oscillator, "flow_phase",
                        lambda T, t: phase(T, -np.asarray(t)))
    monkeypatch.setattr(oscillator, "spectral_power",
                        lambda s, p: formed.append(p) or power(s, p))
    report = run_suite(SuiteConfig(suite="oscillator"))
    assert len(formed) == 10
    for i, beta in enumerate((0.5, 1.0)):
        record = _thermal_records(report)[i]
        assert "upper_bound" not in record and record["pass"]
        assert record["residual"] == _dense_thermal_worst(
            beta, 12, _thermal_draws(7, i))
