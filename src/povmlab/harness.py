"""Batch verification runner.

Assembles every machine-checkable identity of the library into suites of
cases, each carrying a stable anchor string naming the theorem it
verifies, and produces a deterministic JSON/CSV report.  Identical
configuration and seed give byte-identical report bodies; wall time and
timestamp live in the separate ``meta`` section.
"""

import csv
import io
import json
import platform
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import modular, oscillator, povm, relativistic, weylnc
from .operators import (NUMERIC_TOL, ToeplitzBlock, _rand_complex, adjoint,
                        opnorm, partition_defect)
from .regions import RegionSet, circle_full, equal_partition, require_int

SCHEMA_VERSION = 1

SUITES = ("povm", "gns-modular", "oscillator", "relativistic", "weyl", "all")

# the SuiteConfig fields each suite reads beyond seed and tol, which every
# suite reads; a field is validated and echoed into the report's config
# only when a selected suite reads it
_FIELDS_READ = {
    "povm": {"d"},
    "gns-modular": {"d"},
    "oscillator": {"d", "betas"},
    "relativistic": {"n"},
    "weyl": {"m"},
}


def _fields_read(suite: str) -> set:
    suites = _FIELDS_READ if suite == "all" else (suite,)
    return set().union({"seed", "tol"}, *(_FIELDS_READ[s] for s in suites))


# every theorem of the source material must be exercised by at least one
# case; the harness fails its own self-check otherwise
REQUIRED_ANCHORS = (
    "Thm unsharp-observables",
    "Thm Naimark",
    "Thm contraction-POVM",
    "Thm quantum-phase",
    "Thm thermal-L",
    "Lemma modular",
    "Def modular-time",
    "Def covariance",
    "KMS",
    "GNS",
    "Thm thermal-D(1)",
    "Thm thermal-D(2)",
    "Thm thermal-D(3)",
    "eq:weyl",
    "Thm thermal-Dixmier(1)",
    "Thm thermal-Dixmier(2)",
    "Thm thermal-Dixmier(3)",
)


@dataclass
class SuiteConfig:
    suite: str = "all"
    d: int = 12
    n: int = 256
    m: int = 64
    betas: tuple = (0.5, 1.0)
    seed: int = 7
    tol: float = None          # global tolerance override (None: per-case)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        reads = _fields_read(self.suite)
        for name, least in (("seed", 0), ("d", 1), ("n", 8), ("m", 8)):
            if name in reads:
                setattr(self, name, require_int(getattr(self, name), name, least))
        for name in ("n", "m"):     # each is split into 4 aligned cells
            size = getattr(self, name)
            if name in reads and size % 4:
                raise ValueError(f"{name} must be a multiple of 4 and >= 8, got {size}")
        self.betas = tuple(float(b) for b in self.betas)
        if "betas" in reads and not self.betas:
            raise ValueError("betas must hold at least one inverse temperature")
        if "betas" in reads and not all(0 <= b < np.inf for b in self.betas):
            raise ValueError(f"betas must be finite and >= 0, got {self.betas}")
        if self.tol is not None and (isinstance(self.tol, bool)
                                     or not 0 < self.tol < np.inf):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


class _Cases:
    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self.records = []

    def tol(self, default_tol):
        """The tolerance a case is judged against."""
        return self.cfg.tol if self.cfg.tol is not None else default_tol

    def _record(self, case, anchor, param, residual, tol, ok,
                **extra) -> dict:
        self.records.append({"case": case, "anchor": anchor, "param": param,
                             "residual": residual, "tol": tol,
                             "pass": bool(ok), **extra})
        return self.records[-1]

    def add(self, case, anchor, param, residual, default_tol) -> dict:
        tol = self.tol(default_tol)
        return self._record(case, anchor, param, float(residual), tol,
                            residual <= tol)

    def add_defect(self, case, anchor, param, defect, default_tol):
        """Record ``defect.norm`` at the case's tol.  A residual that is a
        certified upper bound, not the computed norm itself, is marked by
        the optional "upper_bound" key; one that fails is a bound whose
        dense check was over the budget, and its param says so."""
        value, bound = defect.norm(self.tol(default_tol))
        record = self.add(case, anchor, param, value, default_tol)
        if bound:
            record["upper_bound"] = True
            if not record["pass"]:
                record["param"] += (f" [dense {defect.size}x{defect.size} "
                                    "over budget]")

    def add_flag(self, case, anchor, param, ok, note=""):
        # boolean checks are recorded with residual 0/1 against tol 0.5 so
        # the report schema stays uniform
        self._record(case, anchor, param + (f" [{note}]" if note else ""),
                     0.0 if ok else 1.0, 0.5, ok)

    def skip(self, case, anchor, param, reason):
        self._record(case, anchor, param, None, None, True, skipped=reason)


def _rand_factor(rng, n, r, norm):
    """n x r complex Gaussian matrix scaled to Frobenius norm ``norm``."""
    f = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return f * (norm / np.linalg.norm(f))


# --------------------------------------------------------------------------
# suites


def _suite_povm(c: _Cases):
    cfg = c.cfg
    rng = np.random.default_rng(cfg.seed)
    d = min(cfg.d, 8)

    p = povm.random_povm(d, 4, rng)
    dil2 = povm.naimark_dilate(p)       # its validation of p gives the sum
    c.add("povm.random.sum", "Thm unsharp-observables", f"d={d} k=4",
          dil2.report.sum_residual, 1e-10)

    T = _rand_complex(rng, d)
    T = T @ adjoint(T)
    T = T / np.trace(T).real
    probs = povm.state_to_measure(p, T)
    c.add("povm.total-mass", "Thm unsharp-observables", f"d={d}",
          abs(probs.sum() - 1.0), 1e-12)

    arcs = equal_partition(circle_full(), 4)
    phase = povm.DiscretePOVM(regions=arcs,
                              effects=oscillator.phase_effect(arcs, d).dense())
    dil = povm.naimark_dilate(phase)
    # J_i* J_i - E_i for both dilations, as one stack under one norm call
    rec, rec2 = opnorm(np.concatenate(
        [dil.compressions() - phase.effects,
         dil2.compressions() - p.effects])).reshape(2, 4).max(axis=1)
    c.add("naimark.phase.reconstruction", "Thm Naimark", f"d={d} k=4", rec, 1e-12)
    c.add("naimark.phase.isometry", "Thm Naimark", f"d={d} k=4",
          dil.isometry_residual, 1e-12)
    c.add("naimark.random.reconstruction", "Thm Naimark", f"d={d} k=4", rec2, 1e-12)

    fvals = rng.standard_normal(4)
    psi = povm.povm_integrate(p, lambda x: fvals[
        min(int((x + np.pi) / (2 * np.pi / 4)), 3)])
    c.add("psi.contraction", "Thm unsharp-observables", f"d={d}",
          max(0.0, opnorm(psi) - abs(fvals).max()), 1e-10)

    _, rep0 = povm.contraction_moment_povm(np.array([[0.0]]), 32, 64)
    c.add("contraction.zero.moments", "Thm contraction-POVM", "T=0 M=32",
          rep0.moment_residuals.max(), 1e-10)
    _, repr_ = povm.contraction_moment_povm(np.array([[0.5]]), 32, 64)
    pk = _poisson_cell_masses(repr_, 0.5)
    c.add("contraction.poisson.masses", "Thm contraction-POVM", "T=0.5 M=32",
          pk, 3e-3)
    phi = 0.7
    pu, _ = povm.contraction_moment_povm(np.array([[np.exp(1j * phi)]]), 32, 64)
    pvm = povm.povm_validate(pu, NUMERIC_TOL).multiplicative
    c.add_flag("contraction.unitary.pvm", "Thm contraction-POVM",
               f"T=e^(i{phi})", pvm, "multiplicative")


def _poisson_cell_masses(report, r):
    """Worst cell-mass deviation from the Poisson density of radius r < 1.

    Each cell's exact mass is the difference at its edges of
    F(theta) = atan2((1 + r) sin(theta/2), (1 - r) cos(theta/2)) / pi, an
    antiderivative of (1 - r^2) / (2 pi (1 - 2 r cos theta + r^2)) that is
    continuous on [-pi, pi], where it runs from -1/2 to 1/2.
    """
    edges = np.linspace(-np.pi, np.pi, len(report.cell_masses) + 1)
    F = np.arctan2((1 + r) * np.sin(edges / 2),
                   (1 - r) * np.cos(edges / 2)) / np.pi
    return float(np.abs(report.cell_masses - np.diff(F)).max())


def _suite_gns_modular(c: _Cases):
    cfg = c.cfg
    rng = np.random.default_rng(cfg.seed + 1)
    d = min(cfg.d, 6)

    units = [np.eye(2)[:, [i]] @ np.eye(2)[[j], :] for i in range(2) for j in range(2)]
    T2 = np.diag([0.7, 0.3]).astype(complex)
    g = modular.build_gns(units, T2)
    worst = max(abs(g.state(A) - np.vdot(g.omega_vec,
                                         g.represent(A) @ g.omega_vec))
                for A in units)
    c.add("gns.m2.state-identity", "GNS", "M2 faithful", worst, 1e-12)
    c.add_flag("gns.m2.dim", "GNS", f"dim={g.dim}", g.dim == 4 and g.faithful)
    gp = modular.build_gns(units, np.diag([1.0, 0.0]).astype(complex))
    c.add_flag("gns.m2.pure.dim", "GNS", f"dim={gp.dim}",
               gp.dim == 2 and not gp.faithful)

    pairs = _rand_complex(rng, d, (10, 2))
    c.add("kms.gibbs", "KMS", f"beta=1 d={d}",
          modular.kms_residual(oscillator.gibbs(1.0, d), pairs[:, 0],
                               pairs[:, 1]), 1e-12)
    c.add("kms.tracial", "KMS", f"beta=0 d={d}",
          modular.kms_residual(np.eye(d) / d, _rand_complex(rng, d),
                               _rand_complex(rng, d)), 1e-12)

    triple = modular.build_modular(oscillator.gibbs(1.0, d))
    c.add("modular.delta.closed-form", "Lemma modular", f"d={triple.d}",
          triple.closed_form_residuals["delta_conjugation"], 1e-8)
    c.add("modular.j.closed-form", "Lemma modular", f"d={triple.d}",
          triple.closed_form_residuals["j_adjoint"], 1e-8)
    c.add("modular.lemma", "Lemma modular", f"d={triple.d}",
          modular.lemma_modular_residual(
              triple, _rand_complex(rng, triple.d, (5,))), 1e-8)

    Tc = np.diag(np.exp(rng.standard_normal(d))).astype(complex)
    U = np.linalg.qr(_rand_complex(rng, d))[0]
    Tc = U @ Tc @ adjoint(U)
    # the weight is T itself, so [W, T] = 0 and the flow is unitary on H_tau
    w = modular.TraceWeight(Tc)
    rep = modular.modtime_unitarity(w, Tc, [0.0, 0.4, 1.1],
                                    [(_rand_complex(rng, d), _rand_complex(rng, d))])
    c.add("modtime.commuting", "Def modular-time", f"d={d} W=T^beta",
          rep["max_isometry_residual"], 1e-12)
    bad = modular.modtime_unitarity(
        modular.TraceWeight(np.diag([1.0, 2.0]).astype(complex)),
        np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex),
        [1.0], [(np.array([[0, 1], [0, 0]], dtype=complex),) * 2])
    c.add_flag("modtime.counterexample", "Def modular-time", "2x2 [W,T]!=0",
               bad["max_isometry_residual"] >= 1e-3, "detected")


def _suite_oscillator(c: _Cases):
    cfg = c.cfg
    rng = np.random.default_rng(cfg.seed + 2)
    d = max(cfg.d, 12)

    # ten (t, a, w) draws, each drawn in that order
    draws = [[float(rng.uniform(lo, hi)) for lo, hi in
              ((-np.pi, np.pi), (-np.pi, np.pi), (0.1, 2.0))]
             for _ in range(10)]
    c.add_defect("osc.covariance", "Thm quantum-phase", f"d={d} 10 cases",
                 oscillator.covariance_residual(
                     d, [t for t, _, _ in draws],
                     [RegionSet.circle([(a, a + w)]) for _, a, w in draws]),
                 1e-10)

    for beta in cfg.betas:
        if beta * d > 20:
            c.skip("osc.thermal", "Thm thermal-L", f"beta={beta} d={d}",
                   "conditioning guard beta*d <= 20")
            continue
        pairs = [(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-np.pi, np.pi)))
                 for _ in range(5)]
        c.add_defect("osc.thermal", "Thm thermal-L", f"beta={beta} d={d}",
                     oscillator.thermal_covariance_residual(
                         beta, d, [(t, RegionSet.circle([(a, a + 1.0)]))
                                   for t, a in pairs]), 1e-8)

    info = oscillator.commutator_defect(min(d, 32))
    c.add("osc.defect.rank1", "Thm quantum-phase", f"d={min(d, 32)}",
          info["rank_one_ratio"], 1e-10)
    c.add("osc.weyl-failure", "Thm quantum-phase", "d=8 s=pi t=1",
          max(0.0, 0.1 - oscillator.weyl_failure_check(8, np.pi, 1.0)), 1e-15)

    arcs = equal_partition(circle_full(), 6)
    c.add_defect("osc.povm.sum", "Thm unsharp-observables", f"d={d} 6 arcs",
                 partition_defect(oscillator.phase_effect(arcs, d)), 1e-12)


def _suite_relativistic(c: _Cases):
    cfg = c.cfg
    rng = np.random.default_rng(cfg.seed + 3)
    n = cfg.n
    grid = relativistic.CircleGrid(n, 2 * np.pi * 4)
    model = relativistic.HardyModel(grid)

    parts = equal_partition(RegionSet.line([], length=grid.L), 4)
    effects = relativistic.rel_effect(model, parts)
    c.add_defect("rel.povm.sum", "Thm thermal-D(1)", f"n={n} 4 blocks",
                 partition_defect(effects), 1e-12)
    c.add_flag("rel.povm.effects", "Thm thermal-D(1)", f"n={n}",
               _effects_within(effects, 1e-10))

    # rank-4 operators a_L a_R* and b_L b_R*; the left factors have
    # ||.||_F = n^(1/4) and the right ones n^(1/2), so that |<A, B>_tau|
    # stays O(1) at every n (see tau_unitarity_residual)
    a_L, a_R, b_L, b_R = (_rand_factor(rng, n, 4, n ** p)
                          for p in (0.25, 0.5, 0.25, 0.5))
    c.add("rel.tau-unitarity", "Thm thermal-D(2)", f"n={n} beta=1 t=0.7",
          relativistic.tau_unitarity_residual(grid, 1.0, 0.7, (a_L, a_R),
                                              (b_L, b_R)), 1e-12)

    Bq = grid.region([(0.0, grid.L / 4)])
    for case, anchor, param, steps in (
            ("rel.covariance", "Thm thermal-D(3)", f"n={n} shift=8h", 8),
            ("rel.covariance.def", "Def covariance", f"n={n} beta=1", 4)):
        c.add_defect(case, anchor, param, relativistic.rel_covariance_residual(
            model, 1.0, steps * grid.h, Bq), 1e-12)

    coef = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    f = model.synthesize(coef)
    rep = relativistic.boundary_isometry_check(model, f,
                                               np.logspace(-3, 1, 20))
    c.add("rel.boundary.isometry", "Thm thermal-D(1)", f"n={n}",
          rep["boundary_residual"], 1e-12)
    c.add_flag("rel.boundary.monotone", "Thm thermal-D(1)", f"n={n}",
               rep["monotonicity_violations"] == 0)

    study = convergence_study("poisson-kernel", (128, 256, 512, 1024))
    c.add_flag("rel.poisson.convergence", "Thm thermal-D(1)",
               "4 refinements", study["monotone"] == "decreasing",
               "strictly decreasing")


def _suite_weyl(c: _Cases):
    cfg = c.cfg
    rng = np.random.default_rng(cfg.seed + 4)
    m = cfg.m
    delta = float(np.sqrt(2 * np.pi / m))   # self-dual spacing: delta*Z = dual grid
    lat = weylnc.MellinLattice(m, delta, -delta * (m // 2))

    c.add("weyl.relation.exact", "eq:weyl", f"m={m} s=dual t=delta",
          weylnc.weyl_relation_residual(lat, lat.dual_spacing, lat.delta), 1e-12)

    parts = equal_partition(lat.q_region([]), 4)
    c.add_defect("nc.povm.sum", "Thm thermal-Dixmier(1)", f"m={m} 4 cells",
                 partition_defect(weylnc.nc_effect(lat, parts)), 1e-12)
    half = parts[0]
    c.add("nc.indicator.projection", "Thm thermal-Dixmier(1)", f"m={m}",
          _circulant_idempotency_defect(weylnc.indicator_Q(lat, half).c), 1e-12)

    a = _random_symbol(lat, rng)
    t = 2 * lat.dual_spacing
    c.add_defect("nc.conjugation", "Thm thermal-Dixmier(2)", f"m={m} t=2*dual",
                 weylnc.conjugation_residual(lat, t, a), 1e-10)
    at = a.translated(lat, t)
    htau = abs(weylnc.htau_norm(at, lat.x_length)
               - weylnc.htau_norm(a, lat.x_length))
    c.add("nc.htau-isometry", "Thm thermal-Dixmier(2)", f"m={m}", htau, 1e-13)
    c.add("nc.integral-invariance", "Thm thermal-Dixmier(2)", f"m={m}",
          abs(weylnc.nc_integral(at, lat.x_length) - weylnc.nc_integral(a, lat.x_length)),
          1e-13)

    for case, anchor, param, steps in (
            ("nc.covariance", "Thm thermal-Dixmier(3)", f"m={m} t=3*dual", 3),
            ("nc.covariance.def", "Def covariance", f"m={m}", 1)):
        c.add_defect(case, anchor, param, weylnc.nc_covariance_residual(
            lat, steps * lat.dual_spacing, half), 1e-12)
    c.add("modtime.weighted", "Def modular-time", f"m={m}", htau, 1e-13)


def _effects_within(E: ToeplitzBlock, tol) -> bool:
    """Whether every member of the stack E is an effect within tol.  A
    Hermitian E has its spectrum in [-tol, 1 + tol] exactly when
    ||2E - I|| <= 1 + 2 tol, so E is one when ||E - E*|| <= tol and
    ||E + E* - I|| <= 1 + 2 tol.  Both are Toeplitz blocks, E* of the
    generator conj(c[-r mod n]), and each norm is decided by
    ``Defect.norm``: only a refused member forms its dense block, within
    the budget."""
    c, star = E.c, np.conj(np.roll(E.c[..., ::-1], 1, axis=-1))
    sym = c + star - np.eye(1, c.shape[-1])
    return all(ToeplitzBlock(g, E.k).as_defect().norm(bound)[0] <= bound
               for g, bound in ((c - star, tol), (sym, 1.0 + 2.0 * tol)))


def _circulant_idempotency_defect(c) -> float:
    """||C^2 - C|| for the circulant C of generator c (its first column).
    C is normal, so this is the largest |lam^2 - lam| over its spectrum,
    lam = fft(c)."""
    lam = np.fft.fft(c)
    return float(np.abs(lam * lam - lam).max())


def _random_symbol(lat, rng) -> "weylnc.SymbolRep":
    """Seeded band-limited real symbol with matching principal samples."""
    coeffs = {}
    xs = lat.x_grid
    a0 = np.zeros(lat.m)
    for _ in range(4):
        j = int(rng.integers(1, min(5, lat.m // 2)))
        k = int(rng.integers(0, min(5, lat.m // 2)))
        amp = float(rng.standard_normal())
        coeffs[(j, k)] = coeffs.get((j, k), 0.0) + 0.5 * amp
        coeffs[(-j, -k)] = coeffs.get((-j, -k), 0.0) + 0.5 * amp
        a0 += amp * np.cos(j * lat.delta * xs)
    sym = weylnc.SymbolRep(coeffs=coeffs, a0_pos=a0.copy(), a0_neg=a0.copy())
    return sym


_SUITE_BUILDERS = {
    "povm": _suite_povm,
    "gns-modular": _suite_gns_modular,
    "oscillator": _suite_oscillator,
    "relativistic": _suite_relativistic,
    "weyl": _suite_weyl,
}


def run_suite(cfg: SuiteConfig) -> dict:
    """Run the selected suite(s) and return the report dictionary."""
    start = time.perf_counter()
    cases = _Cases(cfg)
    names = list(_SUITE_BUILDERS) if cfg.suite == "all" else [cfg.suite]
    for name in names:
        _SUITE_BUILDERS[name](cases)
    if cfg.suite == "all":
        seen = {r["anchor"] for r in cases.records}
        missing = [a for a in REQUIRED_ANCHORS if a not in seen]
        if missing:
            raise RuntimeError(f"harness self-check failed: no case for "
                               f"anchors {missing}")
    failed = sum(1 for r in cases.records if not r["pass"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": cfg.suite,
        "config": {k: getattr(cfg, k) for k in sorted(_fields_read(cfg.suite))},
        "cases": cases.records,
        "summary": {"total": len(cases.records), "failed": failed},
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": round(time.perf_counter() - start, 3),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    return report


def report_body(report: dict) -> str:
    """Canonical JSON body of a report, excluding the volatile meta
    section (used for the determinism guarantee)."""
    body = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(body, sort_keys=True, indent=2)


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["case", "anchor", "param", "residual", "tol", "pass",
                     "upper_bound", "skipped"])
    for r in report["cases"]:
        writer.writerow([r["case"], r["anchor"], r["param"],
                         r["residual"], r["tol"], r["pass"],
                         r.get("upper_bound", False), r.get("skipped", "")])
    return buf.getvalue()


# --------------------------------------------------------------------------
# convergence studies


def _covariance_interp_error(n: int) -> float:
    """Covariance residual at the non-aligned shift 2.5h, measured between
    fixed smooth test states.  The operator-norm mismatch is a half-weight
    atom at the shifted boundary whose compressed norm stays near 1/4 at
    every resolution; only matrix elements against smooth vectors refine.

    With D = diag(e^{-is xi}) the matrix element of D E_B D* - E_{B+s} is
    <D* g, E_B D* f> - <g, E_{B+s} f>, and both effects act by FFT, so no
    matrix is formed.
    """
    if n % 4:       # the quarter-circle band must be aligned to the grid
        raise ValueError(f"covariance-interp size must be a multiple of 4, got {n}")
    grid = relativistic.CircleGrid(n, 8 * np.pi)
    model = relativistic.HardyModel(grid)
    s = 2.5 * grid.h
    B = grid.region([(0.0, grid.L / 4)])
    # fixed functions of xi, so the same states at every resolution
    f = np.exp(-0.2 * model.xi)
    g = np.exp(-0.3 * model.xi) * np.exp(1.3j * model.xi)
    d = np.exp(1j * s * model.xi)      # the diagonal of D*
    moved = np.vdot(d * g, relativistic.rel_effect_apply(model, B, d * f))
    shifted = np.vdot(g, relativistic._sampled_apply(model, B.shifted(s), f))
    return float(abs(moved - shifted))


def _weyl_wrap_error(m: int) -> float:
    """Wrap-around defect of the Weyl relation at a generic s, measured on
    a normalized Gaussian localized away from the lattice seam; the defect
    is applied through its m nonzeros."""
    delta = float(np.sqrt(2 * np.pi / m))
    lat = weylnc.MellinLattice(m, delta, -delta * (m // 2))
    cols, vals = weylnc.weyl_defect(lat, 0.37, lat.delta)
    g = np.exp(-lat.u ** 2 / 8.0)
    g /= np.linalg.norm(g)
    return float(np.linalg.norm(vals * g[cols]))


_STUDIES = {
    "poisson-kernel":
        lambda s: relativistic.poisson_kernel_error(s, np.pi * s / 16),
    "covariance-interp": _covariance_interp_error,
    "weyl-wrap": _weyl_wrap_error,
}
STUDY_KINDS = tuple(_STUDIES)


def convergence_study(kind: str, sizes) -> dict:
    """Error-vs-size table for the discretisation-limited checks."""
    if kind not in _STUDIES:
        raise ValueError(f"unknown study kind {kind!r}; choose from {STUDY_KINDS}")
    sizes = [require_int(s, f"{kind} size", 1) for s in sizes]
    if not sizes:
        raise ValueError(f"{kind} needs at least one size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        # the monotone flag compares consecutive rows
        raise ValueError(f"{kind} sizes must be strictly increasing, got {sizes}")
    rows = [{"size": s, "error": float(_STUDIES[kind](s))} for s in sizes]
    if len(rows) < 2:
        monotone = "n/a"
    elif all(b["error"] < a["error"] for a, b in zip(rows, rows[1:])):
        monotone = "decreasing"
    else:
        monotone = "non-monotone"
    return {"kind": kind, "rows": rows, "monotone": monotone}


def study_to_csv(study: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["size", "error"])
    for r in study["rows"]:
        writer.writerow([r["size"], r["error"]])
    return buf.getvalue()
