"""Layers of povmlab as the traced run sees them.

A layer is a module under ``src/povmlab``. The traced run wraps the public
functions listed in ``TARGETS`` (``Class.method`` for methods) and the
harness entry points, and turns the spans of each traced iteration into
the per-layer metrics named by ``metric_units``. ``cli`` only parses
arguments; it is measured through ``setup_s``.
"""

import statistics
import sys

import numpy as np

import workloads  # noqa: F401  (puts the package sources on sys.path)
from povmlab import (harness, modular, operators, oscillator, povm, regions,
                     relativistic, weylnc)

TARGETS = {
    operators: ("opnorm", "herm_spectrum", "sqrtm_psd", "is_effect",
                "funcalc", "imag_power"),
    povm: ("povm_validate", "naimark_dilate", "contraction_moment_povm"),
    modular: ("build_modular", "ModularTriple.flow",
              "ModularTriple.delta_power", "kms_residual",
              "modtime_unitarity", "build_gns"),
    oscillator: ("phase_effect", "covariance_residual",
                 "thermal_covariance_residual", "commutator_defect"),
    relativistic: ("rel_effect", "rel_covariance_residual",
                   "tau_unitarity_residual", "CircleGrid.multiplier_matrix",
                   "boundary_isometry_check"),
    weylnc: ("nc_effect", "quantize", "conjugation_residual",
             "nc_covariance_residual", "weyl_relation_residual",
             "MellinLattice.exp_P", "MellinLattice.shift"),
    regions: ("RegionSet.indicator",),
}

# work given to a call: span name -> (counter suffix, measure of the arguments)
COUNTERS = {
    "operators.opnorm": ("elements", lambda A, *a, **k: int(np.size(A))),
    "povm.povm_validate": ("pairs", lambda p, *a, **k: len(p.effects) ** 2),
    "modular.build_modular": ("carrier_dim",
                              lambda T, *a, **k: np.shape(T)[0] ** 2),
    "regions.RegionSet.indicator": ("points", lambda self, xs: len(xs)),
}

SUITES = tuple(s for s in harness.SUITES if s != "all")


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def span_names():
    return [f"{_short(mod)}.{target}"
            for mod, targets in TARGETS.items() for target in targets]


def install(tracer):
    """Wrap every target; ``tracer.remove()`` undoes it."""
    modules = [m for name, m in sys.modules.items()
               if name == "povmlab" or name.startswith("povmlab.")]
    for mod, targets in TARGETS.items():
        for target in targets:
            name = f"{_short(mod)}.{target}"
            counters = ()
            if name in COUNTERS:
                suffix, measure = COUNTERS[name]
                counters = ((f"{name}.{suffix}", measure),)
            owner, _, attr = target.rpartition(".")
            if owner:
                tracer.patch_method(vars(mod)[owner], attr, name, counters)
            else:
                tracer.patch_function(modules, mod, attr, name, counters)
    tracer.patch_function(modules, harness, "run_suite", "harness.run_suite")
    tracer.patch_function(modules, harness, "convergence_study",
                          lambda kind, sizes: f"harness.study.{kind}")
    for suite in SUITES:
        tracer.patch_item(harness._SUITE_BUILDERS, suite,
                          f"harness.suite.{suite}")


def metric_units():
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in COUNTERS:
            units[f"{name}.{COUNTERS[name][0]}"] = "count"
    for suite in SUITES:
        units[f"harness.suite.{suite}.s"] = "s"
    for kind in harness.STUDY_KINDS:
        units[f"harness.study.{kind}.s"] = "s"
    units["harness.self_s"] = "s"
    units["setup.import_s"] = "s"
    units["setup.blas_warmup_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def iteration_values(spans, counts):
    """Per-layer values of one traced iteration from its span aggregates."""
    values = {}
    for name in span_names():
        calls, _, self_s = spans.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        if name in COUNTERS:
            counter = f"{name}.{COUNTERS[name][0]}"
            values[counter] = counts.get(counter, 0)
    for suite in SUITES:
        values[f"harness.suite.{suite}.s"] = spans.get(
            f"harness.suite.{suite}", (0, 0.0, 0.0))[1]
    for kind in harness.STUDY_KINDS:
        values[f"harness.study.{kind}.s"] = spans.get(
            f"harness.study.{kind}", (0, 0.0, 0.0))[1]
    values["harness.self_s"] = sum(rec[2] for key, rec in spans.items()
                                   if key.startswith("harness."))
    return values


def median_values(per_iteration):
    """Median over traced iterations of each per-layer value."""
    return {key: statistics.median(v[key] for v in per_iteration)
            for key in per_iteration[0]}
