"""Witness faults for the verify cases that no other test makes fail.

A witness is a fault with a name: a monkeypatch of the code under test, or
the code fed a wrong input.  Under its witness a case must fail in
``run_suite``, while the unpatched run passes it; the verdict itself is
never patched.  The negative controls (``osc.weyl-failure``,
``modtime.counterexample``) pass when they detect a failure, so their
witness is a fault that hides it.

``nc.htau-isometry``, ``nc.integral-invariance`` and ``modtime.weighted``
have no witness yet, as no fault of the translation they test can fail
them: ``htau_norm`` and ``nc_integral`` sum the principal samples, which
no roll changes; the harness symbol has no (0, 0) coefficient, so
``nc_integral`` reads about 0 on both sides; and ``modtime.weighted``
re-records the ``nc.htau-isometry`` value.  They wait for the
Dixmier-trace anchors to check something (ROADMAP item 2).
"""

import numpy as np
import pytest

from povmlab import modular, oscillator, weylnc
from povmlab.harness import SuiteConfig, run_suite
from povmlab.operators import ToeplitzBlock


def weyl_phase_sign_flipped(monkeypatch):
    """e^{+ist} in place of e^{-ist} in the lattice Weyl defect."""
    def flipped(lat, s, t):
        cols = lat.shift_columns(t)
        Es = lat.exp_P(s)
        return cols, Es - np.exp(1j * s * t) * Es[cols]

    monkeypatch.setattr(weylnc, "weyl_defect", flipped)


def delta_as_s_s_adjoint(monkeypatch):
    """Delta formed as S S*, which is Delta^{-1}, in place of S* S."""
    monkeypatch.setattr(modular.ModularTriple, "Delta", property(
        lambda self: np.conj(self.S_mat) @ self.S_mat.T))


def j_with_the_exponent_flipped(monkeypatch):
    """J formed as S Delta^{+1/2} in place of S Delta^{-1/2}."""
    monkeypatch.setattr(modular.ModularTriple, "J_mat", property(
        lambda self: self.S_mat @ np.conj(self.delta_power(0.5))))


def indicator_halved(monkeypatch):
    """The generator of 1_B(Q) halved: 1_B(Q) / 2 is no projection."""
    real = weylnc.indicator_Q

    def halved(lat, B, k=None):
        block = real(lat, B, k)
        return ToeplitzBlock(block.c / 2, block.k)

    monkeypatch.setattr(weylnc, "indicator_Q", halved)


def weyl_failure_at_s_doubled(monkeypatch):
    """s = 2 pi in place of pi: e^{isN} = I and e^{-ist} = 1, so the
    truncated Weyl relation holds and the control detects nothing."""
    real = oscillator.weyl_failure_check
    monkeypatch.setattr(oscillator, "weyl_failure_check",
                        lambda d, s, t: real(d, 2 * s, t))


def weight_dropped_from_the_inner_product(monkeypatch):
    """<A, B>_tau read as tr(B* A), without W: every T^{it} is unitary for
    the Hilbert-Schmidt inner product, so [W, T] != 0 goes unseen."""
    monkeypatch.setattr(modular.TraceWeight, "inner", lambda self, A, B:
                        complex(np.trace(np.conj(B).T @ A)))


def generator_dropped(monkeypatch):
    """The GNS generating set without its last matrix unit E_11."""
    real = modular.build_gns
    monkeypatch.setattr(modular, "build_gns",
                        lambda generators, T: real(generators[:-1], T))


def zero_eigenvalue_floored(monkeypatch):
    """The spectrum of a density floored at 1e-6: the pure state's zero
    eigenvalue reads as positive, so its null ideal is not quotiented."""
    real = modular.herm_spectrum

    def floored(*args):
        lam, V = real(*args)
        return np.maximum(lam, 1e-6), V

    monkeypatch.setattr(modular, "herm_spectrum", floored)


WITNESSES = [
    ("weyl.relation.exact", "weyl", weyl_phase_sign_flipped),
    ("modular.delta.closed-form", "gns-modular", delta_as_s_s_adjoint),
    ("modular.j.closed-form", "gns-modular", j_with_the_exponent_flipped),
    ("nc.indicator.projection", "weyl", indicator_halved),
    ("osc.weyl-failure", "oscillator", weyl_failure_at_s_doubled),
    ("modtime.counterexample", "gns-modular",
     weight_dropped_from_the_inner_product),
    ("gns.m2.dim", "gns-modular", generator_dropped),
    ("gns.m2.pure.dim", "gns-modular", zero_eigenvalue_floored),
    ("gns.m2.state-identity", "gns-modular", generator_dropped),
]


def _verdicts(suite):
    return {r["case"]: r["pass"]
            for r in run_suite(SuiteConfig(suite=suite))["cases"]}


@pytest.mark.parametrize("case, suite, witness", WITNESSES,
                         ids=[case for case, _, _ in WITNESSES])
def test_witness_fails_its_case(case, suite, witness, monkeypatch):
    assert _verdicts(suite)[case] is True
    witness(monkeypatch)
    assert _verdicts(suite)[case] is False
