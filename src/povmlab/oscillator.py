"""Truncated Hardy-disc model of the harmonic-oscillator clock.

Everything lives on the monomial basis z^0..z^{d-1}, where the number
operator is diag(0..d-1).  Arc effects and the angle Toeplitz operator
have closed-form entries, and because N is diagonal while the effects are
Toeplitz, all covariance identities of this module are entrywise exact
under truncation; residuals below are pure rounding.  An arc effect is
kept as a ``ToeplitzBlock``, as the relativistic and lattice effects are,
so its covariance defect, a partition sum and its thermal covariance
defect are certified from one FFT of a generator of length 2d.  The
thermal check reads the modular flow of the Gibbs state as the diagonal
phase of the triple's own density; ``dense()`` forms the matrix for the
Naimark dilation and the dense fallbacks (the SVD, and the dense modular
flow).

Arc convention: angles in [-pi, pi), half-open arcs, arg valued in
[-pi, pi).
"""

import math

import numpy as np

from .operators import (DEFAULT_TOL, NotGeometric, ToeplitzBlock,
                        diag_conjugate, funcalc, opnorm)
from .modular import build_modular
from .regions import RegionSet


def number_operator(d: int) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return np.diag(np.arange(d, dtype=float)).astype(complex)


def gibbs(beta: float, d: int) -> np.ndarray:
    """Gibbs density e^{-beta N} / Z on the truncated basis.

    beta = 0 is allowed as the explicit tracial flag I/d; negative beta is
    rejected.
    """
    if beta < 0:
        raise ValueError("inverse temperature must be nonnegative")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    w = np.exp(-beta * np.arange(d))
    return np.diag(w / w.sum()).astype(complex)


def phase_effect(B: RegionSet, d: int) -> ToeplitzBlock:
    """Arc effect with entries (E_B)_{mn} = c_B(n-m), where c_B(k) =
    (1/2pi) int_B e^{ik theta}, kept as a ``ToeplitzBlock`` of size d.

    Closed form per arc [a, b): c_B(0) = (b-a)/2pi and c_B(k) =
    (e^{ik b} - e^{ik a}) / (2 pi i k), summed over arcs.  The generator
    has length 2d and holds c_B(-r) at r mod 2d for |r| < d; entry d is 0.
    """
    if B.domain != "circle":
        raise ValueError("phase effects are defined on the circle")
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    k = np.arange(1 - d, d)
    c = np.zeros(2 * d, dtype=complex)
    for a, b in B.cells:
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = (np.exp(1j * k * b) - np.exp(1j * k * a)) / (2j * np.pi * k)
        coef[d - 1] = (b - a) / (2 * np.pi)          # k = 0
        c[-k % (2 * d)] += coef
    return ToeplitzBlock(c, d)


def covariance_residual(d: int, t: float, B: RegionSet,
                        tol: float = DEFAULT_TOL) -> dict:
    """|| e^{-itN} E_B e^{itN} - E_{rot_t B} ||, both sides in closed form,
    and whether it is a certified bound.

    N is diagonal and E_B Toeplitz, so the defect is the Toeplitz block
    ``conjugation_defect`` with phase e^{-itn}; its generator's bound is
    reported when it is at most tol (``upper_bound`` True), and the SVD of
    the dense defect otherwise.  Every rotation of the circle is exact.
    e^{-itn} is 2 pi-periodic in t, so t enters the phase reduced to
    [-pi, pi]: the rounding of an angle t n grows with |t|, and beyond
    |t| ~ 200 it would exceed the rounding allowance of
    ``conjugation_defect``'s geometric check.  The reduction is exact and
    leaves a t in [-pi, pi] unchanged.
    """
    phase = np.exp(-1j * math.remainder(t, 2 * np.pi) * np.arange(d))
    E, target = phase_effect(B, d), phase_effect(B.shifted(t), d)
    residual, bound = E.conjugation_defect(phase, target).certified_norm(
        tol, lambda: diag_conjugate(phase, E.dense()) - target.dense())
    return {"residual": residual, "upper_bound": bound}


def toeplitz_arg(d: int) -> np.ndarray:
    """Toeplitz operator of the angle function: F_{mn} = c_{m-n} with
    c_0 = 0 and c_k = (-1)^k i / k."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    F = np.zeros((d, d), dtype=complex)
    idx = np.arange(d)
    k = idx[:, None] - idx[None, :]          # k = m - n
    nz = k != 0
    F[nz] = ((-1.0) ** k[nz]) * 1j / k[nz]
    return F


def commutator_defect(d: int) -> dict:
    """Defect C = NF - FN + iI of the Heisenberg relation.

    C has exact entries i(-1)^{m-n}, i.e. C = i v v* for the alternating
    vector v_m = (-1)^m; the relation [N, F]h = -ih therefore holds
    exactly on vectors orthogonal to v.
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    N = number_operator(d)
    F = toeplitz_arg(d)
    C = N @ F - F @ N + 1j * np.eye(d)
    s = np.linalg.svd(C, compute_uv=False)
    v = ((-1.0) ** np.arange(d)).astype(complex)
    v_hat = v / np.linalg.norm(v)
    # C = i v v* maps v_hat onto a multiple of v_hat; alignment is the
    # cosine between v_hat and C v_hat, 1 up to rounding
    u = C @ v_hat
    alignment = abs(np.vdot(v_hat, u)) / max(np.linalg.norm(u), 1e-300)
    # test vector orthogonal to the alternating vector
    h = np.zeros(d, dtype=complex)
    h[0] = h[1] = 1 / np.sqrt(2)
    ortho_residual = float(np.linalg.norm((N @ F - F @ N) @ h + 1j * h))
    return {
        "rank_one_ratio": float(s[1] / s[0]),
        "top_singular_value": float(s[0]),
        "alternating_alignment": float(alignment),
        "orthogonal_commutator_residual": ortho_residual,
    }


def weyl_failure_check(d: int, s: float, t: float) -> float:
    """Norm of e^{isN} e^{itF} - e^{-ist} e^{itF} e^{isN}: a negative
    control, bounded away from zero for generic s, t."""
    N = number_operator(d)
    F = toeplitz_arg(d)
    Es = funcalc(N, lambda x: np.exp(1j * s * x))
    Et = funcalc(F, lambda x: np.exp(1j * t * x))
    return opnorm(Es @ Et - np.exp(-1j * s * t) * Et @ Es)


def thermal_covariance_residual(beta: float, d: int, samples,
                                tol: float = DEFAULT_TOL) -> dict:
    """Largest residual of the thermal covariance of the phase POVM over
    the (t, B) pairs in ``samples``, and whether it is a certified bound:
    the Connes-Rovelli thermal time as a POVM covariant under the modular
    flow of gibbs(beta, d).

    Builds the modular triple of gibbs(beta, d) once and compares the flow
    of E_B against the rotated arc effect.  The flow of E_B acting on the
    carrier by left multiplication is the left multiplication of the d x d
    flow T^{-it} E_B T^{it}, and ||pi(X)|| = ||X||, so the d x d defect is
    the carrier defect and no d^2 x d^2 matrix is formed.  With
    sigma_t = Delta^{-it} . Delta^{it} the exact rotation is by -beta*t;
    that direction is frozen here (and by a regression test), making the
    identity entrywise exact.

    T^{-it} is read as a diagonal phase from the triple's own density
    (``ModularTriple.flow_phase``), never from N and beta, so the defect
    is the Toeplitz block ``conjugation_defect``; its bound is reported
    when it is at most tol (``upper_bound`` True), else the SVD norm of the
    dense ``triple.flow`` defect.  A phase that ``conjugation_defect``
    refuses as not geometric within rounding (``NotGeometric``), as a
    non-Gibbs density's is, takes the dense path directly.
    """
    if beta * d > 20:
        raise ValueError("conditioning guard: beta*d must be <= 20")
    triple = build_modular(gibbs(beta, d))
    outs = []
    for t, B in samples:
        E, target = phase_effect(B, d), phase_effect(B.shifted(-beta * t), d)

        def dense(t=t, E=E, target=target):
            return triple.flow(t, E.dense()) - target.dense()

        try:
            residual, bound = E.conjugation_defect(
                triple.flow_phase(t), target).certified_norm(tol, dense)
        except NotGeometric:
            residual, bound = opnorm(dense()), False
        outs.append({"residual": residual, "upper_bound": bound})
    return max(outs, key=lambda out: out["residual"])
