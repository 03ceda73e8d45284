"""Truncated Hardy-disc model of the harmonic-oscillator clock.

Everything lives on the monomial basis z^0..z^{d-1}, where the number
operator N is diag(0..d-1), kept as its diagonal n: a product with a
function of N scales rows or columns.  Arc effects and the angle Toeplitz
operator have closed-form entries.  N is diagonal and an arc effect is a
``ToeplitzBlock``, so every covariance identity here is entrywise exact
under truncation, and its residual is pure rounding.  ``thermal_model``
is the oscillator's ``operators.ThermalModel``: the rotations e^{-itN}
and the arc effects.  The thermal samples of one beta are one
``shift_covariance`` call, their phase read off the Gibbs density itself
by ``modular.flow_phase``, with no modular triple; a draw that its bound
does not certify is flowed densely by a ``spectral_power`` of the one
``herm_spectrum`` of T.  ``dense()`` forms an effect's matrix for the
Naimark dilation.

Arc convention: angles in [-pi, pi), half-open arcs, arg valued in
[-pi, pi); the two ends -pi and pi of the circle are one point.
"""

from functools import cache, partial

import numpy as np

from .operators import (Defect, ThermalModel, ToeplitzBlock, adjoint,
                        funcalc, herm_spectrum, opnorm, shift_covariance,
                        spectral_power)
from .modular import flow_phase
from .regions import region_list, require_finite, require_int


def gibbs(beta: float, d: int) -> np.ndarray:
    """Gibbs density e^{-beta N} / Z on the truncated basis.

    beta = 0 is allowed as the explicit tracial flag I/d; a negative or
    non-finite beta is rejected.
    """
    if not 0 <= beta < np.inf:
        raise ValueError(f"inverse temperature beta must be finite and "
                         f"nonnegative, got {beta!r}")
    w = np.exp(-beta * np.arange(require_int(d, "d", 1)))
    return np.diag((w / w.sum()).astype(complex))


def phase_effect(B, d: int) -> ToeplitzBlock:
    """Arc effect with entries (E_B)_{mn} = c_B(n-m), where c_B(k) =
    (1/2pi) int_B e^{ik theta}, kept as a ``ToeplitzBlock`` of size d; for
    a sequence of regions, the stack of their effects, whose generators
    are each region's own bit for bit.

    Closed form per arc [a, b): c_B(0) = (b-a)/2pi and c_B(k) =
    (e^{ik b} - e^{ik a}) / (2 pi i k), summed over arcs, with an end at
    pi read as -pi, the same point, so that the arcs of a partition
    telescope.  The generator has length 2d and holds c_B(-r) at r mod 2d
    for |r| < d; entry d is 0.  The coefficients of every arc of every
    region are computed at once, in the generator's order, and each
    region's arcs are added into its row in turn.
    """
    regions, one = region_list(B)
    if any(R.domain != "circle" for R in regions):
        raise ValueError("phase effects are defined on the circle")
    d = require_int(d, "d", 1)
    ends = np.array([end for R in regions for cell in R.cells for end in cell],
                    dtype=float).reshape(-1, 2, 1).transpose(1, 0, 2)
    a, b = np.where(ends >= np.pi, ends - 2 * np.pi, ends)
    entry = np.arange(2 * d)
    k = np.where(entry < d, -entry, 2 * d - entry)    # c_B(k) sits at -k mod 2d
    coef = np.exp(1j * k * b)
    coef -= np.exp(1j * k * a)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef /= 2j * np.pi * k
    coef[:, 0] = (ends[1] - ends[0])[:, 0] / (2 * np.pi)  # k = 0, unwrapped
    coef[:, d] = 0.0                                  # no offset of the block
    c = np.zeros((len(regions), 2 * d), dtype=complex)
    np.add.at(c, np.repeat(np.arange(len(regions)),
                           [len(R.cells) for R in regions]), coef)
    return ToeplitzBlock(c[0] if one else c, d)


def thermal_model(d: int) -> ThermalModel:
    """The oscillator as a ``ThermalModel``: the rotation e^{-itN} on the
    sites -n, period 2 pi, and the arc effects of size d."""
    return ThermalModel(-np.arange(d), 2 * np.pi, partial(phase_effect, d=d))


def covariance_residual(d: int, t, B) -> Defect:
    """``ThermalModel.covariance`` of the rotations by t: the defects
    e^{-itN} E_B e^{itN} - E_{rot_t B}, exact for every rotation."""
    return thermal_model(d).covariance(t, B)


def toeplitz_arg(d: int) -> np.ndarray:
    """Toeplitz operator of the angle function: F_{mn} = c_{m-n} with
    c_0 = 0 and c_k = (-1)^k i / k."""
    d = require_int(d, "d", 1)
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
    n = np.arange(require_int(d, "d", 2), dtype=float)
    F = toeplitz_arg(d)
    commutator = n[:, None] * F - F * n      # NF - FN
    C = commutator + 1j * np.eye(d)
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
    ortho_residual = float(np.linalg.norm(commutator @ h + 1j * h))
    return {
        "rank_one_ratio": float(s[1] / s[0]),
        "top_singular_value": float(s[0]),
        "alternating_alignment": float(alignment),
        "orthogonal_commutator_residual": ortho_residual,
    }


def weyl_failure_check(d: int, s: float, t: float) -> float:
    """Norm of e^{isN} e^{itF} - e^{-ist} e^{itF} e^{isN}: a negative
    control, bounded away from zero for generic s, t; an s or t that is
    not finite is refused."""
    require_finite(s, "angle s")
    require_finite(t, "shift t")
    es = np.exp(1j * s * np.arange(d))      # the diagonal of e^{isN}
    Et = funcalc(toeplitz_arg(d), lambda x: np.exp(1j * t * x))
    return opnorm(es[:, None] * Et - np.exp(-1j * s * t) * Et * es)


def thermal_covariance_residual(beta: float, d: int, samples) -> Defect:
    """The thermal covariance defects of the phase POVM over the (t, B)
    pairs in ``samples``, as a ``Defect`` with one member per pair: the
    Connes-Rovelli thermal time as a POVM covariant under the modular flow
    of gibbs(beta, d).

    The flow of E_B acting on the carrier by left multiplication is the
    left multiplication of the d x d flow T^{-it} E_B T^{it}, with the same
    norm, so no d^2 x d^2 matrix is formed.  With sigma_t = Delta^{-it} .
    Delta^{it} the exact rotation is by -beta*t, a direction frozen by a
    regression test.  T^{-it} is read as a diagonal phase off the density
    itself (``modular.flow_phase``, one row per sample), never from N and
    beta, and no modular triple is built, so the defects are one
    ``shift_covariance`` stack.  Its dense defects flow E_B by the
    conjugation with T^{-it}, independent of the phase: a
    ``spectral_power`` of the one ``herm_spectrum`` of T, taken on the
    first refused sample.  A sample whose phase is not geometric, as a
    non-Gibbs density's is not, has no bound.
    """
    if beta * d > 20:
        raise ValueError("conditioning guard: beta*d must be <= 20")
    T = gibbs(beta, d)
    ts = np.array([t for t, _ in samples], dtype=float)
    spectrum = cache(lambda: herm_spectrum(T))

    def flow(i, X):
        U = spectral_power(spectrum(), 1j * -ts[i])
        return U @ X @ adjoint(U)

    return shift_covariance(
        flow_phase(T, ts), partial(phase_effect, d=d),
        [B for _, B in samples], [B.shifted(-beta * t) for t, B in samples],
        flow=flow)
