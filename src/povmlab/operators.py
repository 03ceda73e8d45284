"""Dense complex-matrix foundation.

Operators are plain numpy arrays of complex128.  This module provides the
pieces everything else is built from: Hermitian eigendecomposition with a
reconstruction guarantee, functional calculus f(H) = V f(lam) V*, the
effect/projection classification, and the Hilbert-Schmidt inner product
tr(B* A).
"""

from dataclasses import dataclass

import numpy as np

# Default tolerance of the predicates: relative to max(1, ||A||) in
# is_hermitian (so in herm_spectrum), absolute in is_effect's spectrum and
# projection tests.
DEFAULT_TOL = 1e-10
# Tolerance for checks on operators built numerically (square roots, dilations,
# densities), whose rounding error sits well above DEFAULT_TOL.
NUMERIC_TOL = 1e-8

NOT_EFFECT = "not_effect"
EFFECT = "effect"
PROJECTION = "projection"


def as_operator(A) -> np.ndarray:
    """Coerce to a complex matrix and reject non-finite entries."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"operator must be a 2-d array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("operator has non-finite entries")
    return A


def require_square(A: np.ndarray) -> np.ndarray:
    A = as_operator(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"square operator required, got shape {A.shape}")
    return A


def opnorm(A) -> float:
    """Operator norm (largest singular value)."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def adjoint(A) -> np.ndarray:
    return np.conj(np.asarray(A)).T


def _maxcol(A) -> float:
    """Largest column norm, a lower bound on the operator norm."""
    return float(np.linalg.norm(A, axis=0).max(initial=0.0))


def is_hermitian(A, tol: float = DEFAULT_TOL) -> bool:
    """||A - A*|| <= tol * max(1, ||A||).  A pass is certified without an
    SVD when ||A - A*||_F <= tol/2 * max(1, largest column norm of A), as
    those bound the two operator norms from above and below; otherwise both
    operator norms are computed by SVD."""
    A = require_square(A)
    D = A - adjoint(A)
    if np.linalg.norm(D) <= 0.5 * tol * max(1.0, _maxcol(A)):
        return True
    return opnorm(D) <= tol * max(1.0, opnorm(A))


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are real ascending, columns of ``eigenvectors`` the
    corresponding orthonormal eigenbasis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ adjoint(V)

    def projection(self, mask) -> np.ndarray:
        """Spectral projection onto the eigenvalues selected by ``mask``."""
        V = self.eigenvectors[:, np.asarray(mask, dtype=bool)]
        return V @ adjoint(V)


def herm_spectrum(H, tol: float = DEFAULT_TOL) -> HermitianSpectrum:
    """Eigendecomposition of H, which must be Hermitian within tol.

    H is symmetrised to (H + H*)/2 before decomposition so the result is
    exactly real-spectral.
    """
    H = require_square(H)
    if not is_hermitian(H, tol):
        raise ValueError("operator is not Hermitian within tolerance "
                         f"(defect {opnorm(H - adjoint(H)):.3e})")
    lam, V = _sym_eigh(H)
    return HermitianSpectrum(eigenvalues=lam, eigenvectors=V)


def _sym_eigh(H):
    """eigh of (H + H*)/2, so the spectrum is exactly real."""
    return np.linalg.eigh((H + adjoint(H)) / 2.0)


def funcalc(H, f) -> np.ndarray:
    """Hermitian functional calculus: return V f(lam) V*.

    ``f`` is applied eigenvalue-wise; a value that comes back non-finite
    (or an exception from ``f``) is reported as a domain error naming the
    offending eigenvalue.
    """
    spec = herm_spectrum(H)
    vals = np.empty(len(spec.eigenvalues), dtype=complex)
    for i, lam in enumerate(spec.eigenvalues):
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                v = f(lam)
        except (ValueError, ZeroDivisionError, OverflowError,
                FloatingPointError) as exc:
            raise ValueError(f"function undefined at eigenvalue {lam!r}: {exc}")
        v = complex(v)
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise ValueError(f"function undefined at eigenvalue {lam!r}")
        vals[i] = v
    V = spec.eigenvectors
    out = (V * vals) @ adjoint(V)
    return out


def is_effect(A, tol: float = DEFAULT_TOL) -> str:
    """Classify A as not_effect / effect / projection.

    Effect: Hermitian (``is_hermitian``) with spectrum in [-tol, 1+tol].
    Projection: additionally ||A^2 - A|| <= tol in the operator norm, which
    is decided by its Frobenius norm (an upper bound) when that is at most
    tol/2, by its largest column norm (a lower bound) when that exceeds
    2*tol, and by an SVD only in between.
    """
    A = require_square(A)
    if not is_hermitian(A, tol):
        return NOT_EFFECT
    lam = _sym_eigh(A)[0]
    if lam.min() < -tol or lam.max() > 1.0 + tol:
        return NOT_EFFECT
    R = A @ A - A
    if np.linalg.norm(R) <= 0.5 * tol:
        return PROJECTION
    if _maxcol(R) > 2.0 * tol or opnorm(R) > tol:
        return EFFECT
    return PROJECTION


def diag_conjugate(phase, A) -> np.ndarray:
    """diag(phase) A diag(phase)*, without forming the diagonal matrices."""
    return (phase[:, None] * A) * np.conj(phase)[None, :]


def circulant(c) -> np.ndarray:
    """Circulant matrix C[j, l] = c[(j - l) mod n].

    A function of a generator diagonal in the DFT basis, with values s on
    the frequencies in FFT order, is circulant(ifft(s)); the grid and
    lattice models build every such operator through it.
    """
    c = np.asarray(c)
    j = np.arange(len(c))
    return c[(j[:, None] - j[None, :]) % len(c)]


def covariance_defect(phase, E, sampled, B, shift, h):
    """Defect diag(phase) E diag(phase)* - E_{B + shift} of a covariance
    identity for the effect E = E_B, and whether the exact path was taken.

    ``sampled`` builds the target from the indicator of B + shift sampled
    at the grid points.  The path is exact when ``shift`` is a multiple of
    the grid step ``h`` and the shifted region is aligned to the grid, where
    the sampled indicator is the effect itself; otherwise the interpolation
    error shows in the defect.
    """
    shifted = B.shifted(shift)
    steps = shift / h
    exact = abs(steps - round(steps)) < 1e-9 and shifted.is_aligned(h)
    return diag_conjugate(phase, E) - sampled(shifted), exact


def hs_inner(A, B) -> complex:
    """Hilbert-Schmidt inner product tr(B* A)."""
    A = as_operator(A)
    B = as_operator(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    return complex(np.sum(np.conj(B) * A))


def sqrtm_psd(A) -> np.ndarray:
    """Hermitian square root of a positive semidefinite operator.

    Eigenvalues in [-NUMERIC_TOL, 0) (relative) are clipped to zero;
    anything below is a genuine negativity and is rejected.
    """
    spec = herm_spectrum(A, NUMERIC_TOL)
    lam = spec.eigenvalues.copy()
    scale = max(1.0, abs(lam).max())
    if lam.min() < -NUMERIC_TOL * scale:
        raise ValueError(f"operator not positive (min eigenvalue {lam.min():.3e})")
    lam = np.clip(lam, 0.0, None)
    V = spec.eigenvectors
    return (V * np.sqrt(lam)) @ adjoint(V)


def imag_power(A, t: float) -> np.ndarray:
    """A^{it} for positive definite A, via the functional calculus."""
    spec = herm_spectrum(A)
    lam = spec.eigenvalues
    if lam.min() <= 0:
        raise ValueError("imaginary powers need a positive definite operator "
                         f"(min eigenvalue {lam.min():.3e})")
    V = spec.eigenvectors
    return (V * np.exp(1j * t * np.log(lam))) @ adjoint(V)
