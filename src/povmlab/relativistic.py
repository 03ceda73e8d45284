"""Circular-grid model of the free massless relativistic particle.

L^2(R) is periodised to a circle of circumference L sampled at n points;
the discrete Fourier transform is unitary, Fourier multipliers are
diagonal in frequency (circulant matrices on the grid), and translations
by grid multiples are exact index shifts.  On this grid: the Hardy
projection onto nonnegative frequencies (zero mode included), the
modulus-of-momentum multiplier |xi|, the Poisson semigroup e^{-y|xi|}, the
position-band effects compressed to the Hardy subspace (Toeplitz blocks
of circulants in the Fourier basis, kept as their generators, so bounded
from one FFT and applied to a vector by two), and the weighted inner
product <A, B>_tau = tr(B* A e^{-beta |D|}), whose invariance under the
thermal flow e^{it|D|} is checked on low-rank operators a_L a_R* given by
their n x r factors, so no n x n array is formed.  ``thermal_model`` is
the Hardy subspace's ``operators.ThermalModel``: the flow e^{-is|D|} and
the position-band effects.

Multiplier commutation and shift covariance are exact under periodisation
and are tested tightly; kernel shapes carry discretisation error and are
probed through convergence sweeps instead.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .operators import (NUMERIC_TOL, Defect, ThermalModel, ToeplitzBlock,
                        adjoint, circulant, lattice_phase, sampled_indicator)
from .regions import RegionSet, check_aligned, require_entries, require_int


@dataclass(frozen=True)
class CircleGrid:
    """n equispaced points on a circle of circumference L."""

    n: int
    L: float

    def __post_init__(self):
        if require_int(self.n, "grid size n") < 8 or self.n % 2 != 0:
            raise ValueError("grid size must be even and at least 8")
        if not 0 < self.L < np.inf:
            raise ValueError(f"circumference L must be finite and positive, "
                             f"got {self.L!r}")

    @property
    def h(self) -> float:
        return self.L / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return self.h * np.arange(self.n)

    @cached_property
    def xi(self) -> np.ndarray:
        """Frequencies 2 pi k / L in FFT order (nonnegative first)."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def fft(self, f) -> np.ndarray:
        """Unitary DFT of a grid vector, or of each column of an n x r array."""
        return np.fft.fft(np.asarray(f, dtype=complex), axis=0) / np.sqrt(self.n)

    def ifft(self, fhat) -> np.ndarray:
        return np.fft.ifft(np.asarray(fhat, dtype=complex), axis=0) * np.sqrt(self.n)

    def multiplier_apply(self, symbol_values, f) -> np.ndarray:
        """The Fourier multiplier with these symbol values (FFT order)
        applied to a grid vector, or to each column of an n x r array."""
        fhat = self.fft(f)
        s = np.asarray(symbol_values).reshape((-1,) + (1,) * (fhat.ndim - 1))
        return self.ifft(s * fhat)

    def multiplier_matrix(self, symbol_values) -> np.ndarray:
        """W* diag(symbol) W for the unitary DFT W, as a circulant."""
        return circulant(np.fft.ifft(symbol_values))

    def region(self, cells) -> RegionSet:
        return RegionSet.line(cells, length=self.L)


def hardy_project(grid: CircleGrid, g) -> np.ndarray:
    """Zero out the negative-frequency coefficients (zero mode kept)."""
    gh = grid.fft(g)
    gh[grid.xi < 0] = 0.0
    return grid.ifft(gh)


def poisson_apply(grid: CircleGrid, y, g) -> np.ndarray:
    """Poisson semigroup e^{-y |D|} as the multiplier e^{-y |xi|}, applied
    to a grid vector g.

    For a vector of y the result has one column per y, from one FFT of g
    and one batched inverse FFT; a scalar y gives one grid vector.
    """
    y1 = np.atleast_1d(np.asarray(y, dtype=float))
    if not ((0 <= y1) & (y1 < np.inf)).all():
        raise ValueError(f"y must be finite and nonnegative, got {y!r}")
    if np.shape(g) != (grid.n,):
        raise ValueError(f"g must be a grid vector of shape ({grid.n},), "
                         f"got {np.shape(g)}")
    out = grid.ifft(np.exp(-np.outer(np.abs(grid.xi), y1))
                    * grid.fft(g)[:, None])
    return out[:, 0] if np.ndim(y) == 0 else out


def poisson_kernel(grid: CircleGrid, y: float) -> np.ndarray:
    """Discrete Poisson kernel: p with P(y) f = p * f under the grid
    convolution; p_j = (1/L) sum_k e^{-y|xi_k|} e^{i xi_k x_j}."""
    if not 0 <= y < np.inf:
        raise ValueError(f"y must be finite and nonnegative, got {y!r}")
    return np.fft.ifft(np.exp(-y * np.abs(grid.xi))).real * grid.n / grid.L


def poisson_kernel_error(n: int, L: float) -> float:
    """|p(0; 1) - 1/pi| on an (n, L) grid."""
    return float(abs(poisson_kernel(CircleGrid(n, L), 1.0)[0] - 1.0 / np.pi))


@dataclass(frozen=True)
class HardyModel:
    """Nonnegative-frequency subspace of a CircleGrid.

    The Hardy basis is the first n/2 FFT modes (frequencies 0..(n/2-1) *
    2 pi / L); ``synthesize`` maps Hardy coefficients to grid samples.
    """

    grid: CircleGrid

    @property
    def dim(self) -> int:
        return self.grid.n // 2

    @cached_property
    def xi(self) -> np.ndarray:
        return self.grid.xi[: self.dim]

    def _padded_ifft(self, coef) -> np.ndarray:
        """ifft of the Hardy coefficients padded with zeros to n; the shape
        is checked, since ifft would silently cut or pad a wrong one."""
        coef = np.asarray(coef)
        if coef.shape != (self.dim,):
            raise ValueError(f"Hardy coefficient vector of shape ({self.dim},) "
                             f"required, got {coef.shape}")
        return np.fft.ifft(coef, self.grid.n)

    def synthesize(self, coef) -> np.ndarray:
        """Grid samples sum_k coef_k e^{i xi_k x_j} / sqrt(n): the unitary
        inverse DFT of the coefficients padded with zeros to n."""
        return self._padded_ifft(coef) * np.sqrt(self.grid.n)


def boundary_isometry_check(model: HardyModel, f, ys) -> dict:
    """Boundary behaviour of the harmonic extension F(x + iy) = P(y)f(x).

    Checks that y -> ||P(y) f|| is nonincreasing with its supremum at the
    smallest y, reports the convergence sequence ||P(y)f - f||, and checks
    ||P(y) f|| = (sum_k e^{-2y|xi_k|} |f^_k|^2)^{1/2}, f^ the unitary DFT of
    f, at y = 0 (the boundary isometry ||F|| = ||f||) and over the sweep.

    The norms scale with f, and so does their rounding: every comparison
    is relative to max(1, ||f||), and so is ``boundary_residual``.  An
    empty sweep ``ys`` is refused.
    """
    f = np.asarray(f, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(f)))
    res = float(np.linalg.norm(hardy_project(model.grid, f) - f))
    if res > NUMERIC_TOL * scale:
        raise ValueError(f"input is not in the Hardy range (residual {res:.3e})")
    ys = require_entries(sorted(float(y) for y in ys), "ys")
    # y = 0 and the sweep as the columns of one poisson_apply
    Pf = poisson_apply(model.grid, np.array([0.0] + ys), f)
    at_zero, *norms = np.linalg.norm(Pf, axis=0).tolist()
    gaps = np.linalg.norm(Pf[:, 1:] - f[:, None], axis=0).tolist()
    violations = sum(1 for a, b in zip(norms, norms[1:])
                     if b > a + 1e-13 * scale)
    exact = np.sqrt(np.exp(-2 * np.outer([0.0] + ys, np.abs(model.grid.xi)))
                    @ np.abs(model.grid.fft(f)) ** 2)
    return {
        "ys": ys,
        "norms": norms,
        "convergence": gaps,
        "monotonicity_violations": violations,
        "sup_at_smallest": norms[0] >= max(norms) - 1e-13 * scale,
        "boundary_residual": float(np.abs([at_zero] + norms - exact).max()
                                   / scale),
    }


def _sampled_apply(model: HardyModel, B: RegionSet, v) -> np.ndarray:
    """The sampled effect of any region B applied to v in O(n log n),
    without the matrix: synthesize v on the grid, multiply by the sampled
    indicator and keep the Hardy coefficients, fft(1_B(x) *
    ifft(pad(v)))[:n/2]; the sqrt(n) factors of the unitary DFT cancel."""
    return np.fft.fft(B.indicator(model.grid.x)
                      * model._padded_ifft(v))[: model.dim]


def rel_effect(model: HardyModel, B) -> ToeplitzBlock:
    """Position-band effect P_+ 1_B(X) P_+ compressed to the Hardy basis,
    a ``ToeplitzBlock`` (``sampled_indicator``): 1_B(X) is a circulant in
    the Fourier basis, and the Hardy modes are its first n/2 basis
    vectors; for a sequence of regions, the stack of their effects.  B
    must be a union of grid-aligned cells [x_j, x_j + h): only the
    covariance check samples a region moved off the grid, and reports the
    interpolation error."""
    check_aligned(B, model.grid.L, model.grid.h)
    return sampled_indicator(B, model.grid.x, model.dim, -1)


def rel_effect_apply(model: HardyModel, B: RegionSet, v) -> np.ndarray:
    """``rel_effect(model, B) @ v`` by two FFTs, in O(n log n) time and
    O(n) memory, with the same region checks as ``rel_effect``."""
    check_aligned(B, model.grid.L, model.grid.h)
    return _sampled_apply(model, B, v)


def thermal_model(model: HardyModel) -> ThermalModel:
    """The Hardy subspace as a ``ThermalModel``: the flow e^{-is|D|} on
    the sites -xi, period L, and the sampled position-band effects."""
    return ThermalModel(-model.xi, model.grid.L, partial(
        sampled_indicator, points=model.grid.x, k=model.dim, sign=-1))


def rel_covariance_residual(model: HardyModel, beta: float, t: float,
                            B: RegionSet) -> Defect:
    """``ThermalModel.covariance`` of the aligned region B translated by
    beta*t: e^{-i beta t |D|} E_B e^{i beta t |D|} - E_{B + beta t}."""
    check_aligned(B, model.grid.L, model.grid.h)
    return thermal_model(model).covariance(beta * t, B)


def tau_unitarity_residual(grid: CircleGrid, beta: float, t: float,
                           A, B) -> float:
    """Isometry defect |<U A U*, U B U*>_tau - <A, B>_tau| of conjugation by
    U = e^{it|D|} in the weighted inner product
    <A, B>_tau = tr(B* A e^{-beta |D|}), for the factored operators
    A = a_L a_R* and B = b_L b_R* given as the pairs A = (a_L, a_R) and
    B = (b_L, b_R) of n x r arrays.

    The identity is sesquilinear in (A, B), so random factors of any rank
    r >= 1 detect a defect with probability 1, as dense inputs do.  U and
    W = e^{-beta |D|} act on the factors' columns in position space, one
    FFT pair each (see ``_factored_isometry_defect``), so the DFT round
    trip is checked along with |u| = 1: O(r n log n) time and O(r n)
    memory, with no n x n array.

    The residual is absolute, and both its rounding and the defect of a
    non-unitary U scale with |<A, B>_tau|, so the caller keeps that O(1)
    at every n.  For Gaussian factors, |b_L* a_L| grows like
    ||a_L||_F ||b_L||_F / sqrt(n) and |a_R* W b_R| like
    ||a_R||_F ||b_R||_F / n; the harness scales the left factors to
    ||.||_F = n^{1/4} and the right ones to n^{1/2}.  Unit-variance
    factors let the rounding grow past a 1e-12 tolerance by n = 2048, and
    unit-norm columns let the defect of a symbol off the unit circle by
    1e-10 fall below it.  The identity holds for every real beta; a beta
    that is not finite is refused by name.
    """
    if not -np.inf < beta < np.inf:
        raise ValueError(f"beta must be finite, got {beta!r}")
    xi = np.abs(grid.xi)
    return _factored_isometry_defect(grid, lattice_phase(t, xi, grid.L)[0],
                                     np.exp(-beta * xi), A, B)


def _factored_isometry_defect(grid: CircleGrid, u, w, A, B) -> float:
    """|<U A U*, U B U*>_W - <A, B>_W| for the Fourier multipliers U and W
    with symbols u and w, where <A, B>_W = tr(B* A W), A = a_L a_R* and
    B = b_L b_R*.

    tr(B* A W) = tr(b_L* a_L . a_R* W b_R), a trace of a product of two
    r x r Gram matrices, and U A U* = (U a_L)(U a_R)*.  So one FFT pair
    applies U to the 4r columns [a_L, a_R, b_L, b_R] and one more applies
    W to [b_R, U b_R]; U and W are not assumed unitary or Hermitian.
    """
    if len(A) != 2 or len(B) != 2:
        raise ValueError("A and B must be factor pairs (left, right)")
    factors = [np.asarray(f, dtype=complex) for f in (*A, *B)]
    shape = factors[0].shape
    if len(shape) != 2 or shape[0] != grid.n or any(f.shape != shape
                                                    for f in factors):
        raise ValueError(f"factors must be {grid.n} x r arrays of one shape, "
                         f"got {[f.shape for f in factors]}")
    a_L, a_R, b_L, b_R = factors
    Ua_L, Ua_R, Ub_L, Ub_R = np.split(
        grid.multiplier_apply(u, np.hstack(factors)), 4, axis=1)
    Wb_R, WUb_R = np.split(grid.multiplier_apply(w, np.hstack([b_R, Ub_R])),
                           2, axis=1)

    def weighted(xL, yL, xR, yR):
        # tr(xL* yL . xR* yR) as the entrywise product of two r x r Grams
        return np.sum((adjoint(xL) @ yL) * (adjoint(xR) @ yR).T)

    return float(abs(weighted(Ub_L, Ua_L, Ua_R, WUb_R)
                     - weighted(b_L, a_L, a_R, Wb_R)))
