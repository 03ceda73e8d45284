"""POVMs over finite partitions.

A DiscretePOVM pairs a disjoint partition of a periodic domain with a list
of effects summing to the identity.  On top of that sit the
state-to-probability map tr(E_i T), the bounded functional calculus
Psi(f) = sum f(mid_i) E_i, the Naimark dilation by stacked square roots,
and the moment POVM of a contraction obtained from a circular unitary
dilation.  The dilation is diagonalised by one solve and one ``eigh`` of a
Hermitian Cayley transform i (z - U)^{-1} (z + U), at the first point
z = e^{i alpha} of a fixed candidate set whose Cayley eigenvalues place it
at least pi / (4N) from the spectrum (N the size of U); the decomposition
is accepted only after every eigenvector residual is checked, and its
spectral measure is binned in one pass.  The module needs numpy alone.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (DEFAULT_TOL, EFFECT, NUMERIC_TOL, PROJECTION,
                        _norm_within, _sym_eigh, adjoint, as_operator,
                        herm_spectrum, is_effect, opnorm, sqrtm_psd)
from .regions import _EPS, circle_full, equal_partition


@dataclass
class DiscretePOVM:
    """Finite partition of a periodic domain together with its effects."""

    regions: list
    effects: list

    def __post_init__(self):
        if len(self.regions) == 0:
            raise ValueError("empty partition")
        if len(self.regions) != len(self.effects):
            raise ValueError("regions and effects must have equal length")
        try:
            E = np.asarray(self.effects, dtype=complex)
        except ValueError:
            if len({np.shape(E) for E in self.effects}) > 1:
                raise ValueError("effects must be square and equal-shaped") from None
            raise
        if E.ndim != 3:
            raise ValueError(f"operator must be a 2-d array, got shape {E.shape[1:]}")
        if not np.isfinite(E).all():
            raise ValueError("operator has non-finite entries")
        if E.shape[1] != E.shape[2]:
            raise ValueError("effects must be square and equal-shaped")
        self.effects = list(E)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def total(self) -> np.ndarray:
        return sum(self.effects)


@dataclass
class PovmReport:
    sum_residual: float
    classifications: list
    multiplicative: bool
    ok: bool


def povm_validate(p: DiscretePOVM, tol: float = DEFAULT_TOL) -> PovmReport:
    """Check the POVM axioms: each effect is an effect, the effects sum to
    the identity, and detect the PVM case ||E_i E_j - delta_ij E_i|| <= tol
    for every pair i, j.  One ``is_effect`` call classifies the stack of
    effects, and its norm test ``_norm_within``, with the same margins,
    decides the stack of pair defects."""
    d = p.dim
    sum_residual = opnorm(p.total() - np.eye(d))
    E = np.stack(p.effects)
    classes = is_effect(E, tol)
    defects = E[:, None] @ E[None, :] - np.eye(len(E))[:, :, None, None] * E
    multiplicative = bool(_norm_within(defects.reshape(-1, d, d), tol).all())
    ok = sum_residual <= tol and all(c in (EFFECT, PROJECTION) for c in classes)
    return PovmReport(sum_residual=sum_residual, classifications=classes,
                      multiplicative=multiplicative, ok=ok)


def state_to_measure(p: DiscretePOVM, T) -> np.ndarray:
    """Probabilities tr(E_i T) of a density operator T over the cells."""
    T = as_operator(T)
    if T.shape != (p.dim, p.dim):
        raise ValueError("density has wrong shape")
    if abs(np.trace(T) - 1.0) > NUMERIC_TOL:
        raise ValueError(f"not unit trace: tr T = {np.trace(T)}")
    lam = herm_spectrum(T, NUMERIC_TOL)[0]
    if lam.min() < -NUMERIC_TOL:
        raise ValueError(f"not positive: min eigenvalue {lam.min():.3e}")
    return np.array([np.trace(E @ T).real for E in p.effects])


def povm_integrate(p: DiscretePOVM, f) -> np.ndarray:
    """Bounded functional calculus Psi(f) = sum_i f(mid_i) E_i, where mid_i
    is the midpoint of the first normalized interval of cell i."""
    out = np.zeros((p.dim, p.dim), dtype=complex)
    for region, E in zip(p.regions, p.effects):
        a, b = region.cells[0]
        out += complex(f(0.5 * (a + b))) * E
    return out


@dataclass
class NaimarkDilation:
    """Isometry J of shape (k*d, d); block i of J corresponds to cell i,
    and E_i = J* Ptilde_i J = J_i* J_i with Ptilde_i the block selector
    and J_i the i-th block of rows."""

    isometry: np.ndarray
    dim: int

    def compress(self, i: int) -> np.ndarray:
        Ji = self.isometry[i * self.dim:(i + 1) * self.dim]
        return adjoint(Ji) @ Ji


def naimark_dilate(p: DiscretePOVM) -> NaimarkDilation:
    """Dilate a validated POVM by stacking the square roots E_i^{1/2}, all
    taken by one stacked ``sqrtm_psd``."""
    report = povm_validate(p, NUMERIC_TOL)
    if not report.ok:
        raise ValueError(f"POVM does not validate: sum residual "
                         f"{report.sum_residual:.3e}, classes {report.classifications}")
    J = sqrtm_psd(np.stack(p.effects)).reshape(-1, p.dim)
    dil = NaimarkDilation(isometry=J, dim=p.dim)
    iso_res = opnorm(adjoint(J) @ J - np.eye(p.dim))
    if iso_res > NUMERIC_TOL:
        raise ValueError(f"dilation is not an isometry (residual {iso_res:.3e})")
    return dil


def random_povm(d: int, k: int, rng) -> DiscretePOVM:
    """Seeded random POVM on k equal circle arcs: E_i = S^{-1/2} A_i* A_i S^{-1/2}
    for Gaussian A_i and S the sum of the A_i* A_i."""
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(k)]
    gram = [adjoint(A) @ A for A in mats]
    S = sum(gram)
    lam, V = _sym_eigh(S)
    S_isqrt = (V / np.sqrt(lam)) @ adjoint(V)
    effects = [S_isqrt @ G @ S_isqrt for G in gram]
    regions = equal_partition(circle_full(), k)
    return DiscretePOVM(regions=regions, effects=effects)


@dataclass
class MomentReport:
    """Moment residuals ||T^n - sum_j e^{i n theta_j} F_j|| from the
    unbinned spectral measure of the circular dilation, certified for
    n = 0..M-1, plus the binned cell masses."""

    moment_residuals: np.ndarray
    cell_masses: np.ndarray


def _circular_dilation(T: np.ndarray, M: int) -> np.ndarray:
    """Circular Schaeffer-type unitary dilation on 2M blocks.

    Block 0 carries the original space.  Every block column feeds the next
    block (cyclically); the column entering block 0 carries the defect
    operator (I - T T*)^{1/2} and -T*, the column leaving block 0 carries
    T and (I - T* T)^{1/2}.  Compressions to block 0 reproduce T^n exactly
    for n < 2M: any path of length n < 2M from block 0 back to block 0
    stays in the (0, 0) entry, so the feedback column never contributes.
    That freedom is used to negate the feedback column, which rotates the
    defect part of the spectrum half a root-of-unity spacing and keeps the
    eigenphases away from the equal-arc cell edges used for binning.

    Both defect operators come from one SVD T = W S X*:
    (I - T* T)^{1/2} = X (I - S^2)^{1/2} X* and
    (I - T T*)^{1/2} = W (I - S^2)^{1/2} W*, so they share their singular
    values and the intertwining T (I - T* T)^{1/2} = (I - T T*)^{1/2} T
    holds to rounding.  Two separate square roots would each turn a
    rounding-level eigenvalue of I - T* T at ||T|| = 1 into ~1e-8 and
    leave U unitary only to ~1e-8.
    """
    d = T.shape[0]
    K = 2 * M
    W, S, Xs = np.linalg.svd(T)
    C = np.sqrt(np.clip(1.0 - S * S, 0.0, None))
    U = np.zeros((K, d, K, d), dtype=complex)     # U[r, :, c] is block (r, c)
    c = np.arange(1, K - 1)
    U[c + 1, :, c] = np.eye(d)
    U[0, :, 0] = T
    U[1, :, 0] = (adjoint(Xs) * C) @ Xs
    U[0, :, K - 1] = -((W * C) @ adjoint(W))
    U[1, :, K - 1] = adjoint(T)
    return U.reshape(K * d, K * d)


def _unitary_eigh(U: np.ndarray):
    """Eigenphases in (-pi, pi] and orthonormal eigenvectors (columns) of
    the unitary U, from the Hermitian eigendecomposition of a Cayley
    transform; no nonsymmetric eigensolver runs.

    For z = e^{i alpha} off the spectrum, A = i (z - U)^{-1} (z + U) is
    Hermitian, with eigenvalue mu = cot((alpha - theta)/2) on each
    eigenvector of e^{i theta}.  So ``eigh`` of A returns an orthonormal
    eigenbasis of U, also across degenerate clusters, and the phases are
    read off diag(V* U V).  alpha is the first of the 2N candidates
    pi (2k + 1) / (2N), N the size of U, at distance at least pi / (4N)
    from the spectrum, that is, with max |mu| <= cot(pi / (8N)) in the
    same ``eigh``; a candidate whose solve fails or is non-finite is
    passed over.  The candidates lie pi / N apart, so each eigenvalue comes
    that close to at most one of them, rounding included, and at least N
    of them qualify.  (At the wider distance pi / (2N) an eigenvalue midway
    between two candidates, as every eigenvalue of the dilation of T = 0
    is, ties with both, and rounding decides.)  The result is accepted
    only when every column residual ||U v_j - e^{i theta_j} v_j|| is at
    most NUMERIC_TOL.
    """
    N = U.shape[0]
    I = np.eye(N)
    far = 1.0 / np.tan(np.pi / (8 * N))
    for k in range(2 * N):
        z = np.exp(1j * np.pi * (2 * k + 1) / (2 * N))
        try:
            A = 1j * np.linalg.solve(z * I - U, z * I + U)
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(A).all():
            mu, V = _sym_eigh(A)
            if max(-mu[0], mu[-1]) <= far:
                break
    else:
        raise ValueError("no Cayley point off the spectrum: U is not unitary")
    UV = U @ V
    thetas = np.angle(np.einsum("ij,ij->j", V.conj(), UV))
    residual = np.linalg.norm(UV - V * np.exp(1j * thetas), axis=0).max()
    if residual > NUMERIC_TOL:
        raise ValueError(f"Cayley eigendecomposition residual {residual:.3e} "
                         f"exceeds {NUMERIC_TOL:.0e}")
    return thetas, V


@lru_cache
def _equal_arcs(cells: int) -> tuple:
    """The ``cells`` equal arcs of [-pi, pi), built once per count."""
    return tuple(equal_partition(circle_full(), cells))


def contraction_moment_povm(T, M: int, cells: int):
    """Moment POVM of a contraction: T^n = int e^{i n theta} dE(theta).

    Builds the circular unitary dilation U of depth M, takes its spectral
    measure by ``_unitary_eigh`` (one solve and one ``eigh`` of a Cayley
    transform of U, accepted only after checking every eigenvector residual
    against NUMERIC_TOL), compresses it back to the original space, and
    bins it into ``cells`` equal arcs of [-pi, pi) in one pass: one
    ``searchsorted`` gives every phase its cell, one batched product forms
    every effect.  Returns the binned DiscretePOVM together with a
    MomentReport; the unbinned moments are certified for n = 0..M-1, all M
    residuals from one stack of powers and one batched SVD.
    """
    T = as_operator(T)
    if T.shape[0] != T.shape[1] or T.size == 0:
        raise ValueError(f"square non-empty contraction required, got shape {T.shape}")
    for name, value in (("moment depth M", M), ("cell count cells", cells)):
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if opnorm(T) > 1.0 + NUMERIC_TOL:
        raise ValueError(f"not a contraction: ||T|| = {opnorm(T):.6f}")
    d = T.shape[0]
    thetas, V = _unitary_eigh(_circular_dilation(T, M))
    # as in RegionSet.indicator, a phase within _EPS below pi is -pi
    thetas[thetas >= np.pi - _EPS] = -np.pi
    order = np.argsort(thetas, kind="stable")
    thetas = thetas[order]
    P0V = V[:d, order]               # compression of eigenvectors to block 0

    # moment n of the unbinned compressed point masses F_j = P0 v_j v_j* P0
    # against T^n, for every n at once
    phases = np.exp(1j * np.outer(np.arange(M), thetas))
    moments = np.einsum("in,kn,jn->kij", P0V, phases, P0V.conj())
    powers = np.empty((M, d, d), dtype=complex)
    powers[0] = np.eye(d)
    for n in range(1, M):
        powers[n] = powers[n - 1] @ T
    residuals = np.linalg.norm(moments - powers, 2, axis=(-2, -1))

    # half-open cells with ends moved down by _EPS, as in RegionSet.indicator:
    # a phase on an edge, up to rounding, goes with the cell it starts
    regions = _equal_arcs(cells)
    edges = np.array([region.cells[0][0] for region in regions]) - _EPS
    cell = np.searchsorted(edges, thetas, side="right") - 1
    B = np.zeros((cells, d, len(cell)), dtype=complex)  # P0V split by cell
    B[cell, :, np.arange(len(cell))] = P0V.T
    effects = B @ adjoint(P0V)
    povm = DiscretePOVM(regions=list(regions), effects=effects)
    report = MomentReport(moment_residuals=residuals,
                          cell_masses=np.einsum("cii->c", effects).real / d)
    return povm, report
