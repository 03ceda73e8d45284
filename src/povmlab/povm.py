"""POVMs over finite partitions.

A DiscretePOVM pairs a disjoint partition of a periodic domain with a list
of effects summing to the identity.  On top of that sit the
state-to-probability map tr(E_i T), the bounded functional calculus
Psi(f) = sum f(mid_i) E_i, the Naimark dilation by stacked square roots,
and the moment POVM of a contraction obtained from a circular unitary
dilation.
"""

from dataclasses import dataclass

import numpy as np

from .operators import (DEFAULT_TOL, EFFECT, NUMERIC_TOL, PROJECTION,
                        _sym_eigh, _sym_eigvalsh, adjoint, as_operator,
                        is_effect, opnorm, sqrtm_psd)
from .regions import RegionSet, circle_full, equal_partition


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
        self.effects = [as_operator(E) for E in self.effects]
        d = self.effects[0].shape[0]
        for E in self.effects:
            if E.shape != (d, d):
                raise ValueError("effects must be square and equal-shaped")

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
    for every pair i, j."""
    d = p.dim
    classes = [is_effect(E, tol) for E in p.effects]
    sum_residual = opnorm(p.total() - np.eye(d))
    E = np.stack(p.effects)
    defects = E[:, None] @ E[None, :]
    diag = np.arange(len(E))
    defects[diag, diag] -= E
    multiplicative = bool((np.linalg.norm(defects, 2, axis=(-2, -1)) <= tol).all())
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
    lam = _sym_eigvalsh(T)
    if lam.min() < -NUMERIC_TOL:
        raise ValueError(f"not positive: min eigenvalue {lam.min():.3e}")
    probs = np.array([np.trace(E @ T).real for E in p.effects])
    return probs


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
    """Dilate a validated POVM by stacking the square roots E_i^{1/2}."""
    report = povm_validate(p, NUMERIC_TOL)
    if not report.ok:
        raise ValueError(f"POVM does not validate: sum residual "
                         f"{report.sum_residual:.3e}, classes {report.classifications}")
    roots = [sqrtm_psd(E) for E in p.effects]
    J = np.vstack(roots)
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
    """
    d = T.shape[0]
    K = 2 * M
    I = np.eye(d)
    DT = sqrtm_psd(I - adjoint(T) @ T)
    DTs = sqrtm_psd(I - T @ adjoint(T))
    U = np.zeros((K * d, K * d), dtype=complex)

    def put(r, c, block):
        U[r * d:(r + 1) * d, c * d:(c + 1) * d] = block

    put(0, 0, T)
    put(1, 0, DT)
    put(0, K - 1, -DTs)
    put(1, K - 1, adjoint(T))
    for c in range(1, K - 1):
        put(c + 1, c, I)
    return U


def contraction_moment_povm(T, M: int, cells: int):
    """Moment POVM of a contraction: T^n = int e^{i n theta} dE(theta).

    Builds the circular unitary dilation of depth M, takes the spectral
    measure of the dilation compressed back to the original space, and bins
    it into ``cells`` equal arcs of [-pi, pi).  Returns the binned
    DiscretePOVM together with a MomentReport; the unbinned moments are
    certified for n = 0..M-1.
    """
    import scipy.linalg     # its only user; importing it costs most of a cold start
    T = as_operator(T)
    if T.shape[0] != T.shape[1]:
        raise ValueError("square contraction required")
    if opnorm(T) > 1.0 + NUMERIC_TOL:
        raise ValueError(f"not a contraction: ||T|| = {opnorm(T):.6f}")
    d = T.shape[0]
    U = _circular_dilation(T, M)
    # U is unitary hence normal; the complex Schur form is then diagonal
    # with orthonormal eigenvectors even across degenerate clusters.
    S, V = scipy.linalg.schur(U, output="complex")
    eigs = np.diag(S)
    thetas = np.angle(eigs)          # in (-pi, pi]
    thetas[thetas >= np.pi - 1e-15] = -np.pi
    P0V = V[:d, :]                   # compression of eigenvectors to block 0

    order = np.argsort(thetas, kind="stable")
    thetas = thetas[order]
    P0V = P0V[:, order]

    # unbinned compressed point masses F_j = P0 v_j v_j* P0
    moments = []
    for n in range(M):
        Mn = (P0V * np.exp(1j * n * thetas)) @ adjoint(P0V)
        moments.append(opnorm(Mn - np.linalg.matrix_power(T, n)))

    regions = equal_partition(RegionSet.circle([(-np.pi, np.pi)]), cells)
    effects = []
    for region in regions:
        a, b = region.cells[0]
        # eigenvalues on a cell boundary go with the cell whose left
        # endpoint they equal (half-open convention)
        sel = (thetas >= a - 1e-12) & (thetas < b - 1e-12)
        W = P0V[:, sel]
        effects.append(W @ adjoint(W))
    povm = DiscretePOVM(regions=regions, effects=effects)

    cell_masses = np.array([E.trace().real / max(d, 1) for E in effects])
    report = MomentReport(moment_residuals=np.array(moments),
                          cell_masses=cell_masses)
    return povm, report
