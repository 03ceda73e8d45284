"""POVMs over finite partitions.

A DiscretePOVM pairs a disjoint partition of a periodic domain with a
complex stack (k, d, d) of effects summing to the identity.  On top of
that sit the state-to-probability map tr(E_i T), the bounded functional
calculus Psi(f) = sum f(mid_i) E_i, the Naimark dilation by stacked square
roots, which keeps the validation of its POVM, and the moment POVM of a
contraction obtained from a circular unitary dilation U of 2M blocks,
whose contraction check and defect operators share one SVD of T.  For a
scalar t the spectrum of U is in closed form (``_scalar_spectrum``): one
root of lambda^{2M} - t lambda^{2M-1} - conj(t) lambda + 1 in each of 2M
equal arcs when |t| < 1, with its block-0 weight, certified by the
residual of an explicit eigenvector.  When that certificate fails, and
for any T of size d >= 2, U is diagonalised densely by one solve and one
``eigh`` of a Hermitian Cayley transform (``_unitary_eigh``), accepted
only after every eigenvector residual is checked.  Either spectral
measure is one stack (K, d, d) of point masses on the original space,
binned and taken moments of the same way at every d.  The module needs
numpy alone.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (DEFAULT_TOL, EFFECT, NUMERIC_TOL, PROJECTION,
                        _norm_within, _rand_complex, _sym_eigh, adjoint,
                        herm_spectrum, is_effect, opnorm, require_square,
                        require_stack, sqrtm_psd)
from .regions import (_EPS, circle_full, equal_partition, require_finite,
                      require_int)


def _in_order_sum(X) -> np.ndarray:
    """Sum of a stack over its first axis, member after member, as a Python
    sum rounds (numpy's sum pairs up the members of a stack of 1 x 1s)."""
    return np.add.accumulate(X, axis=0)[-1]


@dataclass
class DiscretePOVM:
    """Finite partition of a periodic domain together with its effects,
    kept as one complex stack (k, d, d) whose member i belongs to cell i."""

    regions: list
    effects: np.ndarray

    def __post_init__(self):
        if len(self.regions) == 0:
            raise ValueError("empty partition")
        if len(self.regions) != len(self.effects):
            raise ValueError("regions and effects must have equal length")
        self.effects, one = require_stack(self.effects, "effects")
        if one:
            raise ValueError(f"effects must be a stack (k, d, d), not one "
                             f"matrix, got shape {self.effects.shape[1:]}")

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def total(self) -> np.ndarray:
        return _in_order_sum(self.effects)


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
    d, E = p.dim, p.effects
    sum_residual = opnorm(p.total() - np.eye(d))
    classes = is_effect(E, tol)
    defects = E[:, None] @ E[None, :] - np.eye(len(E))[:, :, None, None] * E
    multiplicative = bool(_norm_within(defects.reshape(-1, d, d), tol).all())
    ok = sum_residual <= tol and all(c in (EFFECT, PROJECTION) for c in classes)
    return PovmReport(sum_residual=sum_residual, classifications=classes,
                      multiplicative=multiplicative, ok=ok)


def state_to_measure(p: DiscretePOVM, T) -> np.ndarray:
    """Probabilities tr(E_i T) of a density operator T over the cells."""
    T = require_square(T, "density T", p.dim)
    if abs(np.trace(T) - 1.0) > NUMERIC_TOL:
        raise ValueError(f"not unit trace: tr T = {np.trace(T)}")
    lam = herm_spectrum(T, NUMERIC_TOL)[0]
    if lam.min() < -NUMERIC_TOL:
        raise ValueError(f"not positive: min eigenvalue {lam.min():.3e}")
    return np.trace(p.effects @ T, axis1=-2, axis2=-1).real


def povm_integrate(p: DiscretePOVM, f) -> np.ndarray:
    """Bounded functional calculus Psi(f) = sum_i f(mid_i) E_i, where mid_i
    is the midpoint of the first normalized interval of cell i; a value
    of f that is not finite is refused."""
    values = np.array([complex(f(0.5 * (a + b)))
                       for a, b in (region.cells[0] for region in p.regions)])
    require_finite(values, "values of f")
    return _in_order_sum(values[:, None, None] * p.effects)


@dataclass
class NaimarkDilation:
    """Isometry J of shape (k*d, d); block i of J corresponds to cell i,
    and E_i = J* Ptilde_i J = J_i* J_i with Ptilde_i the block selector
    and J_i the i-th block of rows.  ``report`` validates the POVM, and
    ``isometry_residual`` is ||J* J - I||."""

    isometry: np.ndarray
    dim: int
    report: PovmReport
    isometry_residual: float

    def compressions(self) -> np.ndarray:
        """The stack (k, d, d) of the compressions J_i* J_i."""
        J = self.isometry.reshape(-1, self.dim, self.dim)
        return adjoint(J) @ J


def naimark_dilate(p: DiscretePOVM) -> NaimarkDilation:
    """Dilate a validated POVM by stacking the square roots E_i^{1/2}, all
    taken by one stacked ``sqrtm_psd``."""
    report = povm_validate(p, NUMERIC_TOL)
    if not report.ok:
        raise ValueError(f"POVM does not validate: sum residual "
                         f"{report.sum_residual:.3e}, classes {report.classifications}")
    J = sqrtm_psd(p.effects).reshape(-1, p.dim)
    iso_res = opnorm(adjoint(J) @ J - np.eye(p.dim))
    if iso_res > NUMERIC_TOL:
        raise ValueError(f"dilation is not an isometry (residual {iso_res:.3e})")
    return NaimarkDilation(J, p.dim, report, iso_res)


def random_povm(d: int, k: int, rng) -> DiscretePOVM:
    """Seeded random POVM on k equal circle arcs: E_i = S^{-1/2} A_i* A_i S^{-1/2}
    for Gaussian A_i, drawn as one stack, and S the sum of the A_i* A_i."""
    A = _rand_complex(rng, require_int(d, "d", 1), (require_int(k, "k", 1),))
    gram = adjoint(A) @ A
    lam, V = _sym_eigh(_in_order_sum(gram))
    S_isqrt = (V / np.sqrt(lam)) @ adjoint(V)
    regions = equal_partition(circle_full(), k)
    return DiscretePOVM(regions=regions, effects=S_isqrt @ gram @ S_isqrt)


@dataclass
class MomentReport:
    """Moment residuals ||T^n - sum_j e^{i n theta_j} F_j|| from the
    unbinned spectral measure of the circular dilation, certified for
    n = 0..M-1, plus the binned cell masses."""

    moment_residuals: np.ndarray
    cell_masses: np.ndarray


def _defect_svd(T: np.ndarray):
    """(W, C, X*, S) for T = W S X*, with C = (1 - S^2)^{1/2} clipped at 0:
    one SVD for the norm S[0] of T and for both defect operators."""
    W, S, Xs = np.linalg.svd(T)
    return W, np.sqrt(np.clip(1.0 - S * S, 0.0, None)), Xs, S


def _circular_dilation(T: np.ndarray, M: int, svd) -> np.ndarray:
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

    Both defect operators come from one SVD T = W S X*, ``svd`` =
    ``_defect_svd(T)``:
    (I - T* T)^{1/2} = X (I - S^2)^{1/2} X* and
    (I - T T*)^{1/2} = W (I - S^2)^{1/2} W*, so they share their singular
    values and the intertwining T (I - T* T)^{1/2} = (I - T T*)^{1/2} T
    holds to rounding.  Two separate square roots would each turn a
    rounding-level eigenvalue of I - T* T at ||T|| = 1 into ~1e-8 and
    leave U unitary only to ~1e-8.
    """
    d = T.shape[0]
    K = 2 * M
    W, C, Xs, _ = svd
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


def _arc_roots(f, lo, hi, sign_lo, x):
    """One root of f in each bracket [lo_j, hi_j], where f(lo_j) has the
    strict sign sign_lo_j and f(hi_j) the opposite one: Newton steps from
    x (the midpoint where x is outside its bracket), all brackets at once,
    each step narrowing its bracket and replaced by bisection when it
    leaves it, until every step is within rounding.  f(x) returns
    (f, f')."""
    x = np.where((x >= lo) & (x <= hi), x, (lo + hi) / 2)
    for _ in range(100):
        y, dy = f(x)
        below = sign_lo * y > 0                 # the root lies above x
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        new = x - y / dy
        new = np.where((new >= lo) & (new <= hi), new, (lo + hi) / 2)
        done = np.abs(new - x).max() <= 4 * np.pi * np.finfo(float).eps
        x = new
        if done:
            break
    return x


@np.errstate(divide="ignore", invalid="ignore")  # non-finite values fail below
def _scalar_spectrum(t: complex, s: float, M: int):
    """Eigenphases and block-0 weights |<e_0, v_j>|^2 of the circular
    dilation of the scalar contraction t, whose defect s = (1 - |t|^2)^{1/2}
    is the one ``_circular_dilation`` puts in U, in closed form; None when
    they cannot be certified.

    With K = 2M, rows 2..K-1 of U v = lambda v give v_j = lambda^{K-1-j}
    (j >= 1), and rows 0 and 1 give v_0 = -s / (lambda - t) and
    v_0 = (lambda^{K-1} - conj t) / s.  So the eigenvalues are the K roots
    of p(lambda) = lambda^K - t lambda^{K-1} - conj(t) lambda + 1, and
    |p(e^{i theta})| = 2 |g(theta)| with
    g(theta) = cos(M theta) - |t| cos((M - 1) theta + arg t).
    - s > 0: p(e^{ix}) = 0 where the increasing phase
      Phi(x) = K x + 2 h(x), h(x) = atan2(|t| sin(x - arg t),
      1 - |t| cos(x - arg t)), is pi modulo 2 pi.  Over each of the K arcs
      [lo_j, lo_j + pi / M), lo_j = -pi + pi j / M, Phi rises by 2 pi, and
      |h| <= arcsin |t|, so Phi - pi - K lo_j runs from 2 h - pi < 0 to
      pi + 2 h > 0 and stays at least 2 arccos |t| from 0 at both ends:
      each arc holds exactly one simple root, at which g changes sign from
      (-1)^{M+j}, and ``_arc_roots`` finds it from g.  The arcs are
      certified when that margin exceeds the rounding of the arc ends, so
      a root on an arc end, where g's own sign is lost in rounding, is
      found too.  Each v_0 above makes one row exact and leaves the
      residual |p(lambda)| / sqrt(D) in the other, with
      D = s^2 + (K-1) |lambda - t|^2 or |lambda^{K-1} - conj t|^2 + (K-1) s^2;
      the larger D is taken, and the weight is |v_0|^2 / |v|^2, that is,
      s^2 / D or |lambda^{K-1} - conj t|^2 / D.  At a root close to t with
      s small only the second D stays away from 0.
    - s = 0: U e_0 = t e_0 with weight 1, and the other K - 1 eigenphases
      are the roots of lambda^{K-1} = conj t, with weight 0 and residual
      |lambda^{K-1} - conj t| / sqrt(K - 1).
    For s > 0 every angle is taken as y = theta - arg t, and M theta by
    angle addition from one sine and one cosine of M arg t, so that near t
    the roots, g and the factors |lambda - t| and |lambda^{K-1} - conj t|
    keep their relative accuracy (a pair of roots split by ~2 s / sqrt(K)
    about a near-unitary t, or one on an arc end when t^K = 1, is resolved).
    Every residual is bounded with g's rounding allowance (and with
    |s^2 + |t|^2 - 1|, by which p may differ from U's characteristic
    polynomial) and must be at most NUMERIC_TOL, as ``_unitary_eigh``
    requires of its eigenvectors.  None is returned when the margin of Phi
    at the arc ends is within their rounding, a residual bound exceeds
    NUMERIC_TOL or a weight is non-finite.
    """
    K = 2 * M
    r, phi = abs(t), float(np.angle(t))
    eps = np.finfo(float).eps
    allowance = 8 * (M + 1) * eps                   # of lambda^{K-1}

    # g as (1 - |t|) cos(a) - 2 |t| sin(a - v) sin(v), a = M theta and
    # v = y / 2, with 1 - |t| = s^2 / (1 + |t|): no cancellation at a root
    # close to t when |t| is close to 1
    c = s * s / (1 + r)
    sin_m, cos_m = np.sin(M * phi), np.cos(M * phi)

    def g(y):
        v, u = y / 2, M * y - y / 2         # a - v = M arg t + u
        cmy, smy, cu, su = np.cos(M * y), np.sin(M * y), np.cos(u), np.sin(u)
        sin_a = sin_m * cmy + cos_m * smy
        cos_a = cos_m * cmy - sin_m * smy
        sin_u = sin_m * cu + cos_m * su
        cos_u = cos_m * cu - sin_m * su
        sin_v, cos_v = np.sin(v), np.cos(v)
        return (c * cos_a - 2 * r * sin_u * sin_v,
                -M * c * sin_a
                - r * ((2 * M - 1) * cos_u * sin_v + sin_u * cos_v), sin_u)

    if s == 0.0:
        shift = np.angle(np.exp(1j * (2 * np.pi * np.arange(K - 1) - phi)
                                / (K - 1)))
        thetas = np.append(phi, shift)
        weights = np.append(1.0, np.zeros(K - 1))
        residual = ((np.abs(np.exp(1j * (K - 1) * shift) - np.conj(t))
                     + allowance) / np.sqrt(K - 1))
    else:
        # g is (|t| + c) times the g of a scalar of modulus |t| / (|t| + c),
        # so the margin of its phase at the arc ends is
        # 2 arccos(|t| / (|t| + c)); K times an arc length rounds by at
        # most 4 pi K eps
        margin = 2 * np.arctan2(np.sqrt(c * (2 * r + c)), r)
        if not margin > 4 * np.pi * (K + 4) * eps:
            return None
        ends = -np.pi + np.pi * np.arange(K + 1) / M - phi
        sign = 1.0 - 2.0 * ((M + np.arange(K)) % 2)
        lo = ends[:-1]
        # start from one Newton step, from the midpoint or, in its own arc,
        # from y = 0, on the increasing phase
        # Phi = K theta + 2 atan2(|t| sin y, 1 - |t| cos y),
        # which is pi + K lo_j at the root in arc j and has the slope
        # (K - 1) + s^2 / |e^{iy} - |t||^2
        y = lo + np.pi / K
        y[min(int((phi + np.pi) * M / np.pi), K - 1)] = 0.0
        h = np.arctan2(r * np.sin(y), 1 - r * np.cos(y))
        y -= ((K * (y - lo) - np.pi + 2 * h)
              / ((K - 1) + s * s / np.abs(np.exp(1j * y) - r) ** 2))
        y = _arc_roots(lambda y: g(y)[:2], lo, ends[1:], sign, y)
        thetas = y + phi
        value, _, sin_u = g(y)
        # |v_0|^2 and |v|^2 of the two explicit eigenvectors, scaled, from
        # |e^{ia} - |t||^2 = (1 - |t|)^2 + 4 |t| sin(a / 2)^2 at a = y and
        # at a = (K - 1) theta + arg t = 2 (M theta - v)
        top_a = s * s
        norm_a = top_a + (K - 1) * (c * c + 4 * r * np.sin(y / 2) ** 2)
        top_b = c * c + 4 * r * sin_u ** 2
        norm_b = top_b + (K - 1) * s * s
        weights = np.where(norm_a >= norm_b, top_a / norm_a, top_b / norm_b)
        # g's rounding scales with the angles M y and with its two terms;
        # arg t and M arg t round by eps |arg t| / 2 each, which moves p by
        # at most twice as much
        slack = (8 * eps * (M * np.abs(y) + 4)
                 * (c + 2 * r * np.abs(np.sin(y / 2)))
                 + 2 * eps * abs(phi) + abs(r * r + s * s - 1))
        residual = (2 * (np.abs(value) + slack)
                    / np.sqrt(np.maximum(norm_a, norm_b)))
    if not (residual.max() <= NUMERIC_TOL and np.isfinite(weights).all()):
        return None
    return thetas, weights


def _block0_spectrum(T: np.ndarray, M: int, svd):
    """Eigenphases of the circular dilation U of T and its point masses
    F_j = P0 v_j v_j* P0 on block 0, a stack (K, d, d), from ``svd`` =
    ``_defect_svd(T)``: in closed form by ``_scalar_spectrum`` when T is a
    scalar and its certificate holds (the weights are the 1 x 1 masses),
    else from the block-0 rows of the eigenvectors of ``_unitary_eigh`` of
    the dense U."""
    d = T.shape[0]
    if d == 1:
        found = _scalar_spectrum(complex(T[0, 0]), float(svd[1][0]), M)
        if found is not None:
            return found[0], found[1][:, None, None]
    thetas, V = _unitary_eigh(_circular_dilation(T, M, svd))
    P0V = V[:d].T
    return thetas, P0V[:, :, None] * P0V[:, None, :].conj()


@lru_cache
def _equal_arcs(cells: int) -> tuple:
    """The ``cells`` equal arcs of [-pi, pi) and their binning edges, the
    left ends moved down by _EPS, built once per count."""
    regions = tuple(equal_partition(circle_full(), cells))
    edges = np.array([region.cells[0][0] for region in regions]) - _EPS
    edges.flags.writeable = False
    return regions, edges


def contraction_moment_povm(T, M: int, cells: int):
    """Moment POVM of a contraction: T^n = int e^{i n theta} dE(theta).

    Takes the spectral measure of the circular unitary dilation U of depth
    M, compressed to the original space, from ``_block0_spectrum``: in
    closed form for a 1 x 1 T (``_scalar_spectrum``), else, and when that
    certificate fails, from ``_unitary_eigh`` of the dense U.  One SVD of T
    (``_defect_svd``) gives the norm of the contraction check and the
    defect operators of U.  The measure is one stack of point masses
    F_j = P0 v_j v_j* P0, binned the same way at every d into ``cells``
    equal arcs of [-pi, pi): one ``searchsorted`` gives every phase its
    cell and one ``np.add.at`` sums the masses of each cell, in phase
    order; a phase within _EPS below pi is binned as -pi, and the moments
    keep the phase itself.  Returns the binned DiscretePOVM together with
    a MomentReport; the unbinned moments are certified for n = 0..M-1:
    moment n is one product of the cumulative phase products
    e^{i n theta_j} with the masses, and all M residuals against the
    powers of T come from one batched ``opnorm``.
    """
    T = require_square(T, "contraction T")
    M = require_int(M, "moment depth M", 1)
    cells = require_int(cells, "cell count cells", 1)
    svd = _defect_svd(T)
    if svd[3][0] > 1.0 + NUMERIC_TOL:
        raise ValueError(f"not a contraction: ||T|| = {svd[3][0]:.6f}")
    d = T.shape[0]
    thetas, masses = _block0_spectrum(T, M, svd)
    # as in RegionSet.indicator, a phase within _EPS below pi is binned as
    # -pi; the moments keep the phase itself
    binned = np.where(thetas >= np.pi - _EPS, -np.pi, thetas)
    order = np.argsort(binned, kind="stable")
    thetas, binned, masses = thetas[order], binned[order], masses[order]

    # half-open cells with ends moved down by _EPS, as in RegionSet.indicator:
    # a phase on an edge, up to rounding, goes with the cell it starts
    regions, edges = _equal_arcs(cells)
    effects = np.zeros((cells, d, d), dtype=masses.dtype)
    np.add.at(effects, np.searchsorted(edges, binned, side="right") - 1, masses)

    # moment n of the unbinned point masses against T^n, for every n at
    # once: the powers e^{i n theta_j} by repeated products (each rounds by
    # at most n eps) against the masses
    phases = np.ones((M, len(thetas)), dtype=complex)
    phases[1:] = np.exp(1j * thetas)
    moments = np.cumprod(phases, axis=0) @ masses.reshape(-1, d * d)
    powers = np.empty((M, d, d), dtype=complex)
    powers[0] = np.eye(d)
    for n in range(1, M):
        powers[n] = powers[n - 1] @ T
    residuals = opnorm(moments.reshape(M, d, d) - powers)
    povm = DiscretePOVM(regions=list(regions), effects=effects)
    report = MomentReport(moment_residuals=residuals,
                          cell_masses=np.einsum("cii->c", effects).real / d)
    return povm, report
