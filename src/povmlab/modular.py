"""Finite-dimensional Tomita-Takesaki engine.

The carrier is the Hilbert-Schmidt space of d x d matrices, flattened
row-major to C^{d^2}.  Antilinear maps are represented as a linear matrix
composed with entrywise conjugation in the canonical basis, which reduces
the antilinear polar decomposition S = J Delta^{1/2} to dense linear
algebra: Delta = M_S^T conj(M_S) and M_J = M_S conj(Delta^{-1/2}).

Conventions.  With reference vector Omega = T^{1/2} the closed forms are
Delta: X -> T X T^{-1} and J: X -> X*.  The modular flow is
sigma_t(A) = Delta^{-it} A Delta^{it}, which on algebra elements is the
conjugation A -> T^{-it} A T^{it} by ``operators.imag_power``:
Delta^{it} = T^{it} (x) (T^{-it})^T factors, so the flow of a left
multiplication is the left multiplication of the d x d flow.  For a
diagonal T, T^{-it} is the diagonal phase that ``flow_phase`` reads off
the density itself, with no triple.  A triple stores only T and Omega;
its d^2 x d^2 carrier data (S, Delta, its spectrum and J) is computed on
first read, by the checks that compare it with the closed forms, and its
``flow`` moves carrier operators by powers of Delta.  Every power of a
decomposed positive operator is ``operators.spectral_power``.  ``vec``
and ``apply_J`` also take stacks, one row per matrix or vector, and the
closed-form, KMS and Lemma-modular checks run over stacks of draws at
once, each residual of a carrier vector in its Euclidean norm.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import (DEFAULT_TOL, NUMERIC_TOL, _rand_complex, adjoint,
                        herm_spectrum, opnorm, require_square, require_stack,
                        spectral_power)
from .regions import require_entries, require_finite


def vec(X) -> np.ndarray:
    """Row-major flattening of a d x d matrix, or of each matrix of a
    stack (k, d, d) to the rows of (k, d^2)."""
    X = np.asarray(X, dtype=complex)
    return X.reshape(X.shape[:-2] + (-1,))


def _worst_norm(rows) -> float:
    """Largest Euclidean norm over the rows, each taken as one vector."""
    return float(max(np.linalg.norm(r) for r in rows))


def _apply(M, x) -> np.ndarray:
    """M x for one vector, or for each row of a stack (k, n) as a batch of
    matrix-vector products, which round as the one-vector product does."""
    return (M @ x[..., None])[..., 0]


def left_mult(A) -> np.ndarray:
    """pi(A): X -> A X on the carrier."""
    A = require_square(A, "A")
    return np.kron(A, np.eye(A.shape[0]))


def _conj_action(A, B) -> np.ndarray:
    """Matrix of X -> A X B on the row-major carrier."""
    return np.kron(A, np.asarray(B).T)


# --------------------------------------------------------------------------
# traces and noncommutative L^2 inner products


@dataclass
class TraceWeight:
    """tau(A) = tr(A W) for a positive weight W."""

    W: np.ndarray

    def __post_init__(self):
        self.W = require_square(self.W, "weight W")
        lam = herm_spectrum(self.W)[0]
        if lam.min() < -1e-10 * max(1.0, lam.max()):
            raise ValueError(f"weight not positive (min eigenvalue {lam.min():.3e})")

    def inner(self, A, B) -> complex:
        """<A, B>_tau = tr(B* A W)."""
        d = len(self.W)
        A, B = require_square(A, "A", d), require_square(B, "B", d)
        return complex(np.trace(adjoint(B) @ A @ self.W))


# --------------------------------------------------------------------------
# GNS construction


@dataclass
class GnsRep:
    density: np.ndarray
    basis: np.ndarray          # d^2 x r, orthonormal columns spanning the quotient
    omega_vec: np.ndarray      # coordinates of the cyclic vector q(I)
    dim: int
    faithful: bool

    def state(self, A) -> complex:
        """omega(A) = tr(A T)."""
        return complex(np.trace(
            require_square(A, "A", len(self.density)) @ self.density))

    def represent(self, A) -> np.ndarray:
        """Compression of left multiplication by A to the quotient basis."""
        return adjoint(self.basis) @ left_mult(
            require_square(A, "A", len(self.density))) @ self.basis


def build_gns(generators, T) -> GnsRep:
    """GNS representation of omega(A) = tr(A T) from a generating set.

    Concretely realised inside Hilbert-Schmidt space: q(A) = A T^{1/2},
    since <q(A), q(B)> = tr(B* A T) = omega(B* A).  An eigenvalue of T
    within the rounding of its spectrum, 8 d eps lam_max, is taken as 0:
    T is faithful when no eigenvalue is, and T^{1/2} is formed with them
    set to 0, so the null ideal is exactly the kernel of q.  It is
    quotiented by a rank-revealing SVD with threshold 1e-10 * sigma_max.
    An empty generating set is refused.
    """
    T = require_square(T, "density T")
    if abs(np.trace(T) - 1.0) > NUMERIC_TOL:
        raise ValueError(f"not unit trace: tr T = {np.trace(T)}")
    lam, V = herm_spectrum(T, NUMERIC_TOL)
    if lam[0] < -1e-10:
        raise ValueError(f"not positive: min eigenvalue {lam[0]:.3e}")
    kept = lam > 8 * len(lam) * np.finfo(float).eps * lam[-1]
    sqrtT = (V * np.sqrt(np.where(kept, lam, 0.0))) @ adjoint(V)
    images = require_entries(
        [vec(require_square(A, "generator", len(T)) @ sqrtT)
         for A in generators], "generators")
    U, s, _ = np.linalg.svd(np.column_stack(images), full_matrices=False)
    rank = int(np.sum(s > 1e-10 * max(s.max(), 1e-300)))
    basis = U[:, :rank]
    omega_vec = adjoint(basis) @ vec(sqrtT)
    return GnsRep(density=T, basis=basis, omega_vec=omega_vec, dim=rank,
                  faithful=bool(kept.all()))


# --------------------------------------------------------------------------
# modular triple


@dataclass
class ModularTriple:
    """S = J Delta^{1/2} on the Hilbert-Schmidt carrier of a positive
    invertible density T, with Omega = T^{1/2}.  Only T and ``omega`` are
    stored: the carrier data ``S_mat``, ``Delta``, ``delta_spectrum`` and
    ``J_mat`` come from the antilinear polar decomposition of S.  All four
    are computed when first read."""

    T: np.ndarray
    d: int
    omega: np.ndarray          # Omega = T^{1/2}

    @cached_property
    def S_mat(self) -> np.ndarray:
        """Linear part of the antilinear S(Y) = T^{-1/2} Y* T^{1/2}."""
        d = self.d
        # S is linear in conj(Y); the transpose Y -> Y^T permutes the
        # columns of X -> T^{-1/2} X T^{1/2}
        C = _conj_action(np.linalg.inv(self.omega), self.omega)
        return C.reshape(d * d, d, d).transpose(0, 2, 1).reshape(d * d, d * d)

    @cached_property
    def Delta(self) -> np.ndarray:
        """Positive d^2 x d^2 matrix S* S."""
        return self.S_mat.T @ np.conj(self.S_mat)

    @cached_property
    def delta_spectrum(self) -> tuple:
        """(eigenvalues, eigenvectors) of Delta."""
        return herm_spectrum(self.Delta, NUMERIC_TOL)

    @cached_property
    def J_mat(self) -> np.ndarray:
        """Linear part of the antilinear J = S Delta^{-1/2}."""
        lam, V = self.delta_spectrum
        return self.S_mat @ np.conj((V / np.sqrt(lam)) @ adjoint(V))

    @cached_property
    def closed_form_residuals(self) -> dict:
        """Residuals of the closed forms Delta: X -> T X T^{-1} and
        J: X -> X*, of J being an involution and of S(X Omega) = X* Omega,
        the last two on one seeded stack of 8 random X.  Computed on first
        read."""
        d = self.d
        X = _rand_complex(np.random.default_rng(0), d, (8,))
        j = self.apply_J(vec(X)) - vec(adjoint(X))
        s = (_apply(self.S_mat, np.conj(vec(X @ self.omega)))
             - vec(adjoint(X) @ self.omega))
        return {
            "delta_conjugation":
                opnorm(self.Delta - _conj_action(self.T, np.linalg.inv(self.T))),
            "j_adjoint": _worst_norm(j),
            "j_involution": opnorm(self.J_mat @ np.conj(self.J_mat) - np.eye(d * d)),
            "s_defining": _worst_norm(s),
        }

    def apply_J(self, x) -> np.ndarray:
        """J applied to a carrier vector, or to each row of a stack (k, d^2)."""
        return _apply(self.J_mat, np.conj(np.asarray(x, dtype=complex)))

    def delta_power(self, p: complex) -> np.ndarray:
        """Delta^p from the decomposed Delta."""
        return spectral_power(self.delta_spectrum, p)

    def flow(self, t: float, A) -> np.ndarray:
        """Modular flow sigma_t = Delta^{-it} A Delta^{it} of an operator A
        on the carrier (d^2 x d^2).  An algebra element B flows as
        T^{-it} B T^{it}, the conjugation by ``operators.imag_power``, and
        the flow of its left multiplication is the left multiplication of
        that flow."""
        A = require_square(A, "A", self.d ** 2)
        D = self.delta_power(-1j * t)
        return D @ A @ adjoint(D)


def flow_phase(T, t):
    """The diagonal of T^{-it} = e^{-it log T} for a diagonal density T,
    read off T's own diagonal, so that sigma_t(A) = diag(phase) A
    diag(phase)*; for a vector of times, one row per time.  A ValueError
    for a T that is not diagonal, for a time that is not finite, and,
    naming the first, for a weight that is not positive and finite."""
    w = np.diagonal(T)
    if np.count_nonzero(T) != np.count_nonzero(w):
        raise ValueError("flow_phase needs a diagonal density")
    bad = ~((w.real > 0) & np.isfinite(w))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"flow_phase needs positive finite weights, got "
                         f"weight {i} = {float(w[i].real)!r}")
    t = require_finite(np.asarray(t, dtype=float), "flow time t")
    return np.exp(np.multiply.outer(-1j * t, np.log(w.real)))


def build_modular(T) -> ModularTriple:
    """Modular triple of the state tr(. T) for a positive invertible T.

    One ``herm_spectrum`` of T, which refuses a non-Hermitian T, decides
    invertibility and cond(T) and gives Omega = V sqrt(lam) V*.
    S is defined by S(X Omega) = X* Omega, i.e. Y -> T^{-1/2} Y* T^{1/2};
    its antilinear polar decomposition gives Delta and J when the triple's
    carrier data is first read, and the triple's
    ``closed_form_residuals`` check them against the closed forms
    Delta: X -> T X T^{-1}, J: X -> X*.
    """
    T = require_square(T, "density T")
    lam, V = herm_spectrum(T)
    if lam[0] <= 0:
        raise ValueError(f"density not invertible (min eigenvalue {lam[0]:.3e})")
    cond = float(lam[-1] / lam[0])
    if cond > 1e12:
        raise ValueError(f"density too ill-conditioned: cond(T) = {cond:.3e} "
                         "> 1.0e+12; reduce beta*d")
    return ModularTriple(T=T, d=T.shape[0],
                         omega=(V * np.sqrt(lam)) @ adjoint(V))


def kms_residual(T, A, B) -> float:
    """|tr(T A B) - tr(T B . T A T^{-1})|; zero up to rounding by trace
    cyclicity, the finite-dimensional KMS identity.  A and B may be stacks
    (k, d, d) of pairs: T is then decomposed and inverted once, and the
    worst pair's residual is returned.  A and B must be of T's size and
    hold as many matrices; an empty stack is refused."""
    T = require_square(T, "density T")
    A = require_stack(A, "A", len(T))[0]
    B = require_stack(B, "B", len(T))[0]
    if len(A) != len(B):
        raise ValueError(f"A and B need one matrix per pair, "
                         f"got {len(A)} and {len(B)}")
    if herm_spectrum(T)[0].min() <= 0:
        raise ValueError("density must be invertible")
    lhs = np.trace(T @ A @ B, axis1=-2, axis2=-1)
    rhs = np.trace(T @ B @ (T @ A @ np.linalg.inv(T)), axis1=-2, axis2=-1)
    return float(abs(lhs - rhs).max())


def modtime_unitarity(weight: TraceWeight, T, ts, samples) -> dict:
    """Check that A -> T^{it} A T^{-it} is a unitary group on H_tau.

    Returns per-(t, pair) isometry residuals
    |<U_t A, U_t B>_tau - <A, B>_tau| and group-law residuals for
    consecutive times.  T and every sample must be of the weight's size.
    An empty ``ts`` or ``samples`` is refused, as it would compare
    nothing, and so are a T that is not positive definite and a time that
    is not finite, by ``operators.spectral_power``.
    """
    require_entries(ts, "ts")
    spectrum = herm_spectrum(require_square(T, "density T", len(weight.W)))
    require_stack([X for pair in require_entries(samples, "samples")
                   for X in pair], "samples", len(weight.W))

    powers = {}             # t -> (T^{it}, its adjoint), formed once per t

    def U(t, A):
        if t not in powers:
            P = spectral_power(spectrum, 1j * t)
            powers[t] = P, adjoint(P)
        return powers[t][0] @ A @ powers[t][1]

    iso = []
    for t in ts:
        for A, B in samples:
            r = abs(weight.inner(U(t, A), U(t, B)) - weight.inner(A, B))
            iso.append({"t": t, "residual": float(r)})
    group = []
    for t1, t2 in zip(ts, ts[1:]):
        A = samples[0][0]
        r = opnorm(U(t1, U(t2, A)) - U(t1 + t2, A))
        group.append({"t1": t1, "t2": t2, "residual": float(r)})
    worst = max(c["residual"] for c in iso)
    return {"isometry": iso, "group_law": group, "max_isometry_residual": worst,
            "unitary": worst <= DEFAULT_TOL}


def lemma_modular_residual(triple: ModularTriple, A) -> float:
    """|| J Delta^{1/2} (A Omega) - A* Omega ||: the Lemma-modular identity
    S = J Delta^{1/2} applied to A Omega, with J, Delta and Omega = T^{1/2}
    read from a triple already built by ``build_modular``, in the carrier's
    vector norm.  For a stack A (k, d, d), Delta^{1/2} is formed once and
    the worst residual is returned; an A of another size than the
    triple's d and an empty stack are refused."""
    A = require_stack(A, "A", triple.d)[0]
    y = triple.apply_J(_apply(triple.delta_power(0.5), vec(A @ triple.omega)))
    return _worst_norm(y - vec(adjoint(A) @ triple.omega))
