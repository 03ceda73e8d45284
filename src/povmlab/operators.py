"""Dense complex-matrix foundation.

Operators are plain numpy arrays of complex128.  This module provides the
pieces everything else is built from: Hermitian eigendecomposition,
functional calculus f(H) = V f(lam) V*, and the effect/projection
classification by one stacked norm test, ``_norm_within``.  ``opnorm``,
``herm_spectrum``, ``sqrtm_psd``, ``is_hermitian`` and ``is_effect`` take
one matrix or a stack (k, d, d): a value for one matrix, an array of
values for a stack, from one batched LAPACK call that treats each member
as it treats one matrix alone; an error names the first bad member.  The
one structured operator is ``ToeplitzBlock``, a leading block of a
circulant kept as its generator, whose norm is bounded from one FFT.  A
ToeplitzBlock takes stacks the same way: a generator of shape (S, n)
stands for S blocks of one size, one per row, bounded from one FFT along
the rows, and a one-row generator of shape (n,) is the single block,
with single values; every member of a stack reads what it reads alone,
bit for bit.  Every model residual that a bound can certify is a
``Defect``: its bound, and its dense value deferred until ``Defect.norm``
refuses the bound at a tolerance.  Each of the three thermal systems is
a ``ThermalModel``, whose covariance check is one ``shift_covariance``
call: a stack of draws, each with its ``lattice_phase``, whose defects
are Toeplitz blocks when the phase is geometric (``geometric_deviation``).

Operator arguments are checked by name in one place, ``require_stack``,
or its one-matrix form ``require_square``: the decompositions and
predicates here call it, and so do the POVM, GNS, modular and KMS entry
points of ``povm`` and ``modular``.  ``opnorm``, which also takes
vectors, isometries and empty arrays, checks nothing.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .regions import region_list, require_entries, require_finite

# Default tolerance of the predicates: relative to max(1, ||A||) in
# is_hermitian (so in herm_spectrum), absolute in is_effect's spectrum and
# projection tests.  ``_norm_within`` decides each of them with a margin of
# 2: ||X||_F <= threshold/2 certifies, a column norm > 2 threshold refutes.
DEFAULT_TOL = 1e-10
# Most elements one dense stack of a ``Defect`` may hold: one 4096 x 4096
# complex matrix, 256 MB.
DENSE_BUDGET = 2 ** 24
# Tolerance for checks on operators built numerically (square roots, dilations,
# densities), whose rounding error sits well above DEFAULT_TOL.
NUMERIC_TOL = 1e-8

NOT_EFFECT = "not_effect"
EFFECT = "effect"
PROJECTION = "projection"


def require_stack(A, name: str = "operator", d: int = None) -> tuple:
    """(A as a complex stack (k, m, m), whether A was one m x m matrix).
    Refused by name: a ragged A, one that is not one square matrix or a
    stack of equal-shaped ones, a size 0 or, with ``d``, a size other
    than d, a non-finite entry, and an empty stack."""
    try:
        A = np.asarray(A, dtype=complex)
    except ValueError:
        raise ValueError(f"{name} must be matrices of one shape, "
                         "got a ragged input") from None
    if (A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]
            or not A.shape[-1] or d not in (None, A.shape[-1])):
        size = "nonzero size" if d is None else f"size {d}"
        raise ValueError(f"{name} must be a square matrix or a stack of "
                         f"them, of {size}, got shape {A.shape}")
    if not np.isfinite(require_entries(A, name)).all():
        raise ValueError(f"{name} must be finite")
    return (A[None], True) if A.ndim == 2 else (A, False)


def require_square(A, name: str = "operator", d: int = None) -> np.ndarray:
    """A as one complex square matrix, checked as ``require_stack`` checks
    it; a stack is refused."""
    A, one = require_stack(A, name, d)
    if not one:
        raise ValueError(f"{name} must be one matrix, not a stack, "
                         f"got shape {A.shape}")
    return A[0]


def opnorm(A):
    """Operator norm (largest singular value): a float for one matrix (a
    vector reads as one row), an array of norms for a stack (k, m, n),
    from one batched SVD."""
    A = np.asarray(A, dtype=complex)
    one = A.ndim < 3
    A = np.atleast_2d(A)
    if A.shape[-1] * A.shape[-2] == 0:
        norms = np.zeros(A.shape[:-2])
    else:
        norms = np.linalg.norm(A, 2, axis=(-2, -1))
    return float(norms) if one else norms


def _rand_complex(rng, d, shape=()):
    """A complex Gaussian d x d matrix, or an array ``shape`` of them, each
    drawn as its real part and then its imaginary part."""
    g = rng.standard_normal(shape + (2, d, d))
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def adjoint(A) -> np.ndarray:
    return np.conj(np.asarray(A)).swapaxes(-1, -2)


def _norm_within(X, tol: float, scale=None) -> np.ndarray:
    """Whether ||X[i]|| <= tol * max(1, ||scale[i]||), or <= tol without a
    scale, for each matrix of the stack X.  The Frobenius norm bounds each
    operator norm from above, the largest column norm from below: a
    Frobenius norm at most half the threshold certifies, a column norm
    above twice it refutes, and the SVD decides only the rest."""
    def colmax(Y):
        return np.linalg.norm(Y, axis=-2).max(axis=-1, initial=0.0)

    lo = tol if scale is None else tol * np.maximum(1.0, colmax(scale))
    ok = np.linalg.norm(X, axis=(-2, -1)) <= 0.5 * lo
    if ok.all():
        return ok
    hi = tol if scale is None else tol * np.maximum(
        1.0, np.linalg.norm(scale, axis=(-2, -1)))
    open_ = ~ok & (colmax(X) <= 2.0 * hi)
    if open_.any():
        if scale is not None:
            tol = tol * np.maximum(1.0, np.linalg.svd(
                scale[open_], compute_uv=False)[:, 0])
        ok[open_] = np.linalg.svd(X[open_], compute_uv=False)[:, 0] <= tol
    return ok


def is_hermitian(A, tol: float = DEFAULT_TOL):
    """||A - A*|| <= tol * max(1, ||A||) by ``_norm_within``: a bool for one
    matrix, a bool array for a stack (k, d, d)."""
    A, one = require_stack(A)
    ok = _norm_within(A - adjoint(A), tol, A)
    return bool(ok[0]) if one else ok


def herm_spectrum(H, tol: float = DEFAULT_TOL):
    """Eigendecomposition of H, which must be Hermitian within tol.

    Returns the pair (eigenvalues, eigenvectors) as ``np.linalg.eigh``
    does: real eigenvalues in ascending order, and the orthonormal
    eigenbasis as the columns of the second.  H is symmetrised to
    (H + H*)/2 before decomposition so the spectrum is exactly real.  For
    a stack (k, d, d), as in ``is_hermitian``, both come stacked from one
    batched ``eigh``, and the error names the first non-Hermitian member.
    """
    H, one = require_stack(H)
    ok = is_hermitian(H, tol)
    if not ok.all():
        i = int(np.argmin(ok))
        where = "" if one else f" {i} of the stack"
        raise ValueError(f"operator{where} is not Hermitian within tolerance "
                         f"(defect {opnorm(H[i] - adjoint(H[i])):.3e})")
    lam, V = _sym_eigh(H)
    return (lam[0], V[0]) if one else (lam, V)


def _sym_eigh(H):
    """eigh of (H + H*)/2, so the spectrum is exactly real."""
    return np.linalg.eigh((H + adjoint(H)) / 2.0)


def funcalc(H, f) -> np.ndarray:
    """Hermitian functional calculus: return V f(lam) V*.

    ``f`` is applied once to the vector of eigenvalues; if that raises or
    gives a non-finite value or another shape, f is applied eigenvalue by
    eigenvalue, and a non-finite value (or an exception from ``f``) is
    reported as a domain error naming the first offending eigenvalue.
    """
    lams, V = herm_spectrum(H)
    domain = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            vals = np.asarray(f(lams), dtype=complex)
        except domain + (TypeError,):
            vals = None
        if vals is None or vals.shape != lams.shape or not np.isfinite(vals).all():
            vals = np.empty(len(lams), dtype=complex)
            for i, lam in enumerate(lams):
                try:
                    v = f(lam)
                except domain as exc:
                    raise ValueError(f"function undefined at eigenvalue {lam!r}: {exc}")
                vals[i] = v = complex(v)
                if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                    raise ValueError(f"function undefined at eigenvalue {lam!r}")
    return (V * vals) @ adjoint(V)


def is_effect(A, tol: float = DEFAULT_TOL):
    """Classify A as not_effect / effect / projection: a class for one
    matrix, the list of classes for a stack (k, d, d).

    Effect: Hermitian (``is_hermitian``) with spectrum in [-tol, 1+tol].
    Projection: additionally ||A^2 - A|| <= tol, by ``_norm_within``.
    """
    A, one = require_stack(A)
    effect = is_hermitian(A, tol)
    lam = np.linalg.eigvalsh((A + adjoint(A))[effect] / 2.0)
    effect[effect] = (lam[:, 0] >= -tol) & (lam[:, -1] <= 1.0 + tol)
    sharp, E = effect.copy(), A[effect]
    sharp[effect] = _norm_within(E @ E - E, tol)
    classes = np.where(sharp, PROJECTION, np.where(effect, EFFECT, NOT_EFFECT))
    return str(classes[0]) if one else classes.tolist()


def diag_conjugate(phase, A) -> np.ndarray:
    """diag(phase) A diag(phase)*, without forming the diagonal matrices;
    for a stack of phases (S, d) and of matrices (S, d, d), member by
    member."""
    return (phase[..., :, None] * A) * np.conj(phase)[..., None, :]


def circulant(c, k: int = None) -> np.ndarray:
    """Leading k x k block (the whole matrix by default) of the circulant
    C[j, l] = c[(j - l) mod n], n = len(c); for a stack of generators
    (S, n), the stack of their blocks (S, k, k).

    A function of a generator diagonal in the DFT basis, with values s on
    the frequencies in FFT order, is circulant(ifft(s)); the grid and
    lattice models build every such operator, or its compression to
    consecutive basis vectors, through it.  The block is Toeplitz, so its
    rows are the reversed windows of length k over c[(k-1, ..., 1-k) mod
    n], copied out of one vector of 2k - 1 entries.
    """
    c = np.asarray(c)
    n = c.shape[-1]
    k = n if k is None else k
    if not 1 <= k <= n:
        raise ValueError(f"block size k must lie in [1, {n}], got {k}")
    v = c[..., np.arange(k - 1, -k, -1) % n]
    return np.lib.stride_tricks.sliding_window_view(
        v, k, axis=-1)[..., ::-1, :].copy()


@dataclass(frozen=True, eq=False)
class Defect:
    """The norm of a defect operator, or of each member of a stack of
    them, as a certified bound and a deferred dense value.

    ``bound`` holds one certified upper bound per member, inf where there
    is none; ``dense(members)`` forms the dense defects of the members at
    the given indices as one stack of ``size`` x ``size`` matrices.

    ``norm(tol)`` is the one place where a bound meets a tolerance.  A
    member reads its bound when that is at most tol, and otherwise the SVD
    norm of its dense defect, so a failure shows the dense value; all
    refused members are formed as one stack under one SVD call.  A stack
    of more than ``DENSE_BUDGET`` elements is never formed: every member
    then reads its bound, and the check fails on a bound above tol.
    """

    bound: np.ndarray
    dense: Callable[[np.ndarray], np.ndarray]
    size: int

    def norm(self, tol: float) -> tuple:
        """(value, certified) of the first member with the largest value,
        certified when the value is the member's bound."""
        value = self.bound
        certified = value <= tol
        if not certified.all():                 # a NaN bound is refused too
            refused = np.flatnonzero(~certified)
            if len(refused) * self.size ** 2 > DENSE_BUDGET:
                return float(value.max()), True
            value = value.copy()
            value[refused] = opnorm(self.dense(refused))
        i = int(np.argmax(value))
        return float(value[i]), bool(certified[i])


@dataclass(frozen=True, eq=False)
class ToeplitzBlock:
    """The leading k x k block of circulant(c), kept as its generator c;
    or, for a generator of shape (S, n), the stack of the S blocks of its
    rows.

    The block compresses the circulant C(c), which is normal with
    eigenvalues lam = fft(c).  So ||block|| <= max|lam| (Gray, *Toeplitz
    and Circulant Matrices: A Review*, 2006).  The bound is widened by
    5 log2(n) eps sqrt(n) ||c||_2, which bounds the rounding of every
    computed FFT value (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Ch. 24), so it holds for the exact block of the stored
    generator.  It leaves out the rounding of forming the dense block, and
    can sit below the SVD norm of ``dense()``.

    A stack is bounded from one FFT along its rows: the bound is then an
    array with one value per member, where a single block gives a float,
    and a member reads the value it reads as a single block, bit for bit.
    """

    c: np.ndarray
    k: int

    def dense(self) -> np.ndarray:
        """The matrix (k, k), or the stack of the members' (S, k, k)."""
        return circulant(self.c, self.k)

    def _spectrum(self):
        """fft(c) along the rows and the allowance of each member's
        values."""
        n = self.c.shape[-1]
        rounding = (5 * max(1.0, np.log2(n)) * np.finfo(float).eps
                    * np.sqrt(n) * np.linalg.norm(self.c, axis=-1))
        return np.fft.fft(self.c, axis=-1), rounding

    def norm_bound(self):
        lam, rounding = self._spectrum()
        return np.abs(lam).max(axis=-1) + rounding

    def as_defect(self) -> "Defect":
        """The norm of this block, or of each member, as a ``Defect``: the
        bound ``norm_bound()``, and the dense blocks of the members."""
        c = np.atleast_2d(self.c)
        return Defect(np.atleast_1d(self.norm_bound()),
                      lambda members: circulant(c[members], self.k), self.k)


def geometric_deviation(phase) -> tuple:
    """(deviation, allowance) of a phase vector from the geometric
    sequence q_j = phase_0 e^{iaj} and from modulus 1; for a stack of
    phases (S, k), one deviation per row in an array.

    The step a is the angle of phase_1 phase_0*, refined over the whole
    vector by the angle of phase_{k-1} phase_0* e^{-ia(k-1)} / (k - 1), so
    that the rounding of a does not grow along j.  The deviation bounds
    max_j |phase_j - q_j| and max_j ||phase_j| - 1| for that a: the
    computed gap to q, plus eps (|a| (k - 1) / 2 + 4) for the rounding of
    computing q, plus ||phase_0| - 1| (|q_j| = |phase_0|).  The allowance
    is 64 k eps for k entries.  The phases the three models compute as
    e^{i(a j + b)} with |a| <= pi, as ``lattice_phase`` reduces its angle,
    deviate by at most about 3 k eps; the rounding of an angle a j grows
    with |a|: a step of 100 deviates by about 40 k eps, and one beyond
    about 200 is refused.  A phase flipped in sign at one site deviates
    by 2.
    """
    phase = np.asarray(phase, dtype=complex)
    k, eps = phase.shape[-1], np.finfo(float).eps
    # one phase is a stack of one: numpy rounds a complex product of
    # scalars unlike one of arrays, so every value here stays an array
    rows = phase.reshape(-1, k)
    first = rows[:, :1]
    deviation = np.abs(np.abs(first[:, 0]) - 1.0)
    if k > 1:
        back = np.conj(first[:, 0])
        a = np.angle(rows[:, 1] * back)
        a = a + np.angle(rows[:, -1] * back
                         * np.exp(-1j * a * (k - 1))) / (k - 1)
        gap = np.abs(rows - first * np.exp(
            1j * a[:, None] * np.arange(k))).max(axis=-1)
        deviation = deviation + (gap + eps * (np.abs(a) * (k - 1) / 2 + 4))
    allowance = 64 * k * eps
    return (float(deviation[0]) if phase.ndim == 1 else deviation), allowance


def lattice_phase(s, sites, period) -> np.ndarray:
    """e^{i s x_j} over the sites x_j, one row per s of the sequence s
    (a number is a sequence of one), each s reduced to [-period/2,
    period/2] by ``math.remainder``.

    The sites are multiples of 2 pi / period, so the phase is periodic in
    s, and the reduction, which is exact, leaves an s already in range
    unchanged.  Without it the rounding of an angle s x_j would grow with
    |s| past the allowance of ``geometric_deviation``.  A shift that is
    not finite is refused by name.
    """
    reduced = [math.remainder(x, period) for x in
               np.atleast_1d(require_finite(s, "shift")).tolist()]
    return np.exp(1j * np.multiply.outer(reduced, sites))


def shift_covariance(phase, effects, regions, targets, flow=None) -> Defect:
    """The covariance defects diag(phase_i) E_i diag(phase_i)* - E'_i of a
    stack of draws, as a ``Defect`` with one member per draw: E_i the
    effect of regions[i], E'_i that of targets[i], the moved region.

    ``effects`` maps a sequence of regions to the stack of their effects,
    Toeplitz blocks of one size k, and is called once, on regions +
    targets; ``phase`` has one row of k entries per draw.  The identity is
    exact when the move maps the grid onto itself; otherwise the
    interpolation error shows in the defect.

    For a geometric phase_j = e^{i(aj + b)}, entry (j, l) of the defect is
    e^{ia(j-l)} c_{j-l} - c'_{j-l}, so the defect is Toeplitz.  Its
    generator holds that value at each signed offset |r| < k, read off the
    first column and row as the dense formula rounds them, in a circulant
    of length max(n, 2k), n the effects' generator length, where no two
    offsets share an entry; the entries no offset uses are 0.  A phase
    within delta of some geometric q_j = phase_0 e^{iaj}
    (``geometric_deviation``) moves entry (j, l) of the dense defect off
    the generator's value by c_r (phase_j phase_l* - phase_r phase_0*),
    r = j - l, which q makes 0, so by at most 3 delta (1 + delta) |c_r|.
    By the Schur test that difference has norm at most 3 delta (1 + delta)
    sum_{|r| < k} |c_r|, and each entry of c serves at most
    ceil((2k - 1) / n) offsets: the bound is the generator's FFT norm
    bound (``ToeplitzBlock.norm_bound``) widened by that slack, so it
    covers the dense defect of the phase as given, not only of q.  A draw
    whose phase deviates by more than the rounding allowance, as a phase
    flipped in sign at one site does, has no Toeplitz defect: its bound is
    inf, and only its dense defect decides.

    A dense defect conjugates E_i by phase_i, or applies flow(i, E_i), the
    caller's own dense flow of draw i, when ``flow`` is given.
    """
    if not len(regions):
        raise ValueError("a covariance check needs at least one draw")
    both = effects(list(regions) + list(targets))
    k, c = both.k, both.c[:len(regions)]
    other, n = both.c[len(regions):], c.shape[-1]
    m = max(n, 2 * k)
    deviation, allowance = geometric_deviation(phase)
    first = phase[:, :1]
    g = np.zeros((len(c), m), dtype=complex)
    g[:, :k] = phase * c[:, :k] * np.conj(first) - other[:, :k]
    # the offsets -r, 0 < r < k, at m - r: r runs down along the slices
    g[:, m - k + 1:] = (first * c[:, n - k + 1:] * np.conj(phase[:, :0:-1])
                        - other[:, n - k + 1:])
    slack = (3 * deviation * (1 + deviation) * -(-(2 * k - 1) // n)
             * np.abs(c).sum(axis=-1))
    lam, rounding = ToeplitzBlock(g, k)._spectrum()
    bound = np.where(deviation <= allowance,      # a NaN is refused too
                     np.abs(lam).max(axis=-1) + (rounding + slack), np.inf)

    def dense(members):
        E = circulant(c[members], k)
        moved = (diag_conjugate(phase[members], E) if flow is None
                 else np.stack([flow(i, X) for i, X in zip(members, E)]))
        return moved - circulant(other[members], k)

    return Defect(bound, dense, k)


@dataclass(frozen=True, eq=False)
class ThermalModel:
    """One of the three thermal systems: a flow with a lattice spectrum
    and the effects, compressed from a PVM, that it moves covariantly.

    ``sites`` is the flow generator's spectrum on the effects' basis, its
    sign folded in so that the flow by s is diag(e^{is sites}): -n for
    the oscillator's rotation e^{-isN} (period 2 pi), -xi for the Hardy
    modes' translation e^{-is|D|}, s = beta t (period L), +u for the
    lattice's translation e^{isP} on the sites u >= 0 (period 2 pi /
    delta).  The sites are multiples of 2 pi / ``period``, so
    ``lattice_phase`` reduces s modulo ``period``.  ``effects`` maps any
    sequence of regions to the stack of their Toeplitz effects: a region
    moved off the grid is sampled, and its interpolation error shows.
    """

    sites: np.ndarray
    period: float
    effects: Callable

    def covariance(self, s, B) -> Defect:
        """The defects diag(e^{is sites}) E_R diag(e^{is sites})* - E_{R+s}
        of a shift s and region B, or of equal-length sequences of them,
        from one ``shift_covariance`` call; exact when the move maps the
        grid onto itself (every rotation, a grid shift of an aligned B)."""
        regions, s = region_list(B)[0], np.atleast_1d(s)
        if len(s) != len(regions):
            raise ValueError(f"shifts and regions need one entry per draw, "
                             f"got {len(s)} and {len(regions)}")
        return shift_covariance(lattice_phase(s, self.sites, self.period),
                                self.effects, regions,
                                [R.shifted(x) for R, x in zip(regions, s)])


def partition_defect(blocks: ToeplitzBlock) -> Defect:
    """The sum of a stack of Toeplitz blocks, the effects of a partition,
    minus I, as the ``Defect`` of one block: the generators add, member
    after member, and I is the block of the unit generator, so its dense
    form is the dense sum minus I entry for entry."""
    g = blocks.c.sum(axis=0)
    g[0] -= 1.0
    return ToeplitzBlock(g, blocks.k).as_defect()


def sampled_indicator(B, points, k: int, sign: int) -> ToeplitzBlock:
    """The leading k x k block of the circulant with generator c_r = (1/n)
    sum_p 1_B(x_p) e^{sign 2 pi i p r / n} over the n ``points``; for a
    sequence of regions, the stack of theirs from one FFT along the rows.
    sign -1, fft(v)/n, is 1_B(X) on Fourier modes (the relativistic
    effect); +1, conj(fft(v))/n, the inverse DFT of the real samples v, is
    the multiplier 1_B(Q) on lattice sites, its points in FFT order."""
    regions, one = region_list(B)
    c = np.fft.fft([R.indicator(points) for R in regions], axis=-1)
    c = (c if sign < 0 else np.conj(c)) / len(points)
    return ToeplitzBlock(c[0] if one else c, k)


def sqrtm_psd(A) -> np.ndarray:
    """Hermitian square root of a positive semidefinite operator, or the
    stack of roots of a stack (k, d, d) from one ``herm_spectrum``.

    Eigenvalues in [-NUMERIC_TOL, 0) (relative) are clipped to zero;
    anything below is a genuine negativity and is rejected, naming the
    first such member of a stack.
    """
    lam, V = herm_spectrum(A, NUMERIC_TOL)
    one = lam.ndim == 1
    low = lam[..., 0] < -NUMERIC_TOL * np.maximum(1.0, abs(lam).max(axis=-1))
    if low.any():
        i = int(np.argmax(low))
        where = "" if one else f" {i} of the stack"
        raise ValueError(f"operator{where} not positive (min eigenvalue "
                         f"{np.atleast_2d(lam)[i, 0]:.3e})")
    root = np.sqrt(np.clip(lam, 0.0, None))
    return (V * root[..., None, :]) @ adjoint(V)


def imag_power(A, t: float) -> np.ndarray:
    """A^{it} for positive definite A, via the functional calculus."""
    return spectral_power(herm_spectrum(A), 1j * t)


def spectral_power(spectrum, p: complex) -> np.ndarray:
    """A^p = V e^{p log lam} V* from the pair (eigenvalues, eigenvectors)
    of ``herm_spectrum``, for a caller that raises one A to many powers;
    an eigenvalue at or below 0 and a power that is not finite are
    refused."""
    lam, V = spectrum
    require_finite(p, "power p")
    if lam.min() <= 0:
        raise ValueError("powers need a positive definite operator "
                         f"(min eigenvalue {lam.min():.3e})")
    return (V * np.exp(p * np.log(lam))) @ adjoint(V)
