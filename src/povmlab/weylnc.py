"""Log-frequency (Mellin) lattice model of the dilation-group calculus.

In the coordinate u = ln|xi| the dilation group becomes the translation
group and ln|D| becomes multiplication by u.  The lattice models the
u-picture directly on a circle of circumference m*delta.  The sign of the
original frequency splits the space into two channels carrying the same
operator, so operators live on one channel (every operator norm is the
same) while symbols keep a principal part per channel.  e^{isP} is kept
as its diagonal, the shift S(t) for t in delta*Z as the columns of its
permutation (so the Weyl defect on the lattice is kept as its m
nonzeros), a quantized symbol as its shift diagonals (so the
conjugation defect is bounded without an m x m operator), and the
spectral projections 1_B(Q), diagonal in the dual (DFT) basis, are
circulants kept as their generators, whose leading blocks are the
half-line effects; ``thermal_model`` is the lattice's
``operators.ThermalModel``: the translations e^{itP} and those effects.
On aligned data the Weyl relation e^{isP} S(t) = e^{-ist} S(t) e^{isP},
the conjugation-shift identity for quantized symbols, and the covariance
of the half-line effects are exact; misaligned inputs report the
wrap-around defect.

Operator conventions.  S(t) shifts forward, (S(t)g)(u) = g(u + t), and
S(t) = e^{itQ}, so [Q, P] = -i; the symmetric (selfadjoint-for-real-
symbols) quantization is then

    a(Q, P) = sum_{jk} ahat_{jk} e^{i u_j v_k / 2} e^{i v_k P} e^{i u_j Q},

with u_j in delta*Z and v_k on the dual grid 2 pi / (m delta) * Z.
Conjugation by e^{itP} twists the coefficients by e^{-i t u_j}, i.e.
translates the symbol to a_t(x, xi) = a(x + t, xi).
"""

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .operators import (Defect, ThermalModel, ToeplitzBlock, diag_conjugate,
                        lattice_phase, sampled_indicator)
from .regions import (RegionSet, check_aligned, grid_steps, region_list,
                      require_finite, require_int)


@dataclass(frozen=True)
class MellinLattice:
    """m-point lattice u_j = u_min + j*delta on a circle of circumference
    m*delta: one of the two identical channels (+/- frequency sign)."""

    m: int
    delta: float
    u_min: float

    def __post_init__(self):
        if require_int(self.m, "lattice size m") < 8 or self.m % 2 != 0:
            raise ValueError("lattice size must be even and at least 8")
        if not 0 < self.delta < np.inf:
            raise ValueError(f"spacing delta must be finite and positive, "
                             f"got {self.delta!r}")
        grid_steps(self.u_min, self.delta, "u_min must be a multiple of delta")

    @property
    def circumference(self) -> float:
        return self.m * self.delta

    @cached_property
    def u(self) -> np.ndarray:
        return self.u_min + self.delta * np.arange(self.m)

    @property
    def dual_spacing(self) -> float:
        return 2 * np.pi / self.circumference

    @cached_property
    def q(self) -> np.ndarray:
        """Spectrum of the shift generator Q: dual grid 2 pi k / (m delta),
        k = -m/2 .. m/2 - 1, in ascending order."""
        k = np.arange(-self.m // 2, self.m // 2)
        return self.dual_spacing * k

    def shift_columns(self, t: float) -> np.ndarray:
        """Column of the one nonzero entry in each row of S(t), t in
        delta*Z: (S g)_l = g_{l+j} puts it at (l, (l + j) mod m)."""
        j = grid_steps(t, self.delta, "shift amount must be a lattice multiple")
        return (np.arange(self.m) + j % self.m) % self.m

    def shift(self, t: float) -> np.ndarray:
        """S(t) for t in delta*Z as a dense m x m permutation matrix."""
        S = np.zeros((self.m, self.m), dtype=complex)
        S[np.arange(self.m), self.shift_columns(t)] = 1.0
        return S

    def exp_P(self, s: float) -> np.ndarray:
        """e^{isP} = diag(e^{i s u_l}), returned as its diagonal."""
        return np.exp(1j * s * self.u)

    @cached_property
    def positive_sites(self) -> np.ndarray:
        """Indices of lattice sites with u_j >= 0 (closed half-line): a
        contiguous suffix of the increasing lattice, from the site
        j = -u_min / delta on, never empty."""
        first = max(0, -grid_steps(self.u_min, self.delta,
                                   "u_min must be a multiple of delta"))
        if first >= self.m:
            raise ValueError("lattice has no site with u >= 0")
        return np.arange(first, self.m)

    # symbol-side grids ---------------------------------------------------

    @property
    def x_length(self) -> float:
        """Circumference of the symbol's x-circle (dual of the u-lattice
        frequencies): 2 pi / delta."""
        return 2 * np.pi / self.delta

    @cached_property
    def x_grid(self) -> np.ndarray:
        return (self.x_length / self.m) * np.arange(self.m)

    def q_region(self, cells) -> RegionSet:
        """Region on the Q-spectral circle [-pi/delta, pi/delta)."""
        return RegionSet.line(cells, length=self.x_length,
                              base=-np.pi / self.delta)


def weyl_defect(lat: MellinLattice, s: float, t: float) -> tuple:
    """e^{isP} S(t) - e^{-ist} S(t) e^{isP} for t in delta*Z, as its m
    nonzeros: the pair (cols, vals) with the entry vals[l] at (l, cols[l]).
    The shift is a permutation, so the defect has no other entries.  An s
    that is not finite is refused."""
    require_finite(s, "exponent s")
    cols = lat.shift_columns(t)
    Es = lat.exp_P(s)
    return cols, Es - np.exp(-1j * s * t) * Es[cols]


def weyl_relation_residual(lat: MellinLattice, s: float, t: float) -> float:
    """|| e^{isP} S(t) - e^{-ist} S(t) e^{isP} || for t in delta*Z, with
    S(t) the exact shift; a t off the lattice is refused with a
    ``ValueError``, as ``weyl_defect`` refuses it.

    Exact (rounding-level) for s on the dual grid; generic s reports the
    wrap-around boundary defect.  On the lattice the defect has one nonzero
    per row and column, so its norm is the largest modulus among them.
    """
    return float(np.abs(weyl_defect(lat, s, t)[1]).max())


@dataclass
class SymbolRep:
    """Band-limited symbol: Fourier coefficients ahat over lattice-
    compatible frequencies plus principal-symbol samples per channel.

    ``coeffs`` maps integer pairs (j, k) to ahat at x-frequency u = j*delta
    and xi-frequency v = k * 2 pi / (m delta).  ``a0_pos`` / ``a0_neg``
    sample the principal symbol a0(x, +1) / a0(x, -1) on the x-grid.
    """

    coeffs: dict = field(default_factory=dict)
    a0_pos: np.ndarray = None
    a0_neg: np.ndarray = None

    def translated(self, lat: MellinLattice, t: float) -> "SymbolRep":
        """a_t(x, xi) = a(x + t, xi): coefficient twist e^{-i u_j t} and a
        circular roll of the principal samples (t must lie on the x-grid)."""
        r = grid_steps(t, lat.x_length / lat.m,
                       "translation must be a multiple of the x-grid spacing")
        coeffs = {(j, k): c * np.exp(-1j * j * lat.delta * t)
                  for (j, k), c in self.coeffs.items()}
        roll = lambda a: None if a is None else np.roll(a, -r)
        return SymbolRep(coeffs=coeffs, a0_pos=roll(self.a0_pos),
                         a0_neg=roll(self.a0_neg))


def _shift_diagonals(lat: MellinLattice, a: SymbolRep) -> dict:
    """Weyl quantization of one channel kept as its shift diagonals: a map
    from offset j mod m to the vector whose entry l sits at (l, (l + j) mod
    m).  Each term e^{ivP} S(u) is a weighted permutation on one diagonal,
    added in coefficient order (j = +/- m/2 share one)."""
    diags = {}
    nyq = lat.m // 2
    for (j, k), c in a.coeffs.items():
        if abs(j) > nyq or abs(k) > nyq:
            raise ValueError(f"coefficient ({j}, {k}) beyond the lattice "
                             "Nyquist bounds")
        u = j * lat.delta
        v = k * lat.dual_spacing
        d = diags.setdefault(j % lat.m, np.zeros(lat.m, dtype=complex))
        d += c * np.exp(0.5j * u * v) * lat.exp_P(v)
    return diags


def quantize(lat: MellinLattice, a: SymbolRep) -> np.ndarray:
    """Weyl quantization on the lattice: the m x m operator of one channel
    (both channels carry the same one), the dense scatter of its shift
    diagonals."""
    O = np.zeros((lat.m, lat.m), dtype=complex)
    rows = np.arange(lat.m)
    for j, d in _shift_diagonals(lat, a).items():
        O[rows, (rows + j) % lat.m] = d
    return O


def _principal_integral(a: SymbolRep, x_length: float, f) -> float:
    """0.5 * int (f(a0(x,1)) + f(a0(x,-1))) dx by the rectangle rule, exact
    for band-limited periodic integrands."""
    if a.a0_pos is None or a.a0_neg is None:
        raise ValueError("principal symbol samples are required")
    dx = x_length / len(a.a0_pos)
    return 0.5 * dx * (np.sum(f(a.a0_pos)) + np.sum(f(a.a0_neg)))


def nc_integral(a: SymbolRep, x_length: float) -> float:
    """Noncommutative integral 0.5 * int (a0(x,1) + a0(x,-1)) dx."""
    return float(_principal_integral(a, x_length, np.real))


def htau_norm(a: SymbolRep, x_length: float) -> float:
    """Norm in the trace inner product at symbol level:
    sqrt(0.5 * int (a0(x,1)^2 + a0(x,-1)^2) dx)."""
    return float(np.sqrt(_principal_integral(
        a, x_length, lambda x: np.abs(x) ** 2)))


def indicator_Q(lat: MellinLattice, B, k: int = None) -> ToeplitzBlock:
    """1_B(Q) on one channel, a projection finitely additive in B, or its
    leading k x k block, kept as its generator (``sampled_indicator``);
    k = len(lat.positive_sites) compresses it to the sites u >= 0, a
    suffix of the lattice.  For a sequence of regions, the stack.  Each
    region must live on the Q-spectral circle, of period ``x_length``."""
    if any(abs(R.period - lat.x_length) > 1e-9 for R in region_list(B)[0]):
        raise ValueError("region must live on the Q-spectral circle")
    return sampled_indicator(B, np.fft.ifftshift(lat.q),
                             lat.m if k is None else k, 1)


def nc_effect(lat: MellinLattice, B) -> ToeplitzBlock:
    """Effect 1_{R+}(P) 1_B(Q) 1_{R+}(P) compressed to the range of the
    half-line projection, on one channel (both carry the same effect):
    the leading block of the circulant 1_B(Q) on the sites u >= 0, a
    ``ToeplitzBlock``; for a sequence of regions, the stack of their
    effects.  B must lie on the Q-spectral circle, aligned to its cells
    [q_k, q_k + dual_spacing).
    """
    check_aligned(B, lat.x_length, lat.dual_spacing)
    return indicator_Q(lat, B, k=len(lat.positive_sites))


def thermal_model(lat: MellinLattice) -> ThermalModel:
    """The lattice as a ``ThermalModel``: the translation e^{itP} on the
    sites u >= 0, period 2 pi / delta, and the half-line effects."""
    return ThermalModel(lat.u[lat.positive_sites], lat.x_length,
                        partial(indicator_Q, lat, k=len(lat.positive_sites)))


def nc_covariance_residual(lat: MellinLattice, t: float,
                           B: RegionSet) -> Defect:
    """``ThermalModel.covariance`` of the aligned region B translated by
    t: e^{itP} E_B e^{-itP} - E_{B+t}."""
    check_aligned(B, lat.x_length, lat.dual_spacing)
    return thermal_model(lat).covariance(t, B)


def conjugation_residual(lat: MellinLattice, t: float, a: SymbolRep) -> Defect:
    """The defect e^{itP} a(Q,P) e^{-itP} - a_t(Q,P) with a_t: (x, xi) ->
    a(x + t, xi), as a ``Defect``; exact for t on the x-grid (= Q-dual
    lattice), the only t that ``SymbolRep.translated`` accepts: any other
    is refused with its ValueError.

    Conjugation by the diagonal e^{itP} keeps each shift diagonal, so the
    defect is a sum of weighted permutations, one per offset, and by the
    triangle inequality its norm is at most the sum over offsets of the
    largest modulus on each.  That sum, widened by the rounding of its own
    moduli and additions, is the bound; the dense defect is
    diag_conjugate(e^{itP}, quantize(a)) - quantize(a_t), whose entries the
    diagonals equal bit for bit.  e^{itP} is ``lattice_phase``'s with
    period 2 pi / delta.
    """
    at = a.translated(lat, t)
    phase = lattice_phase(t, lat.u, lat.x_length)[0]
    target = _shift_diagonals(lat, at)      # same offsets as a's
    rows, back = np.arange(lat.m), np.conj(phase)
    moduli = [np.abs((phase * d) * back[(rows + j) % lat.m] - target[j]).max()
              for j, d in _shift_diagonals(lat, a).items()]
    bound = float(sum(moduli)) * (1 + (len(moduli) + 2) * np.finfo(float).eps)
    return Defect(np.array([bound]), lambda _: (
        diag_conjugate(phase, quantize(lat, a)) - quantize(lat, at))[None],
        lat.m)
