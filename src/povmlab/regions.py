"""Measurable-set descriptors: finite unions of half-open intervals on a
circle (circumference 2*pi, angles in [-pi, pi)) or on a circular line
segment of length L.

Rotation and translation both act by adding t to every endpoint and
renormalising modulo the period, so they are measure preserving by
construction.

The input checks that every model shares live here too: ``require_int``
for counts and sizes, ``require_finite`` for times, angles and powers,
``require_entries`` for the sequences a check runs over, and
``grid_steps`` for every "multiple of the grid step" test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

CIRCLE = "circle"
LINE = "line"

_EPS = 1e-12


@dataclass(frozen=True)
class RegionSet:
    """Disjoint union of half-open cells [a, b) on a periodic domain.

    ``base`` is the left end of the canonical coordinate window
    [base, base + period).  Circle domains default to base = -pi,
    period = 2*pi; line domains to base = 0.
    """

    domain: str
    period: float
    cells: tuple = ()
    base: float = field(default=0.0)

    def __post_init__(self):
        if self.domain not in (CIRCLE, LINE):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        if not 0 < self.period < math.inf:
            raise ValueError(f"period must be finite and positive, "
                             f"got {self.period!r}")
        object.__setattr__(self, "cells", self._normalize(self.cells))

    def _normalize(self, cells):
        lo = self.base
        per = self.period
        out = []
        for a, b in cells:
            if not math.isfinite(a) or not math.isfinite(b):
                raise ValueError(f"cell end of [{a}, {b}) is not finite")
            length = b - a
            if length < -_EPS:
                raise ValueError(f"cell [{a}, {b}) has negative length")
            if length <= _EPS:
                continue
            if length >= per - _EPS:
                # full domain
                return ((lo, lo + per),)
            a = lo + math.fmod(a - lo, per)
            if a < lo - _EPS:
                a += per
            if a >= lo + per - _EPS:
                a -= per
            b = a + length
            if b > lo + per + _EPS:
                out.append((a, lo + per))
                out.append((lo, b - per))
            else:
                out.append((a, min(b, lo + per)))
        out.sort()
        for (a1, b1), (a2, b2) in zip(out, out[1:]):
            if a2 < b1 - 1e-9:
                raise ValueError(f"overlapping cells [{a1},{b1}) and [{a2},{b2})")
        return tuple(out)

    @classmethod
    def circle(cls, cells):
        return cls(domain=CIRCLE, period=2 * math.pi, cells=tuple(cells),
                   base=-math.pi)

    @classmethod
    def line(cls, cells, length, base=0.0):
        return cls(domain=LINE, period=length, cells=tuple(cells), base=base)

    def shifted(self, t: float) -> "RegionSet":
        """Translate (line) / rotate (circle) by t."""
        return RegionSet(domain=self.domain, period=self.period,
                         cells=tuple((a + t, b + t) for a, b in self.cells),
                         base=self.base)

    def indicator(self, xs) -> np.ndarray:
        """Indicator of the set (1.0 inside, 0.0 outside) at each point of
        ``xs``: each point is reduced into the window [base, base + period)
        and tested against the cells, with their ends moved down by _EPS."""
        lo = self.base
        x = lo + np.fmod(np.asarray(xs, dtype=float) - lo, self.period)
        x = np.where(x < lo, x + self.period, x)
        # a point within rounding below base wraps to the window's seam;
        # it belongs to the cell starting at base, as in _normalize
        x = np.where(x >= lo + self.period - _EPS, x - self.period, x)
        a, b = np.array(self.cells, dtype=float).reshape(-1, 2).T
        inside = (a - _EPS <= x[:, None]) & (x[:, None] < b - _EPS)
        return inside.any(axis=1).astype(float)


def require_int(value, name: str, least: int = None) -> int:
    """value as an int; a bool, a float and, with ``least``, an integer
    below it are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def require_finite(value, name: str):
    """value, a number or an array of them, refused by name unless every
    entry is finite."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_entries(entries, name: str):
    """entries, refused by name when it holds none: a check over no entry
    would compare nothing."""
    if not len(entries):
        raise ValueError(f"{name} must hold at least one entry")
    return entries


def grid_steps(x: float, h: float, message: str) -> int:
    """x / h as a whole number of grid steps h; a ratio that is not finite
    or lies more than 1e-9 steps off an integer is refused with
    ``message``."""
    r = x / h
    if not math.isfinite(r) or abs(r - round(r)) > 1e-9:
        raise ValueError(f"{message}, got {x!r}")
    return round(r)


def equal_partition(like: RegionSet, k: int):
    """Split the domain of ``like`` into k equal consecutive cells."""
    k = require_int(k, "cell count k", 1)
    w = like.period / k
    lo = like.base
    return [RegionSet(domain=like.domain, period=like.period,
                      cells=((lo + i * w, lo + (i + 1) * w),), base=like.base)
            for i in range(k)]


def circle_full() -> RegionSet:
    return RegionSet.circle([(-math.pi, math.pi)])


def region_list(B) -> tuple:
    """(the regions of B as a list, whether B is a single RegionSet): the
    model constructors take one region, or a sequence of them for a stack
    of effects."""
    if isinstance(B, RegionSet):
        return [B], True
    return list(B), False


def check_aligned(B, period: float, h: float):
    """Refuse B unless each of its regions lives on the line circle of
    this period, aligned to its cells of width h."""
    for R in region_list(B)[0]:
        if R.domain != LINE or abs(R.period - period) > 1e-9:
            raise ValueError("region must live on the grid's circle")
        for end in [x - R.base for cell in R.cells for x in cell]:
            grid_steps(end, h, "region is not aligned to the grid's cells")
