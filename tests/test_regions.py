import math

import numpy as np
import pytest

from povmlab.regions import (_EPS, RegionSet, check_aligned, circle_full,
                             equal_partition, grid_steps)


def measure(B: RegionSet) -> float:
    """The length of a region: the sum of its cells' lengths."""
    return sum(b - a for a, b in B.cells)


def test_normalization_wraps_and_splits():
    B = RegionSet.circle([(3.0, 4.0)])          # crosses pi
    assert len(B.cells) == 2
    assert abs(measure(B) - 1.0) < 1e-12


def test_overlap_rejected():
    with pytest.raises(ValueError):
        RegionSet.circle([(0.0, 1.0), (0.5, 1.5)])


def test_full_domain_shortcut():
    B = RegionSet.circle([(0.0, 2 * math.pi)])
    assert B.cells == ((-math.pi, math.pi),)


def test_shift_preserves_measure():
    B = RegionSet.circle([(-1.0, 0.5), (1.0, 2.0)])
    for t in (0.3, -2.7, 5.0):
        assert abs(measure(B.shifted(t)) - measure(B)) < 1e-12


def test_rotation_moves_points():
    B = RegionSet.circle([(0.0, 1.0)])
    C = B.shifted(0.5)
    assert list(C.indicator([1.2, 0.2])) == [1.0, 0.0]


def test_contains_half_open():
    B = RegionSet.line([(1.0, 2.0)], length=8.0)
    assert list(B.indicator([1.0, 2.0])) == [1.0, 0.0]


def test_equal_partition_covers_disjointly():
    parts = equal_partition(circle_full(), 5)
    assert abs(sum(measure(p) for p in parts) - 2 * math.pi) < 1e-12
    # every point of a sample grid belongs to exactly one cell
    xs = [-3.0, -1.0, 0.0, 1.3, 3.1]
    assert np.array_equal(sum(p.indicator(xs) for p in parts), np.ones(5))


@pytest.mark.parametrize("x, h, steps", [
    (6.0, 2.0, 3), (0.0, 0.1, 0), (-0.3, 0.1, -3), (0.7, 0.1, 7),
    (2 * math.pi, math.pi / 8, 16), ((5 + 1e-10) * 0.25, 0.25, 5),
    ((-5 - 1e-10) * 0.25, 0.25, -5)])
def test_grid_steps_of_a_multiple(x, h, steps):
    # within 1e-9 steps of an integer counts as on the grid
    n = grid_steps(x, h, "x must be a multiple of h")
    assert n == steps and type(n) is int


@pytest.mark.parametrize("x", [(5 + 1e-8) * 0.25, (-5 - 1e-8) * 0.25, 0.1,
                               math.nan, math.inf, -math.inf])
def test_grid_steps_refuses_off_grid_and_non_finite(x):
    with pytest.raises(ValueError,
                       match=rf"^x must be a multiple of h, got {x!r}$"):
        grid_steps(x, 0.25, "x must be a multiple of h")


def test_check_aligned_refuses_an_off_grid_region():
    B = RegionSet.line([(2.0, 6.0)], length=16.0)
    check_aligned(B, 16.0, 2.0)
    check_aligned([B, RegionSet.line([], length=16.0)], 16.0, 2.0)
    with pytest.raises(ValueError, match="not aligned to the grid's cells, "
                                         "got 2.0"):
        check_aligned(B, 16.0, 3.0)
    with pytest.raises(ValueError, match="not aligned"):
        check_aligned([B, B.shifted(0.5)], 16.0, 2.0)


def test_line_base_offset():
    B = RegionSet.line([(-2.0, -1.0)], length=8.0, base=-4.0)
    assert B.cells == ((-2.0, -1.0),)
    assert B.shifted(8.0).cells == ((-2.0, -1.0),)


def scalar_contains(R, x):
    """The scalar membership rule ``indicator`` replaced, kept as its
    reference: reduce x into [base, base + period), wrap a point within
    _EPS below the window's end to its seam, and test the half-open cells
    with both ends moved down by _EPS."""
    lo = R.base
    x = lo + math.fmod(x - lo, R.period)
    if x < lo:
        x += R.period
    if x >= lo + R.period - _EPS:
        x -= R.period
    return any(a - _EPS <= x < b - _EPS for a, b in R.cells)


def probe_points(R):
    """The window's ends, every cell end and its neighbours at +-1e-13,
    their negatives, and their translates by up to 10 periods."""
    lo, per = R.base, R.period
    pts = [lo, lo + per - _EPS / 2]
    for a, b in R.cells:
        pts += [e + d for e in (a, b) for d in (-1e-13, 0.0, 1e-13)]
    pts += [-x for x in pts]
    return [x + j * per for x in pts for j in range(-10, 11)]


@pytest.mark.parametrize("R", [
    RegionSet.circle([(-1.0, 0.5), (1.0, 2.0)]),
    RegionSet.circle([(3.0, 4.0)]),                 # wraps through the seam
    RegionSet.circle([(-math.pi, -2.0), (2.5, math.pi)]),
    circle_full(),
    RegionSet.circle([]),
    RegionSet.line([(1.0, 2.0)], length=8.0),
    RegionSet.line([(0.0, 1.5), (6.0, 8.0)], length=8.0),
    RegionSet.line([(-2.0, -1.0), (1.0, 3.5)], length=8.0, base=-4.0),
    RegionSet.line([(0.3, 0.9)], length=2 * math.pi / 0.3, base=-math.pi / 0.3),
], ids=lambda R: f"{R.domain}{R.cells}")
def test_indicator_matches_scalar_rule(R):
    xs = probe_points(R)
    ind = R.indicator(xs)
    assert ind.dtype == float
    assert np.array_equal(ind, [float(scalar_contains(R, x)) for x in xs])
