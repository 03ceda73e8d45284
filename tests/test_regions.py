import math

import pytest

from povmlab.regions import RegionSet, circle_full, equal_partition


def test_normalization_wraps_and_splits():
    B = RegionSet.circle([(3.0, 4.0)])          # crosses pi
    assert len(B.cells) == 2
    assert abs(B.measure - 1.0) < 1e-12


def test_overlap_rejected():
    with pytest.raises(ValueError):
        RegionSet.circle([(0.0, 1.0), (0.5, 1.5)])


def test_full_domain_shortcut():
    B = RegionSet.circle([(0.0, 2 * math.pi)])
    assert B.cells == ((-math.pi, math.pi),)


def test_shift_preserves_measure():
    B = RegionSet.circle([(-1.0, 0.5), (1.0, 2.0)])
    for t in (0.3, -2.7, 5.0):
        assert abs(B.shifted(t).measure - B.measure) < 1e-12


def test_rotation_moves_points():
    B = RegionSet.circle([(0.0, 1.0)])
    C = B.shifted(0.5)
    assert C.contains(1.2)
    assert not C.contains(0.2)


def test_contains_half_open():
    B = RegionSet.line([(1.0, 2.0)], length=8.0)
    assert B.contains(1.0)
    assert not B.contains(2.0)


def test_equal_partition_covers_disjointly():
    parts = equal_partition(circle_full(), 5)
    assert abs(sum(p.measure for p in parts) - 2 * math.pi) < 1e-12
    # every point of a sample grid belongs to exactly one cell
    for x in [-3.0, -1.0, 0.0, 1.3, 3.1]:
        assert sum(p.contains(x) for p in parts) == 1


def test_is_aligned():
    B = RegionSet.line([(2.0, 6.0)], length=16.0)
    assert B.is_aligned(2.0)
    assert not B.is_aligned(3.0)


def test_line_base_offset():
    B = RegionSet.line([(-2.0, -1.0)], length=8.0, base=-4.0)
    assert B.cells == ((-2.0, -1.0),)
    assert B.shifted(8.0).cells == ((-2.0, -1.0),)
