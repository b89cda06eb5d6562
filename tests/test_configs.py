"""Point configuration construction, generators, and JSON round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagata.configs import (
    PointConfig,
    generic_points,
    grid_points,
    make_config,
    two_point_example,
)


def test_generic_single_point_in_range():
    cfg = generic_points(2, 1, seed=0)
    assert cfg.r == 1
    assert all(abs(x) <= 1000 for x in cfg.points[0])


def test_generic_points_distinct_and_deterministic():
    a = generic_points(2, 9, seed=7)
    b = generic_points(2, 9, seed=7)
    assert a == b
    assert len(set(a.points)) == 9
    c = generic_points(2, 9, seed=8)
    assert c != a


def test_generic_points_bound_too_small():
    with pytest.raises(ValueError):
        generic_points(2, 10, seed=0, bound=15)


def test_grid_points_enumeration():
    g = grid_points(2, 2)
    assert set(g.points) == {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    }
    assert grid_points(1, 3).points == ((Fraction(0),), (Fraction(1),), (Fraction(2),))
    assert grid_points(2, 4).r == 16


def test_two_point_example():
    cfg = two_point_example()
    assert cfg.dimension == 2
    assert cfg.r == 2
    assert set(cfg.points) == {
        (Fraction(1, 2), Fraction(0)),
        (Fraction(-1, 2), Fraction(0)),
    }


def test_validation_rejects_duplicates_and_bad_mults():
    with pytest.raises(ValueError):
        make_config([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        make_config([[0, 0], [1, 1]], multiplicities=[1])
    with pytest.raises(ValueError):
        make_config([[0, 0]], multiplicities=[0])
    with pytest.raises(ValueError):
        make_config([])


@pytest.mark.parametrize("mults", [[1.5, 2], [True, 2], [2.0, 1], ["2", 1]])
def test_multiplicities_must_be_integers(mults):
    with pytest.raises(TypeError, match=f"multiplicities must be an integer, got {mults[0]!r}"):
        make_config([[0, 0], [1, 1]], multiplicities=mults)


@pytest.mark.parametrize("dimension", [2.5, 2.0, True, "2"])
def test_json_dimension_must_be_an_integer(dimension):
    d = {"dimension": dimension, "points": [["0", "0"]]}
    with pytest.raises(TypeError, match=f"dimension must be an integer, got {dimension!r}"):
        PointConfig.from_json_dict(d)


def test_integral_numpy_scalars_are_stored_as_ints():
    import numpy as np

    cfg = make_config([[0], [1]], multiplicities=[np.int64(2), 1])
    assert cfg.multiplicities == (2, 1) and type(cfg.multiplicities[0]) is int
    assert PointConfig(np.int64(1), cfg.points).dimension == 1


def test_scaled_and_drop_point():
    cfg = two_point_example()
    s = cfg.scaled(Fraction(1, 10))
    assert s.points[0] == (Fraction(1, 20), Fraction(0))
    with pytest.raises(ValueError):
        cfg.scaled(0)
    d = cfg.drop_point(0)
    assert d.r == 1 and d.points[0] == (Fraction(-1, 2), Fraction(0))
    # an index outside 0..r-1 is refused, not read as a slice or from the end
    cfg = generic_points(2, 3, 1)
    for index in (3, 5, -1):
        with pytest.raises(IndexError, match=rf"index {index} outside 0\.\.2 \(r = 3\)"):
            cfg.drop_point(index)
    assert cfg.drop_point(2).points == cfg.points[:2]


def test_json_round_trip_simple():
    cfg = make_config([["1/2", 0], ["-1/2", "3/7"]], multiplicities=[1, 2],
                      label="demo", seed=5)
    back = PointConfig.from_json(cfg.to_json())
    assert back == cfg


fracs = st.fractions(
    min_value=-100, max_value=100, max_denominator=997
)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(fracs, fracs), min_size=1, max_size=6, unique=True))
def test_json_round_trip_exact(points):
    cfg = make_config(points, label="fuzz")
    assert PointConfig.from_json(cfg.to_json()) == cfg


def test_max_norms():
    cfg = make_config([[3, 4], [0, 1]])
    assert cfg.max_norm_squared() == 25
    assert cfg.max_sup_norm() == 4
