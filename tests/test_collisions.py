from math import comb

import pytest

from fatpoints.collisions import (
    collision1_check,
    indip_check,
    limit_multiplicity_check,
)

P = 32003


@pytest.mark.parametrize(
    "n,d,dim",
    [(2, 4, 5), (2, 5, 11), (3, 3, 3), (3, 4, 18), (4, 4, 44), (5, 5, 215)],
)
def test_collision_limit_matches_generic_dimension(n, d, dim):
    rep = collision1_check(n, d, P, 0)
    assert rep.dims_equal
    assert rep.generic_dim == dim
    assert rep.limit_dim == dim
    assert rep.h == n + 1
    assert rep.limit_multiplicity == 3
    assert rep.direction_count == comb(n + 1, 2)
    assert rep.degree_identity_ok


def test_collision_check_cross_prime_and_determinism():
    a = collision1_check(3, 4, P, 0)
    assert collision1_check(3, 4, P, 0) == a
    b = collision1_check(3, 4, 65521, 3)
    assert b.dims_equal and b.generic_dim == a.generic_dim


def test_collision_check_guards():
    with pytest.raises(ValueError):
        collision1_check(1, 4, P, 0)
    with pytest.raises(ValueError):
        collision1_check(3, 2, P, 0)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("prime", [32003, 65521])
def test_chord_traces_independent_but_collinear(n, prime):
    rep = indip_check(n, prime, 0)
    assert rep.points == comb(n + 1, 2)
    assert rep.quadric_rank == comb(n + 1, 2)
    assert rep.independent
    assert rep.all_triples_collinear
    assert rep.resampled == 0


def test_chord_traces_larger_n():
    for n in (7, 8):
        rep = indip_check(n, P, 0)
        assert rep.independent and rep.all_triples_collinear


def test_indip_guard():
    with pytest.raises(ValueError):
        indip_check(1, P, 0)


def test_limit_multiplicity_exact_cases():
    rep = limit_multiplicity_check(2, 7, 7)
    assert (rep.mu, rep.double_length, rep.point_length) == (6, 21, 21)
    assert rep.exact
    assert rep.doubles_dim == 14
    assert rep.fat_point_dim == 14
    assert rep.deeper_point_dim == 7
    assert rep.within_bounds

    rep = limit_multiplicity_check(3, 4, 5)
    assert (rep.mu, rep.double_length, rep.point_length) == (4, 20, 20)
    assert rep.exact
    assert rep.doubles_dim == rep.fat_point_dim == 14
    assert rep.deeper_point_dim <= rep.doubles_dim


def test_limit_multiplicity_strict_case():
    rep = limit_multiplicity_check(2, 3, 3)
    assert (rep.mu, rep.double_length, rep.point_length) == (3, 9, 6)
    assert not rep.exact
    assert rep.doubles_dim == 0
    assert rep.fat_point_dim == 3  # the limit strictly contains the triple point
    assert rep.deeper_point_dim <= rep.doubles_dim
    assert rep.within_bounds
