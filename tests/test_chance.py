"""Coincidence probability of reproducing one arrangement of n members."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from synapper import ChanceProbability, NTooSmallError, SynapperError, chance_probability
from synapper.chance import MAX_MEMBERS
from conftest import check_value_semantics, replaced


def test_ten_member_loop_value():
    assert 2.755e-7 <= chance_probability(10).probability <= 2.756e-7


def test_fifteen_members_is_vanishingly_unlikely():
    assert chance_probability(15).probability < 8e-13


@pytest.mark.parametrize("n", range(2, 21))
def test_exact_rational_is_one_over_factorial(n):
    result = chance_probability(n)
    assert result.as_fraction() == Fraction(1, math.factorial(n))
    assert result.denominator == math.factorial(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_brute_force_permutation_oracle(n):
    """Count permutations matching one fixed target arrangement."""
    rng = random.Random(n)
    target = tuple(rng.sample(range(n), n))
    hits = sum(1 for perm in itertools.permutations(range(n)) if perm == target)
    total = math.factorial(n)
    assert Fraction(hits, total) == chance_probability(n).as_fraction()


def test_recurrence():
    for n in range(3, 15):
        assert chance_probability(n).as_fraction() == chance_probability(n - 1).as_fraction() / n


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_too_small(n):
    with pytest.raises(NTooSmallError):
        chance_probability(n)


def test_bound():
    assert chance_probability(MAX_MEMBERS).denominator == math.factorial(MAX_MEMBERS)
    with pytest.raises(SynapperError):
        chance_probability(MAX_MEMBERS + 1)


@given(st.integers(min_value=2, max_value=300))
def test_probability_matches_fraction_and_decreases(n):
    result = chance_probability(n)
    assert result.n == n
    assert result.probability == float(result.as_fraction())
    assert 0.0 <= result.probability <= 0.5
    if n > 2:
        assert result.as_fraction() < chance_probability(n - 1).as_fraction()


def test_result_is_an_immutable_value():
    result = chance_probability(3)
    check_value_semantics(
        result,
        ChanceProbability(n=3, probability=1 / 6, denominator=6),
        [replaced(result, n=4), replaced(result, probability=0.5), replaced(result, denominator=7)],
        "ChanceProbability(n=3, probability=0.16666666666666666, denominator=6)",
    )
