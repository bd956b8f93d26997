"""Probability that a random permutation reproduces one fixed arrangement.

A loop of n distinct members admits n! linear arrangements, so the chance
of hitting any single one by coincidence is 1/n!.
"""

from __future__ import annotations

import math

from .model import SynapperError, _Value, _set

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

# Largest n accepted. n! must print in full, and Python 3.11 refuses to turn
# an int of more than 4,300 digits into text; 1,000! has 2,568 digits.
MAX_MEMBERS = 1000


class NTooSmallError(SynapperError):
    """A loop needs at least two members for the question to make sense."""


class ChanceProbability(_Value):
    __slots__ = __match_args__ = ("n", "probability", "denominator")
    n: int
    probability: float
    denominator: int

    def __init__(self, n: int, probability: float, denominator: int) -> None:
        _set(self, "n", n)
        _set(self, "probability", probability)
        _set(self, "denominator", denominator)

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(1, self.denominator)


def chance_probability(n: int) -> ChanceProbability:
    if n < 2:
        raise NTooSmallError(f"need at least 2 members, got {n}")
    if n > MAX_MEMBERS:
        raise SynapperError(f"n must be at most {MAX_MEMBERS}, got {n}")
    denominator = math.factorial(n)
    return ChanceProbability(n=n, probability=1 / denominator, denominator=denominator)
