"""Rational charges for tests: from `Space.charges`' integer fields, and
from per-atom Fraction sums as the oracle they must equal."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class Rationals(NamedTuple):
    c: Fraction  # F_c, the slot-0 integral
    q: Fraction  # F_q, the slot-1 limit jump
    inf: Fraction  # the mean slot-1 limit
    minus: Fraction  # the slot-1 left limit
    plus: Fraction  # the slot-1 right limit


def _rationals(c, plus, minus) -> Rationals:
    return Rationals(c, plus - minus, (plus + minus) / 2, minus, plus)


def rationals(space, v) -> Rationals:
    """v's charges as rationals built from the integers Space.charges returns."""
    den, c, plus, minus = space.charges(v)
    return _rationals(Fraction(c, den), Fraction(plus, den), Fraction(minus, den))


def fraction_sums(space, v) -> Rationals:
    """v's charges summed atom by atom in Fractions: each slot-0 atom's
    integral and each slot-1 atom's limits, times its coefficient."""
    c = plus = minus = Fraction(0)
    for a, coeff in v.items():
        fn = space.atoms[a].fn
        if space.atoms[a].slot == 0:
            c += coeff * fn.integral
        else:
            plus += coeff * fn.right_limit
            minus += coeff * fn.left_limit
    return _rationals(c, plus, minus)
