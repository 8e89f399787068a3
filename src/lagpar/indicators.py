"""Indicators: named aggregations over data points.

An indicator is either a plain sum of its inputs or a ratio of two sums
(for example, total emissions over total investment value).  All arithmetic
is exact; results are Fractions, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .errors import InputError, MissingInputError, ZeroDenominatorError


class IndicatorKind(Enum):
    SUM = "sum"
    RATIO_OF_SUMS = "ratio_of_sums"


@dataclass(frozen=True)
class IndicatorDef:
    id: str
    kind: IndicatorKind
    numerator_inputs: tuple[str, ...]
    denominator_inputs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "numerator_inputs", tuple(self.numerator_inputs))
        object.__setattr__(self, "denominator_inputs", tuple(self.denominator_inputs))
        if self.kind is IndicatorKind.SUM and self.denominator_inputs:
            raise InputError(f"sum indicator {self.id!r} must not name denominator inputs")


def _gather(refs: tuple[str, ...], values: Mapping[str, Fraction]) -> Fraction:
    missing = [r for r in refs if r not in values]
    if missing:
        raise MissingInputError(f"missing data points: {missing}")
    return sum((Fraction(values[r]) for r in refs), Fraction(0))


def compute_indicator(defn: IndicatorDef, values: Mapping[str, Fraction]) -> Fraction:
    """Aggregate the referenced data points per the indicator's kind, exactly."""
    numerator = _gather(defn.numerator_inputs, values)
    if defn.kind is IndicatorKind.SUM:
        return numerator
    denominator = _gather(defn.denominator_inputs, values)
    if denominator == 0:
        raise ZeroDenominatorError(f"denominator of {defn.id!r} sums to zero")
    return numerator / denominator
