from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagpar import (
    IndicatorDef,
    IndicatorKind,
    InputError,
    MissingInputError,
    ZeroDenominatorError,
    compute_indicator,
)

F = Fraction

FOOTPRINT = IndicatorDef(
    id="carbon_footprint",
    kind=IndicatorKind.RATIO_OF_SUMS,
    numerator_inputs=("a", "b", "c"),
    denominator_inputs=("total",),
)
CARBON_VALUES = {"a": F(300), "b": F(400), "c": F(300), "total": F(3000)}


def sum_indicator(refs):
    return IndicatorDef(id="s", kind=IndicatorKind.SUM, numerator_inputs=tuple(refs))


def test_carbon_footprint_is_exactly_one_third():
    assert compute_indicator(FOOTPRINT, CARBON_VALUES) == F(1, 3)


def test_empty_sum_is_zero():
    assert compute_indicator(sum_indicator(()), {}) == 0


def test_small_sum():
    values = {"x": F(2), "y": F(3), "z": F(5)}
    assert compute_indicator(sum_indicator(("x", "y", "z")), values) == 10


def test_missing_reference():
    with pytest.raises(MissingInputError):
        compute_indicator(sum_indicator(("x", "y")), {"x": F(1)})


def test_zero_denominator():
    defn = IndicatorDef(
        id="r",
        kind=IndicatorKind.RATIO_OF_SUMS,
        numerator_inputs=("x",),
        denominator_inputs=("d1", "d2"),
    )
    with pytest.raises(ZeroDenominatorError):
        compute_indicator(defn, {"x": F(1), "d1": F(5), "d2": F(-5)})


def test_sum_kind_rejects_denominators():
    with pytest.raises(InputError):
        IndicatorDef(
            id="bad",
            kind=IndicatorKind.SUM,
            numerator_inputs=("x",),
            denominator_inputs=("y",),
        )


@given(
    st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=30), max_size=8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=50, deadline=None)
def test_sum_is_permutation_invariant(values, rng):
    refs = [f"r{i}" for i in range(len(values))]
    mapping = dict(zip(refs, values))
    shuffled = list(refs)
    rng.shuffle(shuffled)
    assert compute_indicator(sum_indicator(refs), mapping) == compute_indicator(
        sum_indicator(shuffled), mapping
    )


def test_integer_inputs_stay_exact():
    values = {"a": F(1), "b": F(2)}
    result = compute_indicator(sum_indicator(("a", "b")), values)
    assert isinstance(result, Fraction) and result == 3
