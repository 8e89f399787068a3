import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagpar import (
    AmbiguityError,
    BlockRole,
    CodedBlock,
    DuplicateIndexError,
    EmptyInputError,
    InconsistentBlocksError,
    InputError,
    InsufficientBlocksError,
    InsufficientRedundancyError,
    MixedDatasetError,
    Point,
    RecoverySet,
    VerifyReport,
    encode,
    evaluate_many,
    interpolate,
    locate_corruption,
    make_block,
    original_blocks,
    recover,
    verify,
)
from lagpar.blocks import _P, _interpolate_at
from conftest import random_values
from oracle import eval_brute, max_agreement, solve_vandermonde

F = Fraction

CARBON = [F(300), F(400), F(300), F(3000)]


def full_set(values, m, dataset_id="d"):
    blocks = original_blocks(values, dataset_id) + encode(values, m, dataset_id)
    return RecoverySet(tuple(blocks), len(values))


# --- encode ---------------------------------------------------------------


def test_encode_carbon_parity_matches_oracle():
    # shifted to canonical x=0..3 the carbon polynomial is 500x^3-1600x^2+1200x+300
    coeffs = solve_vandermonde(list(enumerate(CARBON)))
    assert tuple(coeffs) == (F(300), F(1200), F(-1600), F(500))
    blocks = encode(CARBON, 1, "carbon")
    assert [(b.index, b.value) for b in blocks] == [(4, eval_brute(coeffs, 4))]
    assert blocks[0].value == F(11500)
    assert blocks[0].role is BlockRole.PARITY


def test_encode_constant_and_zero():
    assert [(b.index, b.value) for b in encode([F(7)], 3, "d")] == [(1, 7), (2, 7), (3, 7)]
    assert [(b.index, b.value) for b in encode([F(0)] * 3, 2, "d")] == [(3, 0), (4, 0)]


def test_encode_is_deterministic():
    assert encode(CARBON, 3, "d") == encode(CARBON, 3, "d")


def test_encode_validation():
    with pytest.raises(EmptyInputError):
        encode([], 1, "d")
    with pytest.raises(InputError):
        encode([F(1)], -1, "d")
    with pytest.raises(InputError):
        encode([F(1)], 2000, "d")


def test_original_blocks_roles():
    blocks = original_blocks([F(2), F(3)], "d")
    assert [(b.index, b.role) for b in blocks] == [
        (0, BlockRole.ORIGINAL),
        (1, BlockRole.ORIGINAL),
    ]


def test_block_invariants():
    with pytest.raises(ValueError):
        CodedBlock(0, F(1), BlockRole.PARITY, 2, "d")  # index < k must be original
    with pytest.raises(ValueError):
        CodedBlock(2, F(1), BlockRole.ORIGINAL, 2, "d")
    with pytest.raises(ValueError):
        make_block(0, F(1), 0, "d")
    with pytest.raises(ValueError):
        make_block(-1, F(1), 2, "d")


def test_recovery_set_invariants():
    a = make_block(0, F(1), 2, "a")
    b = make_block(1, F(2), 2, "b")
    with pytest.raises(MixedDatasetError):
        RecoverySet((a, b), 2)
    with pytest.raises(MixedDatasetError):
        RecoverySet((a, make_block(1, F(2), 3, "a")), 2)
    with pytest.raises(DuplicateIndexError):
        RecoverySet((a, make_block(0, F(9), 2, "a")), 2)


# --- recover ---------------------------------------------------------------


def test_recover_single_parity_block():
    block = make_block(5, F(7), 1, "d")
    assert recover(RecoverySet((block,), 1)) == [F(7)]


def test_recover_carbon_from_parity_only():
    parity = encode(CARBON, 4, "carbon")
    assert recover(RecoverySet(tuple(parity), 4)) == CARBON


def test_recover_identity_round_trip():
    blocks = original_blocks([F(2), F(3), F(5)], "d")
    assert recover(RecoverySet(tuple(blocks), 3)) == [F(2), F(3), F(5)]


def test_recover_insufficient_blocks():
    blocks = original_blocks([F(2), F(3), F(5)], "d")[:2]
    with pytest.raises(InsufficientBlocksError):
        recover(RecoverySet(tuple(blocks), 3))


def test_recover_rejects_inconsistent_surplus():
    blocks = original_blocks([F(2), F(3), F(5)], "d")
    bad = make_block(3, F(99), 3, "d")
    with pytest.raises(InconsistentBlocksError) as err:
        recover(RecoverySet((*blocks, bad), 3))
    assert err.value.residual_indices == (3,)


def test_recover_subset_independence():
    rs = full_set([F(1, 3), F(-2), F(7, 5)], 5)
    expected = recover(rs)
    for subset in combinations(rs.blocks, 3):
        assert recover(RecoverySet(subset, 3)) == expected


@st.composite
def erasure_case(draw):
    k = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=8))
    values = draw(
        st.lists(
            st.fractions(min_value=-999, max_value=999, max_denominator=40),
            min_size=k,
            max_size=k,
        )
    )
    doomed = draw(st.sets(st.integers(min_value=0, max_value=k + m - 1), max_size=m))
    return values, m, doomed


@given(erasure_case())
@settings(max_examples=60, deadline=None)
def test_property_round_trip_survives_any_m_erasures(case):
    values, m, doomed = case
    k = len(values)
    blocks = original_blocks(values, "d") + encode(values, m, "d")
    survivors = tuple(b for b in blocks if b.index not in doomed)
    assert recover(RecoverySet(survivors, k)) == values


# --- verify ----------------------------------------------------------------


def test_verify_consistent_with_parity():
    rs = full_set([F(2), F(3), F(5)], 1)
    report = verify(rs)
    assert report.consistent and report.residual_indices == ()


def test_verify_flags_perturbed_parity():
    blocks = original_blocks([F(2), F(3), F(5)], "d")
    parity = encode([F(2), F(3), F(5)], 1, "d")[0]
    tampered = make_block(parity.index, parity.value + 1, 3, "d")
    report = verify(RecoverySet((*blocks, tampered), 3))
    assert not report.consistent
    assert report.residual_indices == (3,)


def test_verify_single_block_vacuously_consistent():
    report = verify(RecoverySet((make_block(0, F(9), 1, "d"),), 1))
    assert report.consistent


def test_verify_needs_k_blocks():
    with pytest.raises(InsufficientBlocksError):
        verify(RecoverySet((make_block(0, F(1), 2, "d"),), 2))


# --- locate_corruption -----------------------------------------------------


def corrupt(block, delta=F(1)):
    return make_block(block.index, block.value + delta, block.k, block.dataset_id)


def test_locate_line_with_one_corruption():
    line = [F(0), F(1)]
    blocks = original_blocks(line, "d") + encode(line, 2, "d")
    blocks[2] = make_block(2, F(99), 2, "d")
    result = locate_corruption(RecoverySet(tuple(blocks), 2))
    assert result.recovered == (F(0), F(1))
    assert result.suspects == (2,)
    best, winners = max_agreement([(b.index, b.value) for b in blocks], 2)
    assert best == 3 and len(winners) == 1


def test_locate_clean_set_has_no_suspects():
    rs = full_set([F(2), F(3), F(5)], 2)
    result = locate_corruption(rs)
    assert result.suspects == ()
    assert result.recovered == (F(2), F(3), F(5))


def test_locate_ambiguous_when_redundancy_too_thin():
    # three pairwise-inconsistent blocks: every 2-subset fits only itself
    blocks = (
        make_block(0, F(0), 2, "d"),
        make_block(1, F(1), 2, "d"),
        make_block(2, F(99), 2, "d"),
    )
    with pytest.raises(AmbiguityError):
        locate_corruption(RecoverySet(blocks, 2))


def test_locate_preconditions():
    blocks = original_blocks([F(1), F(2)], "d")
    with pytest.raises(InsufficientRedundancyError):
        locate_corruption(RecoverySet(tuple(blocks), 2))
    wide = full_set([F(1)] * 8, 10)
    assert locate_corruption(wide).suspects == ()


def test_locate_two_corruptions_within_bound():
    rng = random.Random(7)
    values = random_values(rng, 4, max_den=20)
    blocks = original_blocks(values, "d") + encode(values, 4, "d")
    for index in (1, 6):
        blocks[index] = corrupt(blocks[index], F(rng.randint(1, 9)))
    result = locate_corruption(RecoverySet(tuple(blocks), 4))  # n=8 = k+2e
    assert result.recovered == tuple(values)
    assert result.suspects == (1, 6)


@st.composite
def corruption_case(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=k + 1, max_value=8))
    values = draw(
        st.lists(
            st.fractions(min_value=-99, max_value=99, max_denominator=9),
            min_size=k,
            max_size=k,
        )
    )
    corrupted = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
    deltas = [draw(nonzero) for _ in corrupted]
    return values, n, dict(zip(sorted(corrupted), deltas))


@given(corruption_case())
@settings(max_examples=200, deadline=None)
def test_property_locate_matches_oracle(case):
    values, n, deltas = case
    k = len(values)
    blocks = original_blocks(values, "d") + encode(values, n - k, "d")
    for index, delta in deltas.items():
        blocks[index] = corrupt(blocks[index], delta)
    best, winners = max_agreement([(b.index, b.value) for b in blocks], k)
    if n >= k + 2 * len(deltas):
        result = locate_corruption(RecoverySet(tuple(blocks), k))
        assert result.recovered == tuple(values)
        assert result.suspects == tuple(sorted(deltas))
        assert len(winners) == 1 and best == n - len(deltas)
        return
    try:
        result = locate_corruption(RecoverySet(tuple(blocks), k))
    except AmbiguityError:
        return
    # beyond the radius an answer must still be the oracle's single winner
    assert len(winners) == 1
    (winner,) = winners
    assert result.recovered == tuple(eval_brute(winner, i) for i in range(k))
    off = tuple(b.index for b in blocks if eval_brute(winner, b.index) != b.value)
    assert result.suspects == off


def test_locate_wide_at_radius():
    rng = random.Random(20)
    values = random_values(rng, 10)
    blocks = original_blocks(values, "d") + encode(values, 10, "d")
    corrupted = sorted(rng.sample(range(20), 5))
    for index in corrupted:
        blocks[index] = corrupt(blocks[index], F(rng.randint(1, 9), rng.randint(1, 9)))
    result = locate_corruption(RecoverySet(tuple(blocks), 10))  # n=20 = k+2e
    assert result.recovered == tuple(values)
    assert result.suspects == tuple(corrupted)


def test_locate_every_error_pattern_within_the_radius():
    # bounded-exhaustive: every n <= 8, k < n and corrupted set with n >= k + 2e
    for n in range(2, 9):
        for k in range(1, n):
            values = random_values(random.Random(8 * n + k), k)
            clean = original_blocks(values, "d") + encode(values, n - k, "d")
            for e in range((n - k) // 2 + 1):
                for corrupted in combinations(range(n), e):
                    blocks = list(clean)
                    for index in corrupted:
                        blocks[index] = corrupt(blocks[index], F(-7, 3))
                    result = locate_corruption(RecoverySet(tuple(blocks), k))
                    assert result.recovered == tuple(values)
                    assert result.suspects == corrupted


# --- the locator mod p, certified by the exact fallback --------------------

INTEGERS = [F(3), F(-1), F(4), F(1)]


@pytest.mark.parametrize("shift", [_P, 3 * _P])
def test_locate_shifts_invisible_mod_p(shift):
    # integer data shifted by a multiple of p is clean mod p: the locator mod p
    # is then x**e, whose refit through blocks 1..k meets the shifted blocks
    # and misses the quorum, so the exact solve must find them
    blocks = original_blocks(INTEGERS, "d") + encode(INTEGERS, 4, "d")
    for index in (1, 2):
        blocks[index] = corrupt(blocks[index], F(shift))
    result = locate_corruption(RecoverySet(tuple(blocks), 4))
    assert result.recovered == tuple(INTEGERS)
    assert result.suspects == (1, 2)


def test_locate_with_a_denominator_that_p_divides():
    # such a value has no residue mod p, so only the exact solve can run
    values = [F(1, _P), F(2), F(-3, 7)]
    blocks = original_blocks(values, "d") + encode(values, 4, "d")
    for index in (0, 4):
        blocks[index] = corrupt(blocks[index], F(5, 2))
    result = locate_corruption(RecoverySet(tuple(blocks), 3))
    assert result.recovered == tuple(values)
    assert result.suspects == (0, 4)


def test_locate_beyond_the_radius_invisible_mod_p():
    # three shifts by p in n = k + 4 blocks: no polynomial reaches the quorum
    # exactly, whatever the residues say
    blocks = original_blocks(INTEGERS, "d") + encode(INTEGERS, 4, "d")
    for index in (0, 1, 2):
        blocks[index] = corrupt(blocks[index], F(_P))
    with pytest.raises(AmbiguityError):
        locate_corruption(RecoverySet(tuple(blocks), 4))


# --- integer kernels against the oracles -----------------------------------

# numerators up to 10**30 either sign, denominators up to 10**12
WIDE = st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**12))
BIG = F(-10**30 + 1, 10**12 - 1)


@given(st.lists(WIDE, min_size=1, max_size=6), st.integers(min_value=0, max_value=6))
@example([BIG], 3)
@settings(max_examples=80, deadline=None)
def test_property_encode_matches_oracle(values, m):
    k = len(values)
    coeffs = solve_vandermonde(list(enumerate(values)))
    assert [(b.index, b.value) for b in encode(values, m, "d")] == [
        (i, eval_brute(coeffs, i)) for i in range(k, k + m)
    ]


@given(st.lists(WIDE, min_size=1, max_size=64), st.integers(min_value=0, max_value=64))
@example([F((-1) ** i * 10**30 // (i + 1), 10**12 - i) for i in range(64)], 64)
@example([BIG], 64)
@settings(max_examples=10, deadline=None)
def test_property_encode_equals_coefficient_form(values, m):
    k = len(values)
    p = interpolate([Point(F(i), v) for i, v in enumerate(values)])
    expected = evaluate_many(p, [F(i) for i in range(k, k + m)])
    got = [b.value for b in encode(values, m, "d")]
    assert [(v.numerator, v.denominator) for v in got] == [
        (v.numerator, v.denominator) for v in expected
    ]


@st.composite
def kernel_case(draw):
    """k values, k distinct indices in 0..3k, and one index in 0..3k besides them."""
    values = draw(st.lists(WIDE, min_size=1, max_size=7))
    k = len(values)
    indices = draw(st.lists(st.integers(0, 3 * k), min_size=k + 1, max_size=k + 1, unique=True))
    return values, indices[:k], indices[k]


@given(kernel_case())
@example(([BIG], [3], 0))
@settings(max_examples=80, deadline=None)
def test_property_decode_kernel_matches_oracle(case):
    values, indices, extra = case
    k = len(values)
    # the kernel through arbitrary values at arbitrary nodes, at every index 0..3k
    coeffs = solve_vandermonde(list(zip(indices, values)))
    assert _interpolate_at(indices, values, range(3 * k + 1)) == [
        eval_brute(coeffs, t) for t in range(3 * k + 1)
    ]
    # recover and verify from a k-subset mixing originals and parity, plus one more block
    coeffs = solve_vandermonde(list(enumerate(values)))
    blocks = [make_block(i, eval_brute(coeffs, i), k, "d") for i in indices]
    assert recover(RecoverySet(tuple(blocks), k)) == values
    on = make_block(extra, eval_brute(coeffs, extra), k, "d")
    assert recover(RecoverySet((*blocks, on), k)) == values
    off = corrupt(on, F(1, 10**12))
    # one wrong value moves the fit off every correct block outside it, and
    # the fit is through the k lowest indices, so exactly the highest is off
    report = verify(RecoverySet((*blocks, off), k))
    assert report.residual_indices == (max(*indices, extra),)


FAR = 10**9


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_far_index_block(k):
    values = random_values(random.Random(k), k)
    coeffs = solve_vandermonde(list(enumerate(values)))
    far = make_block(FAR, eval_brute(coeffs, FAR), k, "d")
    originals = original_blocks(values, "d")
    # on the polynomial: consistent, whether it is off the fit or one of its nodes
    on = RecoverySet((*originals, far), k)
    assert verify(on) == VerifyReport(consistent=True, residual_indices=())
    assert recover(on) == values
    assert recover(RecoverySet((*originals[1:], far), k)) == values
    # off the polynomial: the far block alone is the residual
    off = RecoverySet((*originals, corrupt(far)), k)
    assert verify(off) == VerifyReport(consistent=False, residual_indices=(FAR,))
    with pytest.raises(InconsistentBlocksError) as err:
        recover(off)
    assert err.value.residual_indices == (FAR,)
