import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcotrain import aggregation
from fedcotrain.aggregation import (
    AggregationError,
    CredibilityWeights,
    PseudolabelBundle,
    PseudolabelSet,
    aggregate,
    aggregate_weighted,
    build_bundle,
    remove_global_conflicts,
    vote_positions,
)
from fedcotrain.domain import CATEGORY_LIMIT, DomainError, LabelSpace
from fedcotrain.orchestrator import coordinate


def oracle_aggregate(predictions, label_spaces, alpha, size, weights=None):
    """Exhaustive per-(index, category) recount, independent of the implementation."""
    union = sorted({c for space in label_spaces for c in space})
    out = {}
    for category in union:
        total = 0.0
        for i, space in enumerate(label_spaces):
            if category in space:
                total += 1.0 if weights is None else weights[i]
        admitted = []
        for index in range(size):
            count = 0.0
            for i in range(len(label_spaces)):
                if predictions[i][index] == category:
                    count += 1.0 if weights is None else weights[i]
            if count / total > alpha:
                admitted.append(index)
        out[category] = tuple(admitted)
    return out


def indices_of(pset):
    return tuple(pset.indices.tolist())


def as_plain(result):
    return {c: indices_of(s) for c, s in result.items()}


SPACES3 = [LabelSpace((0, 1)), LabelSpace((1, 2)), LabelSpace((0, 2))]
PREDS3 = [np.array([0, 1, 1, 0]), np.array([1, 1, 2, 1]), np.array([0, 0, 2, 2])]


class TestAggregate:
    def test_alpha_one_admits_nothing(self):
        result = aggregate(PREDS3, SPACES3, alpha=1.0, size=4)
        assert all(len(s) == 0 for s in result.values())

    def test_alpha_zero_single_vote_suffices(self):
        spaces = [LabelSpace((0, 5)), LabelSpace((0, 5)), LabelSpace((0, 5))]
        preds = [np.array([0] * 8), np.array([0] * 8), np.array([0] * 8)]
        preds[1][7] = 5
        result = aggregate(preds, spaces, alpha=0.0, size=8)
        assert indices_of(result[5]) == (7,)

    def test_handwritten_three_by_four(self):
        # Frozen from the exhaustive recount oracle on these vectors.
        result = aggregate(PREDS3, SPACES3, alpha=0.5, size=4)
        assert as_plain(result) == {0: (0,), 1: (1,), 2: (2,)}
        assert as_plain(result) == oracle_aggregate(PREDS3, SPACES3, 0.5, 4)

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            n_c = int(rng.integers(1, 9))
            size = int(rng.integers(1, 51))
            spaces = []
            for _ in range(n):
                k = int(rng.integers(1, n_c + 1))
                spaces.append(LabelSpace(tuple(sorted(
                    rng.choice(n_c, size=k, replace=False).tolist()))))
            preds = [rng.choice(np.fromiter(space, dtype=np.int64), size=size)
                     for space in spaces]
            alpha = float(rng.choice([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]))
            assert as_plain(aggregate(preds, spaces, alpha, size)) == \
                oracle_aggregate(preds, spaces, alpha, size)

    def test_rejects_bad_inputs(self):
        with pytest.raises(AggregationError):
            aggregate(PREDS3, SPACES3, alpha=1.5, size=4)
        with pytest.raises(AggregationError):
            aggregate(PREDS3[:2], SPACES3, alpha=0.5, size=4)
        with pytest.raises(AggregationError):
            aggregate([np.array([0, 1])] + PREDS3[1:], SPACES3, alpha=0.5, size=4)
        bad = [np.array([9, 1, 1, 0])] + PREDS3[1:]
        with pytest.raises(AggregationError, match="outside declared label space"):
            aggregate(bad, SPACES3, alpha=0.5, size=4)
        # category 2 is owned by participants 1 and 2, not by participant 0
        foreign = [np.array([0, 1, 2, 0])] + PREDS3[1:]
        with pytest.raises(AggregationError,
                           match="participant 0: predicted category 2 outside"):
            aggregate(foreign, SPACES3, alpha=0.5, size=4)
        # sparse ids near the bound, one owned but never predicted; a vote
        # between two owned ids and one past the largest are both rejected
        big = CATEGORY_LIMIT - 8
        sparse = [LabelSpace((big, big + 3, big + 7)), LabelSpace((big + 3,))]
        votes = [np.array([big, big + 3, big]), np.array([big + 3] * 3)]
        assert as_plain(aggregate(votes, sparse, alpha=0.4, size=3)) == \
            {big: (0, 2), big + 3: (0, 1, 2), big + 7: ()}
        for stray in (big + 4, big + 9, -1, -2 ** 63, 2 ** 63 - 1):
            with pytest.raises(AggregationError,
                               match=f"participant 1: predicted category {stray} outside"):
                aggregate([votes[0], np.array([big + 3, stray, big + 3])], sparse,
                          alpha=0.4, size=3)
        # sparse ids below the row length: the same votes are rejected
        spaced = [LabelSpace((2, 5, 9)), LabelSpace((5,))]
        votes = [np.array([2, 5, 9, 2, 5, 9, 2, 5, 9, 2, 5, 9]), np.full(12, 5)]
        for stray in (4, 10, -1, -2 ** 63, 2 ** 63 - 1):
            row = votes[1].copy()
            row[7] = stray
            with pytest.raises(AggregationError,
                               match=f"participant 1: predicted category {stray} outside"):
                aggregate([votes[0], row], spaced, alpha=0.4, size=12)

    def test_error_names_first_bad_vote_in_row_order(self):
        # the first bad vote (7) is neither the smallest (-2) nor the largest
        spaces = [LabelSpace((5, 0)), LabelSpace((0, 5))]
        votes = [np.array([0, 5, 0, 5, 0]), np.array([0, 7, 5, -2, 3])]
        with pytest.raises(AggregationError) as info:
            aggregate(votes, spaces, alpha=0.5, size=5)
        assert str(info.value) == \
            "participant 1: predicted category 7 outside declared label space"
        # votes below 0, above the largest own id (5), at both ends of int64
        # and between own ids, each first in rows as long as that id and
        # longer; and a row within [0, 5] that a table maps
        bad_votes = [-1, 6, -2 ** 63, 2 ** 63 - 1, 3]
        rows = [[0, first] + [v for v in bad_votes if v != first] + [5, 5, 5]
                for first in bad_votes] + [[0, 3, 5, 1, 4, 0, 5, 2, 0]]
        for length in (5, 9):
            for row in rows:
                first, row = row[1], np.array(row[:length])
                with pytest.raises(AggregationError) as info:
                    aggregate([np.zeros(length, dtype=np.int64), row], spaces,
                              alpha=0.5, size=length)
                assert str(info.value) == \
                    f"participant 1: predicted category {first} outside declared label space"


class TestAggregateWeighted:
    def test_unit_weights_identical_to_unweighted(self):
        weights = CredibilityWeights.uniform(3)
        for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
            assert as_plain(aggregate_weighted(PREDS3, SPACES3, weights, alpha, 4)) == \
                as_plain(aggregate(PREDS3, SPACES3, alpha, 4))

    def test_zero_weight_participant_never_counts(self):
        spaces = [LabelSpace((0, 1))] * 3
        preds = [np.array([1, 0]), np.array([0, 0]), np.array([0, 0])]
        weights = CredibilityWeights((0.0, 1.0, 1.0))
        result = aggregate_weighted(preds, spaces, weights, alpha=0.4, size=2)
        # participant 0's lone vote for category 1 carries no mass
        assert indices_of(result[1]) == ()
        heavier = aggregate_weighted(preds, spaces, CredibilityWeights((5.0, 1.0, 1.0)),
                                     alpha=0.4, size=2)
        assert indices_of(heavier[1]) == (0,)

    def test_weighted_threshold_boundary_case(self):
        # Owners of the category weigh 2+1+1 = 4; only the weight-2 one votes:
        # 2/4 is not strictly above alpha=0.5, so the index stays out.
        spaces = [LabelSpace((0, 9)), LabelSpace((0, 9)), LabelSpace((0, 9))]
        preds = [np.array([9]), np.array([0]), np.array([0])]
        weights = CredibilityWeights((2.0, 1.0, 1.0))
        result = aggregate_weighted(preds, spaces, weights, alpha=0.5, size=1)
        assert indices_of(result[9]) == ()
        assert as_plain(result) == oracle_aggregate(preds, spaces, 0.5, 1,
                                                    weights=weights.values)

    def test_matches_oracle_on_random_weighted_cases(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            n_c = int(rng.integers(1, 9))
            size = int(rng.integers(1, 51))
            spaces = []
            for _ in range(n):
                k = int(rng.integers(1, n_c + 1))
                spaces.append(LabelSpace(tuple(sorted(
                    rng.choice(n_c, size=k, replace=False).tolist()))))
            preds = [rng.choice(np.fromiter(space, dtype=np.int64), size=size)
                     for space in spaces]
            weights = CredibilityWeights(tuple(0.25 + rng.random(n)))
            alpha = float(rng.choice([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]))
            assert as_plain(aggregate_weighted(preds, spaces, weights, alpha, size)) == \
                oracle_aggregate(preds, spaces, alpha, size, weights=weights.values)

    def test_all_zero_owner_weights_rejected(self):
        spaces = [LabelSpace((0,)), LabelSpace((1,))]
        preds = [np.array([0]), np.array([1])]
        weights = CredibilityWeights((0.0, 1.0))
        with pytest.raises(AggregationError, match="zero credibility"):
            aggregate_weighted(preds, spaces, weights, alpha=0.0, size=1)

    def test_weight_validation(self):
        with pytest.raises(AggregationError):
            CredibilityWeights((-1.0,))
        with pytest.raises(AggregationError):
            CredibilityWeights(())


class TestBuildBundle:
    def test_conflicting_indices_removed_from_both(self):
        sets = {0: PseudolabelSet(0, (1, 2)), 1: PseudolabelSet(1, (2, 3))}
        bundle = build_bundle(sets, LabelSpace((0, 1)), owner=7)
        assert bundle.owner == 7
        assert {e.category: indices_of(e) for e in bundle.entries} == {0: (1,), 1: (3,)}

    def test_conflict_scoped_to_own_space(self):
        # index 2 is claimed by category 5 as well, but 5 is outside the
        # owner's space, so the claim is invisible to this bundle.
        sets = {0: PseudolabelSet(0, (1, 2)),
                1: PseudolabelSet(1, (3,)),
                5: PseudolabelSet(5, (2,))}
        bundle = build_bundle(sets, LabelSpace((0, 1)), owner=0)
        assert {e.category: indices_of(e) for e in bundle.entries} == {0: (1, 2), 1: (3,)}

    def test_disjoint_inputs_pass_through(self):
        sets = {0: PseudolabelSet(0, (0, 4)), 2: PseudolabelSet(2, (1,))}
        bundle = build_bundle(sets, LabelSpace((0, 2)), owner=1)
        assert {e.category: indices_of(e) for e in bundle.entries} == {0: (0, 4), 2: (1,)}

    def test_missing_categories_become_empty_entries(self):
        bundle = build_bundle({}, LabelSpace((3, 8)), owner=0)
        assert [e.category for e in bundle.entries] == [3, 8]
        assert len(bundle) == 0

    @pytest.mark.parametrize("owner", [-4, 1.5, "x", True, np.bool_(False), None])
    def test_owner_must_be_a_non_negative_integer(self, owner):
        message = re.escape(f"bundle owner {owner!r} is not a non-negative integer")
        with pytest.raises(AggregationError, match=message):
            PseudolabelBundle(owner=owner, entries=())
        with pytest.raises(AggregationError, match=message):
            PseudolabelBundle.empty(owner)
        with pytest.raises(AggregationError, match=message):
            build_bundle({0: PseudolabelSet(0, (1,))}, LabelSpace((0,)), owner=owner)

    def test_owner_is_kept_as_a_python_int(self):
        assert type(PseudolabelBundle(owner=np.int64(3), entries=()).owner) is int
        assert type(build_bundle({}, LabelSpace((0,)), owner=np.int32(0)).owner) is int

    def test_sets_under_another_category_key_are_refused(self):
        sets = {0: PseudolabelSet(1, (1,)), 1: PseudolabelSet(0, (2,))}
        with pytest.raises(AggregationError, match="bundle entries must be sorted by category"):
            build_bundle(sets, LabelSpace((0, 1)), owner=0)

    def test_bundle_rejects_overlapping_entries(self):
        with pytest.raises(AggregationError):
            PseudolabelBundle(owner=0, entries=(PseudolabelSet(0, (1,)),
                                                PseudolabelSet(1, (1,))))

    def test_global_conflict_removal(self):
        sets = {0: PseudolabelSet(0, (1, 2)),
                1: PseudolabelSet(1, (3,)),
                5: PseudolabelSet(5, (2,))}
        cleaned = remove_global_conflicts(sets)
        assert indices_of(cleaned[0]) == (1,)
        assert indices_of(cleaned[5]) == ()
        assert indices_of(cleaned[1]) == (3,)


class TestPseudolabelSet:
    @pytest.mark.parametrize("indices, message", [
        ((-1, 2), "non-negative"),
        ((3, 1), "strictly ascending"),
        ((1, 1), "strictly ascending"),
        ((2, 5, 4), "strictly ascending"),
        ((0, 2 ** 63), "fit in int64"),
        ((-2 ** 70,), "fit in int64"),
        (((1, 2), (3, 4)), "one-dimensional"),
        (7, "one-dimensional"),
        # a float is never truncated, a string never parsed, a bool is no index
        ([0.5, 1.7], "must be integers"),
        (np.array([0.9, 2.2]), "must be integers"),
        ([2.0, 5.0], "must be integers"),
        (np.array([2.0, 5.0]), "must be integers"),
        ([1, 2.0], "must be integers"),
        (["1", "2"], "must be integers"),
        ([1, "2"], "must be integers"),
        ([False, True], "must be integers"),
        ([True, False], "must be integers"),
        ([1, True], "must be integers"),
        ((np.bool_(False), 3), "must be integers"),
        (np.array([False, True]), "must be integers"),
        (np.array([1, 2], dtype=object), "must be integers"),
        (np.array([1, 2 ** 63], dtype=np.uint64), "fit in int64"),
    ])
    def test_rejects_bad_indices(self, indices, message):
        with pytest.raises(AggregationError, match=message):
            PseudolabelSet(0, indices)

    @pytest.mark.parametrize("category", [1.5, 2.0, "3", True])
    def test_rejects_category_ids_that_are_not_integers(self, category):
        with pytest.raises(DomainError, match=f"category id {category!r} is not an integer"):
            PseudolabelSet(category, [1, 2])

    @pytest.mark.parametrize("category", [2 ** 63, -2 ** 63 - 1, 2 ** 70])
    def test_rejects_category_ids_outside_int64(self, category):
        with pytest.raises(DomainError, match=re.escape(
                f"category id {category} outside [0, {CATEGORY_LIMIT})")):
            PseudolabelSet(category, [1, 2])

    @pytest.mark.parametrize("category", [CATEGORY_LIMIT, -1])
    def test_rejects_category_ids_outside_the_bound(self, category):
        with pytest.raises(DomainError, match=re.escape(
                f"category id {category} outside [0, {CATEGORY_LIMIT})")):
            PseudolabelSet(category, [1, 2])
        assert PseudolabelSet(CATEGORY_LIMIT - 1, [1, 2]).category == CATEGORY_LIMIT - 1

    @pytest.mark.parametrize("indices", [
        np.array([1, 5, 2 ** 40]),
        tuple(np.array([1, 5, 2 ** 40])),
        (1, np.int64(5), 2 ** 40),
        [1, 5, 2 ** 40],
    ])
    def test_stores_a_read_only_int64_array(self, indices):
        pset = PseudolabelSet(np.int64(3), indices)
        assert isinstance(pset.indices, np.ndarray)
        assert pset.indices.dtype == np.int64 and pset.indices.ndim == 1
        assert not pset.indices.flags.writeable
        assert pset.indices.tolist() == [1, 5, 2 ** 40]
        assert type(pset.category) is int

    @pytest.mark.parametrize("indices", [(), [], np.array([]), np.empty(0, dtype=np.int32)])
    def test_takes_an_empty_sequence(self, indices):
        pset = PseudolabelSet(4, indices)
        assert pset.indices.dtype == np.int64 and pset.indices.shape == (0,)

    def test_equal_by_category_and_indices_and_unhashable(self):
        assert PseudolabelSet(2, (1, 4)) == PseudolabelSet(2, np.array([1, 4]))
        assert PseudolabelSet(2, (1, 4)) != PseudolabelSet(3, (1, 4))
        assert PseudolabelSet(2, (1, 4)) != PseudolabelSet(2, (1, 5))
        assert PseudolabelSet(2, ()) != PseudolabelSet(2, (1,))
        with pytest.raises(TypeError):
            hash(PseudolabelSet(2, (1, 4)))

    def test_bundle_overlap_lists_first_five_overlaps_sorted(self):
        entries = (PseudolabelSet(0, (10, 20, 30, 40, 50, 60)),
                   PseudolabelSet(1, (5, 10, 20, 30, 60)),
                   PseudolabelSet(2, (10, 40, 50, 70)))
        with pytest.raises(AggregationError,
                           match=r"overlap on indices \[10, 20, 30, 40, 50\]$"):
            PseudolabelBundle(owner=0, entries=entries)


def reference_drop_conflicts(families):
    """Counter-based conflict rule: keep an index only if one set claims it."""
    counts = Counter(i for indices in families for i in indices)
    return [tuple(i for i in indices if counts[i] == 1) for indices in families]


def index_families(values):
    """Families of one to eight possibly empty index sets drawn from ``values``."""
    return st.lists(st.lists(values, unique=True, max_size=12).map(sorted),
                    min_size=1, max_size=8)


# Index-set families over a public set of 10^5 rows, under category ids 4096
# apart: indices below 8 (many conflicts); indices at the top of the public
# set, far from zero; a mix of a small range and the whole set; and a few
# indices spread over the whole set (sparse, rarely in conflict).
PUBLIC_ROWS = 10 ** 5
conflict_families = st.one_of(
    index_families(st.integers(0, 7)),
    index_families(st.integers(PUBLIC_ROWS - 31, PUBLIC_ROWS - 1)),
    index_families(st.one_of(st.integers(0, 30), st.integers(0, PUBLIC_ROWS - 1))),
    index_families(st.integers(0, PUBLIC_ROWS - 1)))


@given(conflict_families, st.data())
@settings(max_examples=150, deadline=None)
def test_property_conflict_removal_matches_counter_reference(families, data):
    categories = [k * 4096 for k in range(len(families))]
    sets = {c: PseudolabelSet(c, tuple(indices)) for c, indices in zip(categories, families)}
    cleaned = remove_global_conflicts(sets)
    assert list(cleaned) == categories
    assert [indices_of(cleaned[c]) for c in categories] == reference_drop_conflicts(families)
    # A label space may hold categories nobody admitted anything for.
    extra = [c + 1 for c in categories]
    space = data.draw(st.lists(st.sampled_from(categories + extra), min_size=1,
                               unique=True))
    bundle = build_bundle(sets, LabelSpace(tuple(space)), owner=3)
    restricted = [indices_of(sets[c]) if c in sets else () for c in sorted(space)]
    assert [e.category for e in bundle.entries] == sorted(space)
    assert [indices_of(e) for e in bundle.entries] == reference_drop_conflicts(restricted)


@given(conflict_families)
@settings(max_examples=150, deadline=None)
def test_property_bundle_check_matches_counter_reference(families):
    # The bundle rejects its entries exactly when the Counter rule would drop
    # something, and names the first five dropped values in ascending order.
    entries = tuple(PseudolabelSet(k * 4096, tuple(indices))
                    for k, indices in enumerate(families))
    kept = reference_drop_conflicts(families)
    dropped = sorted({i for indices, rest in zip(families, kept) for i in indices
                      if i not in rest})
    if not dropped:
        assert len(PseudolabelBundle(owner=0, entries=entries)) == sum(map(len, families))
        return
    with pytest.raises(AggregationError) as raised:
        PseudolabelBundle(owner=0, entries=entries)
    assert str(raised.value) == f"bundle entries overlap on indices {dropped[:5]}"


# Hypothesis strategies: the structure comes from hypothesis, the bulk vote
# matrix from a seeded generator, which keeps shrinking fast.
@st.composite
def vote_problems(draw, max_participants=6, max_categories=8, max_size=50):
    n = draw(st.integers(1, max_participants))
    n_c = draw(st.integers(1, max_categories))
    size = draw(st.integers(1, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    # category ids are multiples of the stride, so the vote also sees sparse ids
    stride = draw(st.sampled_from([1, 3, 4093]))
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(n):
        k = int(rng.integers(1, n_c + 1))
        spaces.append(LabelSpace(tuple(sorted(
            (stride * rng.choice(n_c, size=k, replace=False)).tolist()))))
    preds = [rng.choice(np.fromiter(space, dtype=np.int64), size=size)
             for space in spaces]
    return preds, spaces, size


@given(vote_problems(), st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
@settings(max_examples=80, deadline=None)
def test_property_oracle_equivalence(problem, alpha):
    preds, spaces, size = problem
    assert as_plain(aggregate(preds, spaces, alpha, size)) == \
        oracle_aggregate(preds, spaces, alpha, size)


# Chunks of a few cells: each holds one to a few public indices, and the last
# one is usually partial.
@given(vote_problems(), st.sampled_from([7, 64]), st.booleans(), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
@settings(max_examples=80, deadline=None)
def test_property_vote_across_chunk_boundaries(problem, cells, weighted, seed, alpha):
    preds, spaces, size = problem
    values = (0.25 + np.random.default_rng(seed).random(len(spaces))).tolist() \
        if weighted else [1.0] * len(spaces)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aggregation, "VOTE_CHUNK_CELLS", cells)
        unweighted = as_plain(aggregate(preds, spaces, alpha, size))
        result = as_plain(aggregate_weighted(preds, spaces, CredibilityWeights(tuple(values)),
                                             alpha, size))
    assert unweighted == oracle_aggregate(preds, spaces, alpha, size)
    assert result == oracle_aggregate(preds, spaces, alpha, size, weights=values)


@given(vote_problems(), st.sampled_from([(0.0, 0.3), (0.2, 0.5), (0.3, 0.9), (0.5, 1.0)]))
@settings(max_examples=80, deadline=None)
def test_property_alpha_anti_monotone(problem, alphas):
    preds, spaces, size = problem
    low, high = alphas
    loose = aggregate(preds, spaces, low, size)
    tight = aggregate(preds, spaces, high, size)
    for category in loose:
        assert set(tight[category].indices) <= set(loose[category].indices)


@given(vote_problems())
@settings(max_examples=60, deadline=None)
def test_property_permutation_equivariance(problem):
    preds, spaces, size = problem
    base = as_plain(aggregate(preds, spaces, 0.4, size))
    order = list(reversed(range(len(preds))))
    permuted = as_plain(aggregate([preds[i] for i in order],
                                  [spaces[i] for i in order], 0.4, size))
    assert base == permuted


@given(vote_problems(), st.sampled_from([0.0, 0.25, 0.5, 0.75]))
@settings(max_examples=60, deadline=None)
def test_property_membership_certificate(problem, alpha):
    preds, spaces, size = problem
    result = aggregate(preds, spaces, alpha, size)
    for category, pset in result.items():
        owners = sum(1 for s in spaces if category in s)
        for index in pset.indices:
            votes = sum(1 for p in preds if p[index] == category)
            assert votes > alpha * owners or votes / owners > alpha


@given(vote_problems())
@settings(max_examples=60, deadline=None)
def test_property_bundle_disjoint_and_restricted(problem):
    preds, spaces, size = problem
    result = aggregate(preds, spaces, 0.3, size)
    for owner, space in enumerate(spaces):
        bundle = build_bundle(result, space, owner=owner)
        seen = set()
        for entry in bundle.entries:
            assert entry.category in space
            assert not seen & set(entry.indices)
            seen |= set(entry.indices)


@given(vote_problems())
@settings(max_examples=40, deadline=None)
def test_property_unit_weight_equivalence(problem):
    preds, spaces, size = problem
    weights = CredibilityWeights.uniform(len(spaces))
    assert as_plain(aggregate_weighted(preds, spaces, weights, 0.35, size)) == \
        as_plain(aggregate(preds, spaces, 0.35, size))


def checked(pset):
    """The set rebuilt through the public constructor, from a copy of its indices."""
    return PseudolabelSet(pset.category, pset.indices.copy())


def assert_sealed(pset):
    """The set's indices are a read-only int64 view that cannot be made writeable."""
    assert pset.indices.dtype == np.int64 and not pset.indices.flags.writeable
    with pytest.raises(ValueError):
        pset.indices.flags.writeable = True


# The sets and bundles the module builds without a check equal the ones its
# public constructors build from the same values, and stay read-only. Every
# space's category has an admitted set, so each set and bundle entry here is a
# slice the step made: of the vote's array, or of what conflict removal kept.
@given(vote_problems(), st.booleans(), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.2, 0.4, 0.6, 1.0]))
@settings(max_examples=80, deadline=None)
def test_property_unchecked_path_equals_checked_path(problem, weighted, seed, alpha):
    preds, spaces, size = problem
    values = tuple((0.25 + np.random.default_rng(seed).random(len(spaces))).tolist()) \
        if weighted else (1.0,) * len(spaces)
    voted = aggregate_weighted(preds, spaces, CredibilityWeights(values), alpha, size)
    cleaned = remove_global_conflicts(voted)
    for pseudo_sets in (voted, cleaned):
        assert list(pseudo_sets) == list(voted)
        for category, pset in pseudo_sets.items():
            assert pset == checked(pset) and pset.category == category
            assert_sealed(pset)
        for owner, space in enumerate(spaces):
            bundle = build_bundle(pseudo_sets, space, owner=owner)
            assert bundle == PseudolabelBundle(owner, tuple(map(checked, bundle.entries)))
            for entry in bundle.entries:
                assert_sealed(entry)


# Own label spaces of k categories, given in no order, with dense or sparse
# ids up to near the bound; votes hit every own category's neighbourhood, both
# ends of the space and both ends of int64, or only values from 0 to the
# largest own id, in rows longer than that id and shorter.
@given(st.sampled_from([1, 2, 5, 20, 64, 65, 255, 300]),
       st.one_of(st.tuples(st.sampled_from([1, 3]), st.integers(0, 500), st.just(True)),
                 st.tuples(st.sampled_from([1, 3, 50]), st.integers(1, 2000),
                           st.just(False))),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_property_vote_positions_match_searchsorted_and_isin(k, ids, in_range, seed):
    stride, offset, longer_than_largest_id = ids
    rng = np.random.default_rng(seed)
    own = offset + stride * np.sort(rng.choice(2 * k, size=k, replace=False))
    edges = np.array([-2 ** 63, -1, 0, own[0] - 1, own[-1] + 1, own[-1] + stride,
                      2 ** 63 - 1], dtype=np.int64)
    pool = np.concatenate([own, own - 1, own + 1, -own - 1, edges])
    if in_range:
        pool = pool[(pool >= 0) & (pool <= own[-1])]
    length = int(rng.integers(own[-1] + 1, own[-1] + 400)) if longer_than_largest_id \
        else int(rng.integers(1, min(own[-1], 400) + 1))
    row = rng.choice(pool, size=length)
    assert (own[-1] < len(row)) == longer_than_largest_id
    space = LabelSpace(tuple(rng.permutation(own).tolist()))
    valid = np.isin(row, own)
    pos = np.minimum(np.searchsorted(own, row), k - 1)
    targets = rng.choice(2 ** 31 - 1, size=k, replace=False).astype(np.int32)
    out = np.empty(length, dtype=np.int32)
    assert vote_positions(row, space, targets, out=out) is out
    assert np.array_equal(out, np.where(valid, targets[pos], -1))
    own_only = vote_positions(row, space)
    assert own_only.dtype == np.int32
    assert np.array_equal(own_only, np.where(valid, pos, -1))


# Totals at both ends of the positive floats and between; alpha at both ends
# of [0, 1] and between.
@given(st.one_of(st.sampled_from([5e-324, 1.0, 1e308, float(np.finfo(np.float64).max)]),
                 st.floats(5e-324, 1e308)),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
@settings(max_examples=300, deadline=None)
def test_property_admission_threshold_matches_division(total, alpha):
    threshold = aggregation._admission_thresholds(np.array([total]), alpha)[0]
    with np.errstate(over="ignore"):  # the float after the largest is inf
        above = np.nextafter(threshold, np.inf)
    masses = np.array([np.nextafter(threshold, 0.0), threshold, above])
    assert np.array_equal(masses >= threshold, [False, True, True])
    assert np.array_equal(masses / total > alpha, [False, True, True])


def test_infinite_total_admits_nothing():
    # two owners of 1e308 weigh inf together; 1e308 / inf is 0 and inf / inf
    # is NaN, so the reference division admits no mass, and neither does the vote
    assert np.isnan(aggregation._admission_thresholds(np.array([np.inf]), 0.0)[0])
    spaces = [LabelSpace((0, 1)), LabelSpace((0, 1)), LabelSpace((1,))]
    preds = [np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1, 1, 1])]
    weights = CredibilityWeights((1e308, 1e308, 1.0))
    for alpha in (0.0, 0.5, 1.0):
        result = aggregate_weighted(preds, spaces, weights, alpha, size=3)
        assert indices_of(result[0]) == () and indices_of(result[1]) == ()


def test_mass_equal_to_its_threshold_is_admitted():
    # one vote of two owners, a mass of exactly 1.0, is the smallest mass whose
    # share 1/2 is above the float just below 0.5; the vote must admit it
    alpha = float(np.nextafter(0.5, 0.0))
    assert aggregation._admission_thresholds(np.array([2.0]), alpha)[0] == 1.0
    spaces = [LabelSpace((0, 1)), LabelSpace((0, 1))]
    preds = [np.array([0, 1]), np.array([1, 1])]
    assert as_plain(aggregate(preds, spaces, alpha, 2)) == {0: (0,), 1: (0, 1)}
    assert as_plain(aggregate(preds, spaces, 0.5, 2)) == {0: (), 1: (1,)}


# sha256 of every admitted set and every bundle of one seeded coordinator step,
# frozen before the vote check, the vote and conflict removal were rewritten:
# N=12 voters over 39 of 40 dense categories and 30,000 public indices (36
# vote chunks of 840 indices at VOTE_CHUNK_CELLS = 2**15), random weights, with
# and without global conflict removal.
COORDINATOR_STEP_SHA256 = "49ef0569deb02c29919ebcf352ce43a20f02ee8fa2c35c69ac8e533a29a8933d"


def test_coordinator_step_is_pinned():
    rng = np.random.default_rng(2024)
    n, n_c, size = 12, 40, 30_000
    spaces = [LabelSpace(tuple(sorted(rng.choice(n_c, size=int(rng.integers(3, 21)),
                                                 replace=False).tolist())))
              for _ in range(n)]
    truth = rng.integers(0, n_c, size=size)
    preds = []
    for space in spaces:
        own = np.array(space.categories, dtype=np.int64)
        guess = own[rng.integers(0, len(own), size=size)]
        preds.append(np.where(np.isin(truth, own) & (rng.random(size) < 0.85), truth, guess))
    weights = CredibilityWeights(tuple((0.1 + rng.random(n)).tolist()))
    digest = hashlib.sha256()
    for global_conflict_removal in (False, True):
        pseudo_sets, bundles = coordinate(preds, spaces, 0.6, size, weights,
                                          global_conflict_removal)
        for category, pset in pseudo_sets.items():
            digest.update(f"set {category} {len(pset)}\n".encode())
            digest.update(pset.indices.tobytes())
        for bundle in bundles:
            for entry in bundle.entries:
                digest.update(f"bundle {bundle.owner} {entry.category} {len(entry)}\n".encode())
                digest.update(entry.indices.tobytes())
    assert digest.hexdigest() == COORDINATOR_STEP_SHA256
