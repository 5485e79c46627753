from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcotrain.aggregation import (
    AggregationError,
    CredibilityWeights,
    PseudolabelBundle,
    PseudolabelSet,
    aggregate,
    aggregate_weighted,
    build_bundle,
    remove_global_conflicts,
)
from fedcotrain.domain import LabelSpace


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
        # sparse ids, one owned but never predicted; a vote between two
        # owned ids and one past the largest are both rejected
        big = 10 ** 12
        sparse = [LabelSpace((big, big + 3, big + 7)), LabelSpace((big + 3,))]
        votes = [np.array([big, big + 3, big]), np.array([big + 3] * 3)]
        assert as_plain(aggregate(votes, sparse, alpha=0.4, size=3)) == \
            {big: (0, 2), big + 3: (0, 1, 2), big + 7: ()}
        for stray in (big + 4, big + 9):
            with pytest.raises(AggregationError,
                               match=f"participant 1: predicted category {stray} outside"):
                aggregate([votes[0], np.array([big + 3, stray, big + 3])], sparse,
                          alpha=0.4, size=3)


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
    ])
    def test_rejects_bad_indices(self, indices, message):
        with pytest.raises(AggregationError, match=message):
            PseudolabelSet(0, indices)

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


# Index-set families: possibly empty sets over a small range (many conflicts)
# or the whole int64 range, under category ids 10^12 apart.
index_families = st.lists(
    st.lists(st.one_of(st.integers(0, 30), st.integers(0, 2 ** 63 - 1)),
             unique=True, max_size=12).map(sorted),
    min_size=1, max_size=8)


@given(index_families, st.data())
@settings(max_examples=150, deadline=None)
def test_property_conflict_removal_matches_counter_reference(families, data):
    categories = [k * 10 ** 12 for k in range(len(families))]
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


@given(index_families)
@settings(max_examples=150, deadline=None)
def test_property_bundle_check_matches_counter_reference(families):
    # The bundle rejects its entries exactly when the Counter rule would drop
    # something, and names the first five dropped values in ascending order.
    entries = tuple(PseudolabelSet(k * 10 ** 12, tuple(indices))
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
    stride = draw(st.sampled_from([1, 3, 10**12 + 1]))
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
