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


def as_plain(result):
    return {c: s.indices for c, s in result.items()}


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
        assert result[5].indices == (7,)

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
        assert result[1].indices == ()
        heavier = aggregate_weighted(preds, spaces, CredibilityWeights((5.0, 1.0, 1.0)),
                                     alpha=0.4, size=2)
        assert heavier[1].indices == (0,)

    def test_weighted_threshold_boundary_case(self):
        # Owners of the category weigh 2+1+1 = 4; only the weight-2 one votes:
        # 2/4 is not strictly above alpha=0.5, so the index stays out.
        spaces = [LabelSpace((0, 9)), LabelSpace((0, 9)), LabelSpace((0, 9))]
        preds = [np.array([9]), np.array([0]), np.array([0])]
        weights = CredibilityWeights((2.0, 1.0, 1.0))
        result = aggregate_weighted(preds, spaces, weights, alpha=0.5, size=1)
        assert result[9].indices == ()
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
        assert {e.category: e.indices for e in bundle.entries} == {0: (1,), 1: (3,)}

    def test_conflict_scoped_to_own_space(self):
        # index 2 is claimed by category 5 as well, but 5 is outside the
        # owner's space, so the claim is invisible to this bundle.
        sets = {0: PseudolabelSet(0, (1, 2)),
                1: PseudolabelSet(1, (3,)),
                5: PseudolabelSet(5, (2,))}
        bundle = build_bundle(sets, LabelSpace((0, 1)), owner=0)
        assert {e.category: e.indices for e in bundle.entries} == {0: (1, 2), 1: (3,)}

    def test_disjoint_inputs_pass_through(self):
        sets = {0: PseudolabelSet(0, (0, 4)), 2: PseudolabelSet(2, (1,))}
        bundle = build_bundle(sets, LabelSpace((0, 2)), owner=1)
        assert {e.category: e.indices for e in bundle.entries} == {0: (0, 4), 2: (1,)}

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
        assert cleaned[0].indices == (1,)
        assert cleaned[5].indices == ()
        assert cleaned[1].indices == (3,)


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
