import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcotrain.domain import (
    CATEGORY_LIMIT,
    DomainError,
    LabeledDataset,
    LabelSpace,
    PartitionSpec,
    TaxonomySpec,
    UnlabeledDataset,
    draw_test_rows,
    generate_taxonomy,
    held_out_unlabeled,
    load_csv,
    partition,
    save_csv,
    uniform_random_unlabeled,
)
import fedcotrain.domain as domain_mod


def small_spec(**kw):
    base = dict(n_superclasses=4, subclasses_per_superclass=2, feature_dim=3,
                instances_per_subclass=60, superclass_spread=3.0,
                subclass_spread=1.0, instance_noise=0.3)
    base.update(kw)
    return TaxonomySpec(**base)


class TestLabelSpace:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(DomainError):
            LabelSpace(())
        with pytest.raises(DomainError):
            LabelSpace((1, 1, 2))
        with pytest.raises(DomainError):
            LabelSpace((-1, 2))

    def test_duplicate_error_names_the_first_five_repeated_ids(self):
        # a peer's REGISTER may repeat one id a million times: the error stays short
        with pytest.raises(DomainError) as raised:
            LabelSpace((9, 7, 7, 5, 3, 0, 2, 5, 3, 2, 0, 1, 9))
        assert str(raised.value) == "label space has duplicate categories [0, 2, 3, 5, 7]"
        with pytest.raises(DomainError) as raised:
            LabelSpace((0,) * 100_000)
        assert str(raised.value) == "label space has 100000 categories, more than 32768"

    def test_equality_hash_and_repr_see_only_the_categories(self):
        space = LabelSpace((0, 2, 5))
        assert space == LabelSpace((0, 2, 5)) != LabelSpace((5, 2, 0))
        assert hash(space) == hash(LabelSpace((0, 2, 5)))
        assert repr(space) == "LabelSpace(categories=(0, 2, 5))"

    def test_membership_and_overlap(self):
        a = LabelSpace((0, 2, 5))
        assert 2 in a and 4 not in a
        assert list(a) == [0, 2, 5]

    @pytest.mark.parametrize("categories, bad", [
        ((1.5, 2), 1.5), ((2.0, 3), 2.0), (("3", 4), "3"), ((True, 2), True),
        ((1, np.float64(4.0)), np.float64(4.0)), ((np.True_, 2), np.True_),
    ])
    def test_rejects_category_ids_that_are_not_integers(self, categories, bad):
        with pytest.raises(DomainError,
                           match=re.escape(f"category id {bad!r} is not an integer")):
            LabelSpace(categories)

    @pytest.mark.parametrize("bad", [2 ** 63, 2 ** 70, -2 ** 63 - 1, np.uint64(2 ** 64 - 1)])
    def test_rejects_category_ids_outside_int64(self, bad):
        with pytest.raises(DomainError, match=re.escape(
                f"category id {int(bad)} outside [0, {CATEGORY_LIMIT})")):
            LabelSpace((0, bad))

    @pytest.mark.parametrize("bad", [CATEGORY_LIMIT, -1])
    def test_rejects_category_ids_outside_the_bound(self, bad):
        with pytest.raises(DomainError, match=re.escape(
                f"category id {bad} outside [0, {CATEGORY_LIMIT})")):
            LabelSpace((0, bad))

    def test_accepts_the_largest_category_id(self):
        assert CATEGORY_LIMIT == 2 ** 15
        assert LabelSpace((0, CATEGORY_LIMIT - 1)).categories == (0, CATEGORY_LIMIT - 1)

    def test_numpy_integer_ids_become_python_ints(self):
        space = LabelSpace((np.int64(3), np.uint8(1)))
        assert space.categories == (3, 1)
        assert all(type(c) is int for c in space)


class TestDatasets:
    def test_labeled_shape_checks(self):
        with pytest.raises(DomainError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(DomainError):
            LabeledDataset(np.array([[np.inf, 0.0]]), np.array([0]))

    @pytest.mark.parametrize("labels, dtype", [
        ([0.5, 1.7], "float64"),
        (np.array([0.0, 1.0], dtype=np.float32), "float32"),
        ([False, True], "bool"),
        (["0", "1"], "<U1"),
    ])
    def test_labels_that_are_not_integers_are_refused_not_truncated(self, labels, dtype):
        with pytest.raises(DomainError, match=re.escape(f"labels must be integers, got {dtype}")):
            LabeledDataset(np.zeros((2, 2)), labels)
        # an empty label vector has no value to truncate
        assert len(LabeledDataset(np.zeros((0, 2)), [])) == 0

    def test_unlabeled_needs_rows(self):
        with pytest.raises(DomainError):
            UnlabeledDataset(np.zeros((0, 2)))

    def test_prefix(self):
        data = UnlabeledDataset(np.arange(12.0).reshape(6, 2))
        assert np.array_equal(data.prefix(2).features, data.features[:2])
        with pytest.raises(DomainError):
            data.prefix(7)


class TestTaxonomy:
    def test_degenerate_two_singleton_superclasses(self):
        spec = small_spec(n_superclasses=2, subclasses_per_superclass=1,
                          instances_per_subclass=10)
        pool, taxonomy = generate_taxonomy(spec, seed=3)
        assert len(pool) == 20
        assert set(pool.superclass_labels.tolist()) == {0, 1}
        assert taxonomy.n_subclasses == 2

    def test_benchmark_shape_twenty_by_five(self):
        spec = small_spec(n_superclasses=20, subclasses_per_superclass=5,
                          instances_per_subclass=2)
        pool, taxonomy = generate_taxonomy(spec, seed=0)
        assert taxonomy.n_subclasses == 100
        assert len(set(pool.subclass_labels.tolist())) == 100

    def test_deterministic_under_seed(self):
        spec = small_spec()
        a, _ = generate_taxonomy(spec, seed=11)
        b, _ = generate_taxonomy(spec, seed=11)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.subclass_labels, b.subclass_labels)
        c, _ = generate_taxonomy(spec, seed=12)
        assert a.features.tobytes() != c.features.tobytes()

    def test_pool_carries_both_label_levels(self):
        pool, taxonomy = generate_taxonomy(small_spec(), seed=1)
        assert np.array_equal(pool.superclass_labels,
                              pool.subclass_labels // taxonomy.subclasses_per_superclass)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DomainError):
            small_spec(n_superclasses=0)
        with pytest.raises(DomainError):
            small_spec(instance_noise=0.0)

    def test_superclasses_stop_at_the_category_limit(self):
        assert small_spec(n_superclasses=CATEGORY_LIMIT).n_superclasses == CATEGORY_LIMIT
        with pytest.raises(DomainError, match=f"n_superclasses must be <= {CATEGORY_LIMIT}"):
            small_spec(n_superclasses=CATEGORY_LIMIT + 1)


class TestPartition:
    def test_sizes_match_owned_superclasses(self):
        spec = small_spec(n_superclasses=10, subclasses_per_superclass=5,
                          instances_per_subclass=200)
        pool, taxonomy = generate_taxonomy(spec, seed=5)
        part = PartitionSpec(n_participants=4, superclasses_per_participant=(6, 8),
                             instances_per_superclass=50, mode="iid", seed=9)
        shards = partition(pool, taxonomy, part)
        for shard in shards:
            assert 6 <= len(shard.label_space) <= 8
            assert len(shard.train) == 50 * len(shard.label_space)
            assert 300 <= len(shard.train) <= 400

    def test_training_sets_pairwise_disjoint(self):
        pool, taxonomy = generate_taxonomy(small_spec(instances_per_subclass=120), seed=2)
        part = PartitionSpec(n_participants=3, superclasses_per_participant=(2, 3),
                             instances_per_superclass=20, mode="noniid", seed=4)
        shards = partition(pool, taxonomy, part)
        seen = set()
        for shard in shards:
            rows = set(shard.train.source_rows.tolist())
            assert not rows & seen
            seen |= rows

    def test_label_spaces_overlap_requirement(self):
        pool, taxonomy = generate_taxonomy(small_spec(instances_per_subclass=200), seed=2)
        part = PartitionSpec(n_participants=5, superclasses_per_participant=(2, 2),
                             instances_per_superclass=10, mode="iid", seed=7)
        shards = partition(pool, taxonomy, part)
        for shard in shards:
            assert any(set(shard.label_space) & set(other.label_space)
                       for other in shards if other.participant != shard.participant)

    def test_single_participant_owning_everything(self):
        pool, taxonomy = generate_taxonomy(small_spec(), seed=8)
        part = PartitionSpec(n_participants=1, superclasses_per_participant=(4, 4),
                             instances_per_superclass=15, mode="iid", seed=1)
        (shard,) = partition(pool, taxonomy, part)
        assert tuple(shard.label_space) == (0, 1, 2, 3)
        assert len(shard.train) == 60

    def test_noniid_subclass_purity(self):
        pool, taxonomy = generate_taxonomy(small_spec(subclasses_per_superclass=4,
                                                      instances_per_subclass=100), seed=3)
        part = PartitionSpec(n_participants=3, superclasses_per_participant=(2, 3),
                             instances_per_superclass=12, mode="noniid",
                             subclasses_per_superclass_owned=(1, 2), seed=6)
        shards = partition(pool, taxonomy, part)
        for shard in shards:
            subs = pool.subclass_labels[shard.train.source_rows]
            supers = pool.superclass_labels[shard.train.source_rows]
            for sub, sup in zip(subs.tolist(), supers.tolist()):
                assert sub in shard.owned_subclasses[sup]

    def test_noniid_disjoint_owned_subclasses_give_disjoint_draws(self):
        # Seed chosen so two participants share a superclass while owning
        # disjoint subclass sets; their instances must come from disjoint
        # subclasses, checked through their source rows' subclass labels.
        spec = small_spec(n_superclasses=2, subclasses_per_superclass=4,
                          instances_per_subclass=100)
        pool, taxonomy = generate_taxonomy(spec, seed=3)
        found = False
        for seed in range(40):
            part = PartitionSpec(n_participants=2, superclasses_per_participant=(2, 2),
                                 instances_per_superclass=10, mode="noniid",
                                 subclasses_per_superclass_owned=(2, 2), seed=seed)
            a, b = partition(pool, taxonomy, part)
            for sup in set(a.owned_subclasses) & set(b.owned_subclasses):
                if not set(a.owned_subclasses[sup]) & set(b.owned_subclasses[sup]):
                    found = True
                    subs_a = pool.subclass_labels[a.train.source_rows][
                        pool.superclass_labels[a.train.source_rows] == sup]
                    subs_b = pool.subclass_labels[b.train.source_rows][
                        pool.superclass_labels[b.train.source_rows] == sup]
                    assert not set(subs_a.tolist()) & set(subs_b.tolist())
        assert found

    def test_pool_exhaustion_raises(self):
        pool, taxonomy = generate_taxonomy(small_spec(instances_per_subclass=5), seed=1)
        part = PartitionSpec(n_participants=2, superclasses_per_participant=(4, 4),
                             instances_per_superclass=50, mode="iid", seed=2)
        with pytest.raises(DomainError, match="pool exhausted"):
            partition(pool, taxonomy, part)

    def test_overlap_resampling_cap(self, monkeypatch):
        pool, taxonomy = generate_taxonomy(
            small_spec(n_superclasses=30, instances_per_subclass=10), seed=1)
        monkeypatch.setattr(domain_mod, "_OVERLAP_ATTEMPTS", 1)
        part = PartitionSpec(n_participants=2, superclasses_per_participant=(1, 1),
                             instances_per_superclass=2, mode="iid", seed=0)
        with pytest.raises(DomainError, match="overlap"):
            partition(pool, taxonomy, part)

    def test_exclude_rows_respected(self):
        pool, taxonomy = generate_taxonomy(small_spec(instances_per_subclass=80), seed=4)
        test_rows = draw_test_rows(pool, taxonomy, per_superclass=10, seed=5)
        reserved = np.concatenate(list(test_rows.values()))
        part = PartitionSpec(n_participants=2, superclasses_per_participant=(2, 3),
                             instances_per_superclass=15, mode="iid", seed=6)
        shards = partition(pool, taxonomy, part, exclude_rows=reserved)
        reserved_set = set(reserved.tolist())
        for shard in shards:
            assert not set(shard.train.source_rows.tolist()) & reserved_set

    def test_determinism(self):
        pool, taxonomy = generate_taxonomy(small_spec(), seed=4)
        part = PartitionSpec(n_participants=3, superclasses_per_participant=(2, 3),
                             instances_per_superclass=10, mode="noniid", seed=12)
        a = partition(pool, taxonomy, part)
        b = partition(pool, taxonomy, part)
        for x, y in zip(a, b):
            assert tuple(x.label_space) == tuple(y.label_space)
            assert np.array_equal(x.train.source_rows, y.train.source_rows)


class TestUnlabeled:
    def test_uniform_within_expanded_bounds(self):
        pool, _ = generate_taxonomy(small_spec(), seed=7)
        data = uniform_random_unlabeled(pool, size=5000, seed=1, margin=0.25)
        assert len(data) == 5000
        lo = pool.features.min(axis=0)
        hi = pool.features.max(axis=0)
        span = hi - lo
        assert (data.features >= lo - 0.25 * span).all()
        assert (data.features <= hi + 0.25 * span).all()

    def test_single_instance(self):
        pool, _ = generate_taxonomy(small_spec(), seed=7)
        assert len(uniform_random_unlabeled(pool, size=1, seed=2)) == 1

    def test_prefix_nesting(self):
        pool, taxonomy = generate_taxonomy(small_spec(), seed=7)
        big = uniform_random_unlabeled(pool, size=400, seed=3)
        small = uniform_random_unlabeled(pool, size=50, seed=3)
        assert np.array_equal(big.features[:50], small.features)
        h_big = held_out_unlabeled(taxonomy, used_subclasses=[0, 1], size=300, seed=9)
        h_small = held_out_unlabeled(taxonomy, used_subclasses=[0, 1], size=40, seed=9)
        assert np.array_equal(h_big.features[:40], h_small.features)

    def test_held_out_matches_cluster_means(self):
        # Output clusters should sit near the held-out generator means:
        # sample mean of each cluster within 3 sigma / sqrt(n).
        spec = small_spec(n_superclasses=2, subclasses_per_superclass=2,
                          instance_noise=0.4)
        pool, taxonomy = generate_taxonomy(spec, seed=5)
        used = [0, 1]
        held = [2, 3]
        data = held_out_unlabeled(taxonomy, used, size=4000, seed=11)
        means = taxonomy.subclass_means[held]
        d2 = ((data.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        nearest = d2.argmin(axis=1)
        for j in range(len(held)):
            cluster = data.features[nearest == j]
            assert len(cluster) > 100
            tol = 3.0 * spec.instance_noise / np.sqrt(len(cluster))
            assert np.all(np.abs(cluster.mean(axis=0) - means[j]) < 3 * tol)

    def test_held_out_unavailable_raises(self):
        _, taxonomy = generate_taxonomy(small_spec(), seed=5)
        with pytest.raises(DomainError, match="held-out"):
            held_out_unlabeled(taxonomy, used_subclasses=range(taxonomy.n_subclasses),
                               size=10, seed=0)


_PROPERTY_POOL, _PROPERTY_TAXONOMY = generate_taxonomy(
    small_spec(n_superclasses=5, subclasses_per_superclass=3,
               instances_per_subclass=80), seed=1)


@given(seed=st.integers(0, 2 ** 31), mode=st.sampled_from(["iid", "noniid"]),
       n=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_property_partition_invariants(seed, mode, n):
    spec = PartitionSpec(n_participants=n, superclasses_per_participant=(2, 3),
                         instances_per_superclass=10, mode=mode, seed=seed)
    shards = partition(_PROPERTY_POOL, _PROPERTY_TAXONOMY, spec)
    seen = set()
    for shard in shards:
        rows = set(shard.train.source_rows.tolist())
        assert not rows & seen
        seen |= rows
        assert len(shard.train) == 10 * len(shard.label_space)
        # labels are exactly the owned superclasses
        assert set(shard.train.labels.tolist()) <= set(shard.label_space)
        if n >= 2:
            assert any(set(shard.label_space) & set(o.label_space)
                       for o in shards if o.participant != shard.participant)
        if mode == "noniid":
            subs = _PROPERTY_POOL.subclass_labels[shard.train.source_rows]
            supers = _PROPERTY_POOL.superclass_labels[shard.train.source_rows]
            for sub, sup in zip(subs.tolist(), supers.tolist()):
                assert sub in shard.owned_subclasses[sup]
    # identical spec, identical draw
    again = partition(_PROPERTY_POOL, _PROPERTY_TAXONOMY, spec)
    for a, b in zip(shards, again):
        assert np.array_equal(a.train.source_rows, b.train.source_rows)


@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                   width=64, min_value=-1e12, max_value=1e12),
                         min_size=3, max_size=3),
                min_size=1, max_size=20),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_property_csv_round_trip_exact(tmp_path_factory, rows, labeled):
    tmp = tmp_path_factory.mktemp("csv")
    features = np.array(rows, dtype=np.float64)
    path = tmp / "data.csv"
    if labeled:
        data = LabeledDataset(features, np.arange(len(features)) % 3)
        save_csv(data, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.labels, data.labels)
    else:
        data = UnlabeledDataset(features)
        save_csv(data, path)
        loaded = load_csv(path)
    assert loaded.features.tobytes() == data.features.tobytes()


class TestCsv:
    def test_labeled_round_trip(self, tmp_path):
        data = LabeledDataset(np.array([[0.1, -2.5], [3.14159, 1e-8], [7.0, 0.0]]),
                              np.array([0, 1, 0]))
        path = tmp_path / "labeled.csv"
        save_csv(data, path)
        loaded = load_csv(path)
        assert isinstance(loaded, LabeledDataset)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_int_columns_follow_the_label(self, tmp_path):
        data = LabeledDataset(np.array([[0.1, -2.5], [3.0, 1e-8]]), np.array([4, 7]))
        path = tmp_path / "extra.csv"
        save_csv(data, path, int_columns={"superclass": np.array([1, 2]),
                                          "subclass": np.array([3, 5])})
        assert path.read_text() == ("f0,f1,label,superclass,subclass\n"
                                    "0.10000000000000001,-2.5,4,1,3\n"
                                    "3,1e-08,7,2,5\n")

    def test_round_trip_is_bit_exact_for_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(0)
        data = UnlabeledDataset(rng.standard_normal((50, 4)) * 1e3)
        path = tmp_path / "u.csv"
        save_csv(data, path)
        loaded = load_csv(path)
        assert loaded.features.tobytes() == data.features.tobytes()

    def test_missing_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.5,1\n", encoding="utf-8")
        with pytest.raises(DomainError, match="line 3"):
            load_csv(path)

    @pytest.mark.parametrize("text, cells, width", [
        ("f0,f1,label\n0.5,1\n0.25,0\n", 2, 3),  # every row a cell short of the header
        ("f0,f1\n1.0,2.0,3.0\n", 3, 2),
    ])
    def test_rows_are_checked_against_the_header_width(self, tmp_path, text, cells, width):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DomainError,
                           match=f"line 2: ragged row with {cells} cells, expected {width}"):
            load_csv(path)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,x\n", encoding="utf-8")
        with pytest.raises(DomainError, match="line 2, column 2"):
            load_csv(path)
        # blank lines are skipped, but still counted
        path.write_text("f0,label\n\n1.0,0\nx,1\n", encoding="utf-8")
        with pytest.raises(DomainError, match="line 4, column 1"):
            load_csv(path)
        path.write_text("\nf0,f1\n \n1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(DomainError, match="line 4: ragged row"):
            load_csv(path)

    def test_unlabeled_header_row_count(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n5.0,6.0\n", encoding="utf-8")
        loaded = load_csv(path)
        assert isinstance(loaded, UnlabeledDataset)
        assert len(loaded) == 3

    def test_label_outside_declared_space(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("f0,label\n1.0,0\n2.0,9\n", encoding="utf-8")
        with pytest.raises(DomainError, match="label 9"):
            load_csv(path, label_space=LabelSpace((0, 1)))

    def test_headerless_file_is_rejected(self, tmp_path):
        # save_csv always writes a header; a first row of numbers is no header
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2\n3.0,4\n", encoding="utf-8")
        with pytest.raises(DomainError, match=re.escape(f"{path}: ") + ".*header row"):
            load_csv(path)
