import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcotrain.aggregation import PseudolabelBundle, PseudolabelSet
from fedcotrain.domain import (
    DomainError,
    LabeledDataset,
    LabelSpace,
    TaxonomySpec,
    UnlabeledDataset,
    generate_taxonomy,
    held_out_unlabeled,
)
from fedcotrain.learners import (
    LEARNER_KINDS,
    KNearestNeighborsClassifier,
    LearnerError,
    TrainConfig,
    _column_moments,
    _row_sums,
    evaluate,
    make_classifier,
    materialize_bundle,
    pseudolabel,
    train_local,
    update_train,
)


def two_clusters(n=50, seed=0, sep=2.0, noise=0.5):
    rng = np.random.default_rng(seed)
    a = rng.normal((-sep, 0.0), noise, (n, 2))
    b = rng.normal((sep, 0.0), noise, (n, 2))
    X = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    return LabeledDataset(X, y)


SPACE01 = LabelSpace((0, 1))


class TestContract:
    @pytest.mark.parametrize("kind", sorted(LEARNER_KINDS))
    def test_train_predict_closed_world(self, kind):
        data = two_clusters(seed=3)
        clf = train_local(kind, SPACE01, data, TrainConfig(seed=1, epochs=30))
        preds = clf.predict_batch(data.features)
        assert set(preds.tolist()) <= {0, 1}
        assert clf.predict(data.features[0]) in (0, 1)

    @pytest.mark.parametrize("kind", sorted(LEARNER_KINDS))
    def test_training_is_deterministic(self, kind):
        data = two_clusters(seed=5)
        probe = np.random.default_rng(9).normal(0, 2, (40, 2))
        a = train_local(kind, SPACE01, data, TrainConfig(seed=7, epochs=40))
        b = train_local(kind, SPACE01, data, TrainConfig(seed=7, epochs=40))
        assert a.predict_batch(probe).tobytes() == b.predict_batch(probe).tobytes()

    def test_untrained_prediction_rejected(self):
        clf = make_classifier("logreg", SPACE01, TrainConfig())
        with pytest.raises(LearnerError, match="untrained"):
            clf.predict_batch(np.zeros((1, 2)))

    def test_empty_dataset_rejected(self):
        clf = make_classifier("knn", SPACE01, TrainConfig())
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(LearnerError, match="empty"):
            clf.train(empty)

    def test_label_outside_space_rejected(self):
        data = LabeledDataset(np.zeros((2, 2)), np.array([0, 9]))
        with pytest.raises(LearnerError, match="outside"):
            train_local("gnb", SPACE01, data, TrainConfig())

    def test_label_outside_space_error_names_each_outside_label_once(self):
        # the check sorts only once it has failed; the text stays sorted and
        # de-duplicated
        data = LabeledDataset(np.zeros((4, 2)), np.array([9, 0, 9, -3]))
        with pytest.raises(LearnerError) as info:
            train_local("gnb", SPACE01, data, TrainConfig())
        assert str(info.value) == (
            "training labels [-3, 9] outside the classifier's label space")

    @pytest.mark.parametrize("kind", sorted(LEARNER_KINDS))
    def test_prediction_names_a_feature_count_it_was_not_trained_on(self, kind):
        clf = train_local(kind, SPACE01, two_clusters(seed=23), TrainConfig(seed=1, epochs=5))
        with pytest.raises(LearnerError, match="trained on 2 features asked to predict "
                                               "rows of 3"):
            clf.predict_batch(np.zeros((3, 3)))

    def test_unknown_kind(self):
        with pytest.raises(LearnerError, match="unknown learner kind"):
            make_classifier("svm", SPACE01, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(LearnerError):
            TrainConfig(epochs=0)
        with pytest.raises(LearnerError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(LearnerError):
            TrainConfig(k=0)


class TestTrainLocal:
    def test_logreg_separable_clusters_beats_bar(self):
        data = two_clusters(n=50, seed=11, sep=2.0, noise=0.5)
        clf = train_local("logreg", SPACE01, data, TrainConfig(seed=2, epochs=100,
                                                               learning_rate=1.0))
        acc = evaluate(clf, data)
        # independent linear oracle: the midplane between the generator means
        bayes = float(np.mean((data.features[:, 0] > 0.0) == (data.labels == 1)))
        assert acc >= 0.95
        assert acc >= bayes - 0.05

    def test_one_nearest_neighbor_memorizes(self):
        data = two_clusters(n=30, seed=13)
        clf = train_local("knn", SPACE01, data, TrainConfig(k=1))
        assert evaluate(clf, data) == 1.0

    def test_single_class_constant(self):
        rng = np.random.default_rng(4)
        data = LabeledDataset(rng.normal(0, 1, (20, 3)), np.full(20, 5))
        for kind in sorted(LEARNER_KINDS):
            clf = train_local(kind, LabelSpace((5,)), data, TrainConfig(seed=1, epochs=10))
            assert evaluate(clf, data) == 1.0
            assert set(clf.predict_batch(rng.normal(0, 3, (10, 3))).tolist()) == {5}


class TestTieBreaking:
    def test_knn_vote_tie_goes_to_lowest_category(self):
        # Two equidistant neighbors with different labels: squared distances
        # are exactly equal, the 2-vote tie resolves to the lower id.
        data = LabeledDataset(np.array([[-1.0], [1.0]]), np.array([1, 0]))
        clf = train_local("knn", SPACE01, data, TrainConfig(k=2))
        assert clf.predict(np.array([0.0])) == 0

    def test_gnb_identical_class_statistics_tie(self):
        # Both classes fit the same rows, so every score ties exactly.
        rows = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
        data = LabeledDataset(np.vstack([rows, rows]), np.array([1, 1, 1, 0, 0, 0]))
        clf = train_local("gnb", SPACE01, data, TrainConfig())
        preds = clf.predict_batch(np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 0.5]]))
        assert preds.tolist() == [0, 0, 0]

    def test_gnb_rejects_a_feature_count_it_was_not_trained_on(self):
        clf = train_local("gnb", SPACE01, two_clusters(seed=19), TrainConfig())
        for width in (1, 3):
            with pytest.raises(ValueError):
                clf.predict_batch(np.zeros((4, width)))

    def test_logreg_boundary_point_from_trained_weights(self):
        data = two_clusters(n=40, seed=17)
        clf = train_local("logreg", SPACE01, data, TrainConfig(seed=3, epochs=80,
                                                               learning_rate=1.0))
        # solve for a point on the fitted decision boundary in standardized
        # coordinates, then check the scores really tie there
        delta = clf.weights[:, 0] - clf.weights[:, 1]
        b, w = delta[0], delta[1:]
        z = -b * w / (w @ w)
        x = z * clf.std + clf.mean
        scores = clf._scores(x[None, :])[0]
        assert abs(scores[0] - scores[1]) < 1e-9
        # force the tie to be exact and verify the documented resolution
        clf.weights[:, 1] = clf.weights[:, 0]
        assert clf.predict(x) == 0
        assert set(clf.predict_batch(data.features).tolist()) == {0}


class TestPseudolabel:
    def test_single_instance(self):
        data = two_clusters(seed=19)
        clf = train_local("knn", SPACE01, data, TrainConfig())
        labels = pseudolabel(clf, UnlabeledDataset(np.array([[0.1, 0.2]])))
        assert labels.shape == (1,)

    def test_constant_classifier_constant_vector(self):
        rng = np.random.default_rng(6)
        data = LabeledDataset(rng.normal(0, 1, (15, 2)), np.full(15, 3))
        clf = train_local("gnb", LabelSpace((3,)), data, TrainConfig())
        labels = pseudolabel(clf, UnlabeledDataset(rng.normal(0, 4, (25, 2))))
        assert set(labels.tolist()) == {3}

    def test_pure_function_of_inputs(self):
        data = two_clusters(seed=21)
        clf = train_local("mlp", SPACE01, data, TrainConfig(seed=2, epochs=50))
        public = UnlabeledDataset(np.random.default_rng(8).normal(0, 2, (30, 2)))
        assert np.array_equal(pseudolabel(clf, public), pseudolabel(clf, public))


class TestUpdateTrain:
    def test_empty_bundle_equals_plain_retrain(self):
        data = two_clusters(seed=23)
        cfg = TrainConfig(seed=5, epochs=60)
        public = UnlabeledDataset(np.random.default_rng(1).normal(0, 2, (10, 2)))
        fed = update_train("logreg", SPACE01, data, PseudolabelBundle.empty(0),
                           public, cfg)
        again = update_train("logreg", SPACE01, data, PseudolabelBundle.empty(0),
                             public, cfg)
        assert fed.weights.tobytes() == again.weights.tobytes()

    def test_out_of_range_index_rejected(self):
        data = two_clusters(seed=23)
        public = UnlabeledDataset(np.zeros((5, 2)))
        bundle = PseudolabelBundle(owner=0, entries=(PseudolabelSet(0, (99,)),))
        with pytest.raises(LearnerError, match="outside public dataset"):
            update_train("knn", SPACE01, data, bundle, public, TrainConfig())

    def test_materialize_orders_by_category_then_index(self):
        public = UnlabeledDataset(np.arange(10.0).reshape(5, 2))
        bundle = PseudolabelBundle(owner=2, entries=(PseudolabelSet(0, (4,)),
                                                     PseudolabelSet(1, (0, 2))))
        data = materialize_bundle(bundle, public)
        assert data.labels.tolist() == [0, 1, 1]
        assert np.array_equal(data.features[0], public.features[4])

    def test_materialize_names_first_out_of_range_index_in_bundle_order(self):
        public = UnlabeledDataset(np.zeros((5, 2)))
        bundle = PseudolabelBundle(owner=0, entries=(PseudolabelSet(0, (1, 7)),
                                                     PseudolabelSet(1, (2, 6))))
        with pytest.raises(LearnerError,
                           match="bundle index 7 outside public dataset of size 5"):
            materialize_bundle(bundle, public)
        with pytest.raises(LearnerError, match="cannot materialize an empty bundle"):
            materialize_bundle(PseudolabelBundle(owner=0, entries=(PseudolabelSet(0, ()),)),
                               public)

    def test_correct_pseudolabels_on_unseen_blobs_improve_accuracy(self):
        # A participant sees only the first subclass of each superclass but is
        # tested on all of them; true-labeled public points from the unseen
        # blobs must lift its test accuracy.
        spec = TaxonomySpec(n_superclasses=2, subclasses_per_superclass=2,
                            feature_dim=2, instances_per_subclass=120,
                            superclass_spread=1.2, subclass_spread=2.8,
                            instance_noise=0.4)
        pool, taxonomy = generate_taxonomy(spec, seed=31)
        seen = [0, 2]
        train_rows = np.concatenate([
            np.flatnonzero(pool.subclass_labels == s)[:12] for s in seen])
        test_rows = np.concatenate([
            np.flatnonzero(pool.subclass_labels == s)[-30:] for s in range(4)])
        space = LabelSpace((0, 1))
        train = LabeledDataset(pool.features[train_rows],
                               pool.superclass_labels[train_rows])
        test = LabeledDataset(pool.features[test_rows],
                              pool.superclass_labels[test_rows])
        public = held_out_unlabeled(taxonomy, used_subclasses=seen, size=400, seed=5)
        means = taxonomy.subclass_means
        nearest = ((public.features[:, None, :] - means[None, :, :]) ** 2).sum(2).argmin(1)
        truth = nearest // taxonomy.subclasses_per_superclass
        entries = tuple(
            PseudolabelSet(c, tuple(np.flatnonzero(truth == c).tolist()))
            for c in (0, 1))
        bundle = PseudolabelBundle(owner=0, entries=entries)
        cfg = TrainConfig(seed=9, epochs=60, k=3)
        local = update_train("knn", space, train, PseudolabelBundle.empty(0), public, cfg)
        fed = update_train("knn", space, train, bundle, public, cfg)
        assert len(bundle) > 5 * len(train)
        assert evaluate(fed, test) > evaluate(local, test)


class TestEvaluate:
    def test_perfect_and_constant(self):
        data = two_clusters(n=20, seed=27)
        clf = train_local("knn", SPACE01, data, TrainConfig(k=1))
        assert evaluate(clf, data) == 1.0
        rng = np.random.default_rng(3)
        const_train = LabeledDataset(rng.normal(5, 0.1, (10, 2)), np.full(10, 0))
        const = train_local("gnb", SPACE01, const_train, TrainConfig())
        balanced = LabeledDataset(rng.normal(0, 1, (40, 2)),
                                  np.array([0, 1] * 20))
        assert evaluate(const, balanced) == 0.5

    def test_matches_recount_oracle(self):
        data = two_clusters(n=60, seed=29, sep=1.0, noise=0.8)
        clf = train_local("logreg", SPACE01, data, TrainConfig(seed=4, epochs=50))
        test = two_clusters(n=40, seed=30, sep=1.0, noise=0.8)
        acc = evaluate(clf, test)
        preds = clf.predict_batch(test.features)
        correct = sum(1 for p, y in zip(preds.tolist(), test.labels.tolist()) if p == y)
        assert acc == correct / len(test)
        assert 0.0 <= acc <= 1.0

    def test_empty_test_rejected(self):
        data = two_clusters(seed=31)
        clf = train_local("knn", SPACE01, data, TrainConfig())
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(LearnerError, match="empty"):
            evaluate(clf, empty)

    def test_test_labels_outside_space_rejected(self):
        data = two_clusters(seed=31)
        clf = train_local("knn", SPACE01, data, TrainConfig())
        bad = LabeledDataset(np.zeros((2, 2)), np.array([0, 7]))
        with pytest.raises(DomainError, match="outside"):
            evaluate(clf, bad)

    def test_test_labels_outside_space_error_names_each_outside_label_once(self):
        clf = train_local("knn", SPACE01, two_clusters(seed=31), TrainConfig())
        bad = LabeledDataset(np.zeros((4, 2)), np.array([9, 0, 9, -3]))
        with pytest.raises(DomainError) as info:
            evaluate(clf, bad)
        assert str(info.value) == "test labels [-3, 9] outside the classifier's label space"


def array_sha(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def pin_data(n=1280, d=6, seed=41, classes=(3, 7, 20, 21)):
    """One noisy blob per category id; four sparse ids by default."""
    rng = np.random.default_rng(seed)
    classes = np.array(classes)
    y = classes[rng.integers(0, len(classes), n)]
    centers = rng.normal(0.0, 1.5, (len(classes), d))
    X = centers[np.searchsorted(classes, y)] + rng.normal(0.0, 1.0, (n, d))
    return LabeledDataset(X, y), LabelSpace(tuple(classes.tolist()))


class TestPinnedOutputs:
    """Fitted state and predictions pinned bit for bit.

    1280 rows at batch 1000 end every epoch on a 280-row minibatch, so the
    pins cover the short last minibatch as well as the full one.
    """

    CONFIG = TrainConfig(seed=5, epochs=20, batch_size=1000)

    def test_mlp_weights(self):
        data, space = pin_data()
        clf = train_local("mlp", space, data, self.CONFIG)
        assert array_sha(clf.w1, clf.b1, clf.w2, clf.b2) == (
            "d9cae04d62a7d1c8719a8c76f99a1e4460d6a7e74b1dd58b7eb8fdf9d9d62f11")

    def test_logreg_weights(self):
        data, space = pin_data()
        clf = train_local("logreg", space, data, self.CONFIG)
        assert array_sha(clf.weights) == (
            "14aa3233597bd793d868970c4c987ae4f03be42d87ddc531ddeb87a7ad79c6bd")

    def test_knn_predictions_on_tie_heavy_grid(self):
        rng = np.random.default_rng(43)
        classes = np.array([2, 5, 11])
        train = LabeledDataset(rng.integers(-3, 4, (600, 3)).astype(np.float64),
                               classes[rng.integers(0, 3, 600)])
        probe = rng.integers(-4, 5, (400, 3)).astype(np.float64)
        space = LabelSpace(tuple(classes.tolist()))
        shas = [array_sha(train_local("knn", space, train, TrainConfig(k=k))
                          .predict_batch(probe))
                for k in (1, 4, 9, 700)]
        assert array_sha(*shas) == (
            "b37729f6bae2fefe1a1d80b61660dba454c5d0c954184085deb953f9913eadab")

    # Seven and ten classes put the softmax row sum on both sides of numpy's
    # eight-way unrolled summation.
    MLP_PINS = {
        7: "a2889f7946bb3a331ee7b53516c6e28e51f22b9a36e9df2c7b3050616b88890e",
        10: "6db7479fe26c05c4d0816b93d9faefe278debe40e2edfcdd087a7409540ed6b0",
    }
    LOGREG_PINS = {
        7: "0bf9a9f17d6d6d656388e0be55c4a67b73600ffaf45b293ea2718e5625f6aa5c",
        10: "e386d3094048fa4229abc9c1e4f6f562a433e9a6b476662f2b9c938df8d418cf",
    }

    @pytest.mark.parametrize("k", sorted(MLP_PINS))
    def test_mlp_weights_at_more_classes(self, k):
        data, space = pin_data(classes=tuple(range(1, 3 * k, 3)))
        clf = train_local("mlp", space, data, self.CONFIG)
        assert array_sha(clf.w1, clf.b1, clf.w2, clf.b2) == self.MLP_PINS[k]

    @pytest.mark.parametrize("k", sorted(LOGREG_PINS))
    def test_logreg_weights_at_more_classes(self, k):
        data, space = pin_data(classes=tuple(range(1, 3 * k, 3)))
        clf = train_local("logreg", space, data, self.CONFIG)
        assert array_sha(clf.weights) == self.LOGREG_PINS[k]

    # Feature counts below, at and above numpy's unrolled and halved row sums,
    # each at 3 and 10 classes; the second category gets no training rows, so
    # its scores are all -inf.
    GNB_PINS = {
        1: "f7a1b1370ebda2179d54e94683a5ee1b0f46ac830a135f0dcb2e1491da6e153a",
        2: "85550cf44d5ac5e6463252893ea4893453c705e25f1f3e671ac9889e38950af4",
        7: "9f6b182bcf89096132845413e93dd98681202886a596e1dcae7efcf4f6476f71",
        8: "0583cefcc4d95a707164d4b5dea25817c38591c8d25230550167172db74c9c71",
        9: "75eac63b4a21277ded7a4a009b3fb872eb57eed80e41a34b52ed33001971b22c",
        130: "96255770feed9409c83635d766ff769914252c4699962f64d3b1ba2a2eb9b18b",
    }

    @pytest.mark.parametrize("d", sorted(GNB_PINS))
    def test_gnb_scores_and_predictions(self, d):
        shas = []
        for k in (3, 10):
            ids = tuple(range(2, 5 * k, 5))
            data, space = pin_data(n=600, d=d, seed=d, classes=ids)
            keep = data.labels != ids[1]
            train = LabeledDataset(data.features[keep], data.labels[keep])
            clf = train_local("gnb", space, train, TrainConfig())
            probe = pin_data(n=300, d=d, seed=1000 + d, classes=ids)[0].features
            shas.append(array_sha(clf._scores(probe), clf.predict_batch(probe)))
        assert array_sha(*shas) == self.GNB_PINS[d]


def test_row_sums_match_numpy_row_sums_at_every_width():
    # Widths 1-300 cover numpy's sequential (< 8), unrolled (8-128) and halved
    # (> 128) row sums and every boundary between them, so a numpy that sums
    # rows in another order fails here instead of changing learner outputs.
    rng = np.random.default_rng(17)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
    for w in range(1, 301):
        X = rng.normal(0.0, 1.0, (12, w)) * 10.0 ** rng.integers(-12, 13, (12, w))
        X[0] = -0.0
        X[1] = rng.choice([-0.0, 0.0], w)
        X[6:8][rng.random((2, w)) < 0.3] = -0.0
        X[8, rng.integers(w)] = np.inf
        X[9, rng.integers(w)] = -np.inf
        mixed = rng.random((2, w)) < 0.05
        X[10:][mixed] = rng.choice(specials, mixed.sum())
        cols = list(np.ascontiguousarray(X.T))
        with np.errstate(invalid="ignore"):
            expected = np.stack(cols, axis=1).sum(axis=1)
            got = _row_sums(cols)
        # NaN payload bits may differ; values, zero signs and NaN places may not
        assert np.array_equal(got, expected, equal_nan=True), w
        finite = ~np.isnan(expected)
        assert np.array_equal(np.signbit(got[finite]), np.signbit(expected[finite])), w
        assert not np.signbit(got[0]), w


def feature_matrix(rng, n, d, layout, trial):
    """An (n, d) feature matrix in the given memory layout.

    Column j is of kind (j + trial) % 5, so every width meets every kind:
    noise at a large offset, a constant, all -0.0, mixed signed zeros, and
    noise with scattered -0.0.
    """
    X = np.empty((n, d))
    for j in range(d):
        kind = (j + trial) % 5
        if kind == 0:
            X[:, j] = rng.normal(rng.choice([0.0, 1e8, -3e12]), 10.0 ** rng.integers(-3, 4), n)
        elif kind == 1:
            X[:, j] = rng.choice([2.75, -1e8 / 3])
        elif kind == 2:
            X[:, j] = -0.0
        elif kind == 3:
            X[:, j] = rng.choice([-0.0, 0.0], n)
        else:
            X[:, j] = rng.normal(0.0, 1.0, n)
            X[rng.random(n) < 0.3, j] = -0.0
    if layout == "F":
        return np.asfortranarray(X)
    if layout == "view":
        wide = np.zeros((n, d + 3))
        wide[:, 1:d + 1] = X
        return wide[:, 1:d + 1]
    return X


@pytest.mark.parametrize("layout", ["C", "view", "F"])
def test_column_moments_match_numpy_axis_0_moments(layout):
    # numpy sums axis 0 sequentially unless it is X's innermost axis (d = 1,
    # or Fortran order), then pairwise; n on both sides of the pairwise sum's
    # 8-wide unroll and 128-long blocks. A numpy that sums in another order
    # fails here instead of changing the GNB fit.
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 4, 9):
        for n in (1, 2, 7, 8, 127, 128, 129, 1000, 100_003):
            for trial in range(5):
                X = feature_matrix(rng, n, d, layout, trial)
                columns = X.T.copy()
                mean, var = _column_moments(columns, np.empty_like(columns),
                                            pairwise=d == 1 or layout == "F")
                # bytes, so zero signs count
                assert mean.tobytes() == X.mean(axis=0).tobytes(), (d, n, trial)
                assert var.tobytes() == X.var(axis=0).tobytes(), (d, n, trial)
                assert columns.tobytes() == X.T.tobytes()


def reference_gnb_fit(X, y, classes, smoothing):
    """The per-class mask-and-copy GNB fit that the column passes replaced."""
    k, d = len(classes), X.shape[1]
    log_prior = np.full(k, -np.inf)
    mu = np.zeros((k, d))
    var = np.ones((k, d))
    fitted = np.zeros(k, dtype=bool)
    floor = smoothing * max(X.var(axis=0).max(), 1e-12)
    for idx, c in enumerate(classes):
        rows = X[y == c]
        if len(rows) == 0:
            continue
        fitted[idx] = True
        log_prior[idx] = np.log(len(rows) / len(X))
        mu[idx] = rows.mean(axis=0)
        var[idx] = rows.var(axis=0) + floor
    return mu, var, log_prior, fitted


@pytest.mark.parametrize("layout", ["C", "view", "F"])
@pytest.mark.parametrize("d", [1, 2])
def test_gnb_fit_matches_per_class_reference(d, layout):
    # 1e5 rows with labels in random order; category 6 gets no rows and
    # category 30 exactly one
    rng = np.random.default_rng(60 + d)
    n = 100_000
    y = rng.choice(np.array([1, 4, 9]), n, p=[0.5, 0.3, 0.2])
    y[rng.integers(n)] = 30
    centers = np.zeros(31)
    centers[[1, 4, 9, 30]] = (-4.0, 0.5, 1e6, 7.0)
    X = feature_matrix(rng, n, d, layout, trial=0)
    X += centers[y][:, None]
    space = LabelSpace((1, 4, 6, 9, 30))
    clf = make_classifier("gnb", space, TrainConfig(smoothing=1e-4)).train(LabeledDataset(X, y))
    expected = reference_gnb_fit(X, y, clf.classes, 1e-4)
    for got, want in zip((clf.mu, clf.var, clf.log_prior, clf.fitted), expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def reference_knn_scores(train_X, train_y_idx, n_classes, k, X):
    """Votes of the k nearest training rows; equidistant rows in training order."""
    sq = np.einsum("ij,ij->i", X, X)
    train_sq = np.einsum("ij,ij->i", train_X, train_X)
    d2 = sq[:, None] + train_sq[None, :] - 2.0 * (X @ train_X.T)
    votes = np.zeros((len(X), n_classes))
    for row, order in enumerate(np.argsort(d2, axis=1, kind="stable")):
        for col in order[:min(k, len(train_X))]:
            votes[row, train_y_idx[col]] += 1.0
    return votes


@given(st.integers(1, 40), st.integers(1, 30), st.integers(1, 3), st.integers(1, 45),
       st.sampled_from([1, 4, 8191]), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_property_knn_scores_match_stable_sort_reference(n_train, n_query, d, k,
                                                         stride, seed):
    # Integer-grid features on a tiny grid make many distances tie exactly.
    rng = np.random.default_rng(seed)
    classes = stride * np.arange(int(rng.integers(1, 5)))
    train = LabeledDataset(rng.integers(-2, 3, (n_train, d)).astype(np.float64),
                           rng.choice(classes, n_train))
    X = rng.integers(-2, 3, (n_query, d)).astype(np.float64)
    clf = KNearestNeighborsClassifier(LabelSpace(tuple(classes.tolist())),
                                      TrainConfig(k=k)).train(train)
    expected = reference_knn_scores(train.features, np.searchsorted(clf.classes, train.labels),
                                    len(clf.classes), k, X)
    scores = clf._scores(X)
    assert scores.dtype == expected.dtype
    assert np.array_equal(scores, expected)


def test_knn_scores_match_reference_when_distances_overflow():
    # A query of 1e308 overflows the squared distance to inf - inf = NaN, so
    # fewer than k rows lie within the k-th distance; the sort decides there.
    rng = np.random.default_rng(3)
    train = LabeledDataset(rng.normal(3.0, 0.5, (30, 2)), rng.integers(0, 3, 30))
    X = np.array([[1e308, 1e308], [1e308, 0.0], [0.5, -0.5]])
    clf = KNearestNeighborsClassifier(LabelSpace((0, 1, 2)), TrainConfig(k=4)).train(train)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference_knn_scores(train.features, train.labels, 3, 4, X)
        assert np.array_equal(clf._scores(X), expected)
