"""Black-box classifier contract and four built-in heterogeneous learners.

Participants may bring any classifier that honors the contract: train on a
labeled dataset, then predict categories from the participant's own label
space, deterministically, for arbitrary instances. The built-ins cover four
model families (multinomial logistic regression, k-nearest neighbors,
Gaussian naive Bayes, one-hidden-layer network) so a federation can exercise
model, training, and task heterogeneity without external dependencies.

All score-based predictions break ties toward the lowest category id, and a
classifier trained with a given seed is a pure function: repeated runs are
byte-identical.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import PseudolabelBundle
from .domain import DomainError, LabeledDataset, LabelSpace, UnlabeledDataset
from .seeding import derive_seed


class LearnerError(ValueError):
    """Contract violation: bad config, empty data, untrained use."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared across learner kinds; unused fields are ignored.

    ``batch_size`` applies to local training; update training caps its
    minibatch at ``update_batch_size`` (or the combined dataset size if
    smaller).
    """

    seed: int = 0
    learning_rate: float = 0.5
    epochs: int = 100
    batch_size: int = 50
    update_batch_size: int = 1000
    k: int = 5
    smoothing: float = 1e-9
    hidden_width: int = 32

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise LearnerError("learning_rate must be finite and > 0")
        for name in ("epochs", "batch_size", "update_batch_size", "k", "hidden_width"):
            if getattr(self, name) < 1:
                raise LearnerError(f"{name} must be >= 1")
        if not 0 < self.smoothing < math.inf:
            raise LearnerError("smoothing must be finite and > 0")


class Classifier(ABC):
    """Contract: closed-world, deterministic prediction after training."""

    kind: str = "abstract"

    def __init__(self, label_space: LabelSpace, config: TrainConfig):
        self.config = config
        # Ascending class order makes argmax tie-breaking resolve to the
        # lowest category id.
        self.classes = np.array(sorted(label_space.categories), dtype=np.int64)
        # the feature count it was trained on; None while untrained
        self.n_features: int | None = None

    def train(self, dataset: LabeledDataset) -> "Classifier":
        if len(dataset) == 0:
            raise LearnerError("cannot train on an empty dataset")
        outside = _labels_outside(dataset.labels, self.classes)
        if outside:
            raise LearnerError(
                f"training labels {outside} outside the classifier's label space"
            )
        self._fit(dataset.features, dataset.labels)
        self.n_features = dataset.feature_dim
        return self

    def predict_batch(self, data: UnlabeledDataset | np.ndarray) -> np.ndarray:
        if self.n_features is None:
            raise LearnerError("classifier is untrained")
        X = data.features if isinstance(data, UnlabeledDataset) else np.asarray(data, dtype=np.float64)
        if X.ndim != 2:
            raise LearnerError("predict_batch expects a 2-D feature matrix")
        if X.shape[1] != self.n_features:
            raise LearnerError(f"classifier trained on {self.n_features} features "
                               f"asked to predict rows of {X.shape[1]}")
        scores = self._scores(X)
        return self.classes[np.argmax(scores, axis=1)]

    def predict(self, instance) -> int:
        return int(self.predict_batch(np.asarray(instance, dtype=np.float64)[None, :])[0])

    @abstractmethod
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None: ...

    @abstractmethod
    def _scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class scores, columns ordered by ascending category id."""


def _standardizer(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def _column_moments(columns: np.ndarray, scratch: np.ndarray, pairwise: bool):
    """Mean and variance of each row of a ``(d, n)`` array, bit for bit as numpy.

    The results equal ``X.mean(axis=0)`` and ``X.var(axis=0)`` for
    ``X = columns.T``: numpy's ``_var`` steps (sum / n, x - mean, x * x,
    sum / n), each sum in numpy's axis-0 order. Numpy sums axis 0 pairwise
    when it is X's innermost axis (d = 1, or Fortran order), as
    ``sum(axis=1)`` does here, and otherwise sequentially from +0.0: a row's
    cumulative sum runs in that order, and adding +0.0 turns an all -0.0
    row's -0.0 into numpy's +0.0. Each pass runs along a contiguous row
    instead of across X's d-long rows. ``scratch`` has the shape of
    ``columns`` and is overwritten.
    """
    n = columns.shape[1]

    def total(a):
        if pairwise:
            return a.sum(axis=1)
        return np.cumsum(a, axis=1, out=scratch)[:, -1] + 0.0

    mean = total(columns) / n
    deviation = np.subtract(columns, mean[:, None], out=scratch)
    np.multiply(deviation, deviation, out=deviation)
    return mean, total(deviation) / n


def _labels_outside(labels: np.ndarray, classes: np.ndarray) -> list[int]:
    """The distinct labels not in ``classes``, ascending; sorts only if any."""
    if np.isin(labels, classes).all():
        return []
    return np.setdiff1d(labels, classes).tolist()


def _one_hot(y_idx: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(y_idx), n_classes))
    out[np.arange(len(y_idx)), y_idx] = 1.0
    return out


def _row_sums(columns, out: np.ndarray | None = None) -> np.ndarray:
    """Sum equal-length 1-D columns row by row, bit for bit as numpy would.

    The result equals ``np.stack(columns, axis=1).sum(axis=1)``: numpy sums
    each row of a C-contiguous ``(n, w)`` array pairwise, and this adds whole
    columns in that same order. Below 8 columns the sum is sequential. From 8
    to 128 it keeps 8 accumulators, column j going to accumulator j % 8, joins
    them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the leftover
    columns in order. Above 128 it sums the two halves, split at a multiple of
    8, and adds them. The sum starts from +0.0, so a row of -0.0 sums to +0.0.
    Each column is one pass over n values instead of a length-w loop per row.
    Columns are float64; numpy's order is checked at every width up to 300 by
    the tests, so a numpy that sums rows differently fails them. The sums go
    into ``out`` when it is given.
    """
    w = len(columns)
    total = np.empty(len(columns[0])) if out is None else out
    total.fill(0.0)
    if w < 8:
        for column in columns:
            total += column
    elif w <= 128:
        r = np.array(columns[:8])
        tail = w - w % 8
        for start in range(8, tail, 8):
            for j in range(8):
                r[j] += columns[start + j]
        # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), each sum kept in its left term
        for step in (1, 2, 4):
            for j in range(0, 8, 2 * step):
                r[j] += r[j + step]
        total += r[0]
        for column in columns[tail:]:
            total += column
    else:
        # a zero start inside each half can only flip the sign of a zero,
        # which the outer +0.0 start resets
        half = w // 2
        half -= half % 8
        total += _row_sums(columns[:half])
        total += _row_sums(columns[half:])
    return total


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place in a C-contiguous ``logits``.

    Each step runs over whole columns. The row max is exact in any order; the
    row sum goes through ``_row_sums``, so every probability is bit-identical
    to ``exp(z - z.max(axis=1)) / sum(axis=1)`` at any number of classes.
    """
    columns = list(logits.T)
    top = columns[0].copy()
    for column in columns[1:]:
        np.maximum(top, column, out=top)
    logits -= top[:, None]
    np.exp(logits, out=logits)
    logits /= _row_sums(columns)[:, None]
    return logits


def _minibatches(rng: np.random.Generator, n: int, batch_size: int):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


class LogisticRegressionClassifier(Classifier):
    """Multinomial logistic regression via minibatch gradient descent."""

    kind = "logreg"

    def _fit(self, X, y):
        rng = np.random.default_rng(self.config.seed)
        self.mean, self.std = _standardizer(X)
        Z = (X - self.mean) / self.std
        n, d = Z.shape
        k = len(self.classes)
        targets = _one_hot(np.searchsorted(self.classes, y), k)
        Z1 = np.hstack([np.ones((n, 1)), Z])
        self.weights = rng.normal(0.0, 0.01, (d + 1, k))
        batch = min(self.config.batch_size, n)
        for _ in range(self.config.epochs):
            for rows in _minibatches(rng, n, batch):
                zb = Z1[rows]
                probs = _softmax(zb @ self.weights)
                grad = zb.T @ (probs - targets[rows]) / len(rows)
                self.weights -= self.config.learning_rate * grad

    def _scores(self, X):
        Z = (X - self.mean) / self.std
        return np.hstack([np.ones((len(Z), 1)), Z]) @ self.weights


class KNearestNeighborsClassifier(Classifier):
    """k-NN with Euclidean distance; neighbor votes break ties to lowest id."""

    kind = "knn"

    def _fit(self, X, y):
        self.train_X = X.copy()
        self.train_y_idx = np.searchsorted(self.classes, y)
        self.train_sq = np.einsum("ij,ij->i", self.train_X, self.train_X)

    def _scores(self, X):
        sq = np.einsum("ij,ij->i", X, X)
        d2 = sq[:, None] + self.train_sq[None, :] - 2.0 * (X @ self.train_X.T)
        k = min(self.config.k, len(self.train_X))
        # Every row within the k-th smallest distance is a neighbor; the copy
        # lets the partitioned matrix go at once.
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1].copy()
        chosen = d2 <= kth[:, None]
        # Where ties at the k-th distance overfill k (or NaN underfills it),
        # a stable sort keeps equidistant neighbors in training order, so
        # prediction is deterministic under distance ties.
        redo = np.flatnonzero(chosen.sum(axis=1) != k)
        neighbors = np.argsort(d2[redo], axis=1, kind="stable")[:, :k]
        chosen[redo] = False
        chosen[redo[:, None], neighbors] = True
        rows, cols = np.nonzero(chosen)
        n_classes = len(self.classes)
        votes = np.bincount(rows * n_classes + self.train_y_idx[cols],
                            minlength=len(X) * n_classes)
        return votes.reshape(len(X), n_classes).astype(np.float64)


class GaussianNaiveBayesClassifier(Classifier):
    """Per-class diagonal Gaussians with a variance floor.

    One stable sort groups each class's rows in dataset order, and
    ``_column_moments`` gives the floor (``smoothing`` times the largest
    feature variance) and each class's ``mu`` and ``var`` in a few linear
    passes, bit for bit as ``X.var(axis=0)`` in X's own layout and
    ``X[y == c].mean(axis=0)`` and ``.var(axis=0)`` of the C-ordered rows.

    A class's score is ``log_prior - 0.5 * sum_j((x_j - mu_j)**2 / var_j +
    log(2 pi var_j))``, summed over features in the order of
    ``_row_sums`` (numpy's row sum of the ``(n, d)`` terms), so scores are
    bit-identical to that row-wise expression at every d. A class with no
    training rows scores -inf.
    """

    kind = "gnb"

    def _fit(self, X, y):
        k = len(self.classes)
        n, d = X.shape
        self.log_prior = np.full(k, -np.inf)
        self.mu = np.zeros((k, d))
        self.var = np.ones((k, d))
        # Two (d, n) buffers serve every pass: a copy of X's columns and a
        # scratch, which then takes the columns grouped by class while the
        # copy becomes the class passes' scratch.
        columns = X.T.copy()
        scratch = np.empty_like(columns)
        axis0_innermost = d == 1 or abs(X.strides[0]) < abs(X.strides[1])
        spread = _column_moments(columns, scratch, pairwise=axis0_innermost)[1]
        floor = self.config.smoothing * max(spread.max(), 1e-12)
        # Labels are category ids below 2^15, so they sort as int16 (a radix
        # sort); a stable sort keeps each class's rows in dataset order.
        order = np.argsort(y.astype(np.int16), kind="stable")
        # order is a permutation, so "clip" clips nothing; unlike "raise" it
        # writes straight into out
        grouped = np.take(columns, order, axis=1, out=scratch, mode="clip")
        counts = np.bincount(y, minlength=self.classes[-1] + 1)[self.classes]
        self.fitted = counts > 0
        start = 0
        for idx, count in enumerate(counts.tolist()):
            if count:
                rows = slice(start, start + count)
                self.mu[idx], var = _column_moments(grouped[:, rows], columns[:, rows],
                                                    pairwise=d == 1)
                self.var[idx] = var + floor
                self.log_prior[idx] = np.log(count / n)
            start += count

    def _scores(self, X):
        # Each term is one pass over a feature of all rows, not a d-long loop
        # per row, and every class reuses the same two buffers: row j of
        # terms is (x_j - mu_j) ** 2 / var_j + log(2 pi var_j).
        features = np.ascontiguousarray(X.T)
        terms = np.empty_like(features)
        log_lik = np.empty(len(X))
        scores = np.full((len(X), len(self.classes)), -np.inf)
        for idx in range(len(self.classes)):
            if not self.fitted[idx]:
                continue
            log_norm = np.log(2.0 * np.pi * self.var[idx])
            np.subtract(features, self.mu[idx][:, None], out=terms)
            np.square(terms, out=terms)
            terms /= self.var[idx][:, None]
            terms += log_norm[:, None]
            _row_sums(terms, out=log_lik)
            log_lik *= -0.5
            log_lik += self.log_prior[idx]
            scores[:, idx] = log_lik
        return scores


class OneLayerNetworkClassifier(Classifier):
    """One-hidden-layer tanh network trained with minibatch gradient descent."""

    kind = "mlp"

    def _fit(self, X, y):
        rng = np.random.default_rng(self.config.seed)
        self.mean, self.std = _standardizer(X)
        Z = (X - self.mean) / self.std
        n, d = Z.shape
        h = self.config.hidden_width
        k = len(self.classes)
        targets = _one_hot(np.searchsorted(self.classes, y), k)
        self.w1 = rng.normal(0.0, 1.0 / np.sqrt(d), (d, h))
        self.b1 = np.zeros(h)
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(h), (h, k))
        self.b2 = np.zeros(k)
        batch = min(self.config.batch_size, n)
        lr = self.config.learning_rate
        # Per-fit buffers, sliced to a short last minibatch. Every step runs
        # the same floating-point operations in the same order as the plain
        # expressions would, only without fresh temporaries.
        zb_buf = np.empty((batch, d))
        targets_buf = np.empty((batch, k))
        hidden_buf = np.empty((batch, h))
        slope_buf = np.empty((batch, h))
        delta_hidden_buf = np.empty((batch, h))
        delta_out_buf = np.empty((batch, k))
        for _ in range(self.config.epochs):
            for rows in _minibatches(rng, n, batch):
                m = len(rows)
                zb = np.take(Z, rows, axis=0, out=zb_buf[:m])
                hidden = np.matmul(zb, self.w1, out=hidden_buf[:m])
                hidden += self.b1
                np.tanh(hidden, out=hidden)
                logits = np.matmul(hidden, self.w2, out=delta_out_buf[:m])
                logits += self.b2
                # the probabilities turn into the output error in place
                delta_out = _softmax(logits)
                delta_out -= np.take(targets, rows, axis=0, out=targets_buf[:m])
                delta_out /= m
                slope = np.multiply(hidden, hidden, out=slope_buf[:m])
                np.subtract(1.0, slope, out=slope)
                delta_hidden = np.matmul(delta_out, self.w2.T, out=delta_hidden_buf[:m])
                delta_hidden *= slope
                self.w2 -= lr * (hidden.T @ delta_out)
                self.b2 -= lr * delta_out.sum(axis=0)
                self.w1 -= lr * (zb.T @ delta_hidden)
                self.b1 -= lr * delta_hidden.sum(axis=0)

    def _scores(self, X):
        Z = (X - self.mean) / self.std
        hidden = np.tanh(Z @ self.w1 + self.b1)
        return hidden @ self.w2 + self.b2


LEARNER_KINDS = {
    "logreg": LogisticRegressionClassifier,
    "knn": KNearestNeighborsClassifier,
    "gnb": GaussianNaiveBayesClassifier,
    "mlp": OneLayerNetworkClassifier,
}


def make_classifier(kind: str, label_space: LabelSpace, config: TrainConfig) -> Classifier:
    if kind not in LEARNER_KINDS:
        raise LearnerError(f"unknown learner kind {kind!r}; choose from {sorted(LEARNER_KINDS)}")
    return LEARNER_KINDS[kind](label_space, config)


def train_local(kind: str, label_space: LabelSpace, dataset: LabeledDataset,
                config: TrainConfig) -> Classifier:
    """Phase 1: fit a fresh classifier on the participant's private data."""
    return make_classifier(kind, label_space, config).train(dataset)


def pseudolabel(classifier: Classifier, public: UnlabeledDataset) -> np.ndarray:
    """Phase 2: label the public dataset; pure in (classifier state, data)."""
    return classifier.predict_batch(public)


def materialize_bundle(bundle: PseudolabelBundle, public: UnlabeledDataset) -> LabeledDataset:
    """Turn index sets into a labeled dataset of public instances.

    Rows come entry by entry in bundle order, each labeled with its entry's
    category.
    """
    if len(bundle) == 0:
        raise LearnerError("cannot materialize an empty bundle")
    rows = np.concatenate([e.indices for e in bundle.entries])
    outside = (rows < 0) | (rows >= len(public))
    if outside.any():
        raise LearnerError(f"bundle index {rows[np.argmax(outside)]} outside public "
                           f"dataset of size {len(public)}")
    labels = np.repeat(np.array([e.category for e in bundle.entries], dtype=np.int64),
                       [len(e) for e in bundle.entries])
    return LabeledDataset(features=np.take(public.features, rows, axis=0), labels=labels)


def update_train(kind: str, label_space: LabelSpace, local: LabeledDataset,
                 bundle: PseudolabelBundle, public: UnlabeledDataset,
                 config: TrainConfig) -> Classifier:
    """Phase 4: retrain from scratch on local data plus the materialized bundle.

    The retrain uses a fresh seed derived from the configured one and a
    minibatch capped at ``update_batch_size``, so an empty bundle reproduces a
    plain retrain of the local model exactly.
    """
    if len(bundle) > 0:
        pseudo = materialize_bundle(bundle, public)
        combined = LabeledDataset(
            features=np.vstack([local.features, pseudo.features]),
            labels=np.concatenate([local.labels, pseudo.labels]),
        )
    else:
        combined = local
    if len(combined) == 0:
        raise LearnerError("combined update-training dataset is empty")
    update_config = replace(
        config,
        seed=derive_seed(config.seed, "update"),
        batch_size=min(config.update_batch_size, len(combined)),
    )
    return make_classifier(kind, label_space, update_config).train(combined)


def evaluate(classifier: Classifier, test: LabeledDataset) -> float:
    """Fraction of test instances the classifier labels correctly."""
    if len(test) == 0:
        raise LearnerError("cannot evaluate on an empty test set")
    outside = _labels_outside(test.labels, classifier.classes)
    if outside:
        raise DomainError(
            f"test labels {outside} outside the classifier's label space"
        )
    predictions = classifier.predict_batch(test.features)
    return float(np.mean(predictions == test.labels))
