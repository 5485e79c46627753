"""Synthetic clustered corpora, heterogeneous-label-space partitioning, CSV I/O.

The data model mirrors a cross-silo federation. A global pool of instances is
generated from a two-level cluster hierarchy (superclasses containing
subclasses). Participants receive pairwise-disjoint training shards over
overlapping subsets of the superclasses: in ``iid`` mode a participant's
instances of a superclass are drawn uniformly over all of its subclasses, in
``noniid`` mode only from the one or two subclasses the participant owns. The
public unlabeled set is built either by uniform sampling over the pool's
expanded bounding box or from clusters held out of every local dataset.

All generators are pure functions of (spec, seed): identical inputs produce
byte-identical arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CategoryId = int

# Every category id lies below this, as a dataset's classes do: the vote's
# positions fit in int16, and ImageNet-21k's 21,841 classes fit too.
CATEGORY_LIMIT = 2 ** 15

PARTITION_MODES = ("iid", "noniid")
UNLABELED_STRATEGIES = ("uniform_random", "held_out_subclasses")


class DomainError(ValueError):
    """Invalid spec, malformed dataset, or impossible draw."""


def category_id(value) -> CategoryId:
    """``value`` as a category id: an integer in ``[0, CATEGORY_LIMIT)``, else an error.

    A float or a string is never truncated or parsed, and a bool is no id.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if 0 <= value < CATEGORY_LIMIT:
                return value
            raise DomainError(f"category id {value} outside [0, {CATEGORY_LIMIT})")
    raise DomainError(f"category id {value!r} is not an integer")


@dataclass(frozen=True)
class LabelSpace:
    """Ordered set of category ids a single task can emit.

    Membership is one lookup in a frozenset of the categories, built once and
    left out of equality and repr.
    """

    categories: tuple[int, ...]
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.categories) > CATEGORY_LIMIT:  # refused before the per-id pass
            raise DomainError(f"label space has {len(self.categories)} categories, "
                              f"more than {CATEGORY_LIMIT}")
        cats = tuple(category_id(c) for c in self.categories)
        if not cats:
            raise DomainError("label space must be non-empty")
        members = frozenset(cats)
        if len(members) != len(cats):
            # name the repeated ids, not the whole space a peer may have sent
            ids, counts = np.unique(cats, return_counts=True)
            raise DomainError(f"label space has duplicate categories "
                              f"{ids[counts > 1][:5].tolist()}")
        object.__setattr__(self, "categories", cats)
        object.__setattr__(self, "_members", members)

    def __contains__(self, category) -> bool:
        return category in self._members

    def __iter__(self):
        return iter(self.categories)

    def __len__(self) -> int:
        return len(self.categories)


def _as_feature_matrix(features, what: str) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2:
        raise DomainError(f"{what} features must be a 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} features contain non-finite values")
    return arr


@dataclass
class LabeledDataset:
    """Instances plus integer category labels.

    ``source_rows`` records, for partitioned shards, which pool row each
    instance came from; it backs the disjointness and subclass-purity checks.
    """

    features: np.ndarray
    labels: np.ndarray
    source_rows: np.ndarray | None = None

    def __post_init__(self):
        self.features = _as_feature_matrix(self.features, "labeled dataset")
        labels = np.asarray(self.labels)
        # a float or a bool is never truncated to an id
        if labels.size and labels.dtype.kind not in "iu":
            raise DomainError(f"labels must be integers, got {labels.dtype}")
        self.labels = labels.astype(np.int64, copy=False)
        if self.labels.ndim != 1:
            raise DomainError("labels must be a 1-D vector")
        if len(self.labels) != len(self.features):
            raise DomainError(
                f"feature/label length mismatch: {len(self.features)} vs {len(self.labels)}"
            )
        if self.source_rows is not None:
            self.source_rows = np.asarray(self.source_rows, dtype=np.int64)
            if self.source_rows.shape != self.labels.shape:
                raise DomainError("source_rows must align with labels")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class UnlabeledDataset:
    """Public instances; index order is canonical for a federation run."""

    features: np.ndarray

    def __post_init__(self):
        self.features = _as_feature_matrix(self.features, "unlabeled dataset")
        if len(self.features) < 1:
            raise DomainError("unlabeled dataset must contain at least one instance")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def prefix(self, size: int) -> "UnlabeledDataset":
        if not 1 <= size <= len(self):
            raise DomainError(f"prefix size {size} outside [1, {len(self)}]")
        return UnlabeledDataset(self.features[:size])


@dataclass(frozen=True)
class TaxonomySpec:
    """Generator parameters for the two-level Gaussian cluster hierarchy."""

    n_superclasses: int
    subclasses_per_superclass: int
    feature_dim: int
    instances_per_subclass: int
    superclass_spread: float = 3.0
    subclass_spread: float = 1.1
    instance_noise: float = 0.5

    def __post_init__(self):
        for name in ("n_superclasses", "subclasses_per_superclass", "feature_dim",
                     "instances_per_subclass"):
            if getattr(self, name) < 1:
                raise DomainError(f"taxonomy spec field {name} must be >= 1")
        if self.n_superclasses > CATEGORY_LIMIT:
            raise DomainError(f"taxonomy spec field n_superclasses must be <= {CATEGORY_LIMIT}")
        for name in ("superclass_spread", "subclass_spread", "instance_noise"):
            if not getattr(self, name) > 0:
                raise DomainError(f"taxonomy spec field {name} must be > 0")


@dataclass(frozen=True)
class SubclassTaxonomy:
    """Realized cluster hierarchy: one Gaussian per subclass.

    Subclass ids are dense: subclass ``j`` belongs to superclass
    ``j // subclasses_per_superclass``.
    """

    n_superclasses: int
    subclasses_per_superclass: int
    subclass_means: np.ndarray
    instance_noise: float

    @property
    def n_subclasses(self) -> int:
        return self.n_superclasses * self.subclasses_per_superclass

    @property
    def feature_dim(self) -> int:
        return self.subclass_means.shape[1]

    def subclasses_of(self, superclass: int) -> tuple[int, ...]:
        if not 0 <= superclass < self.n_superclasses:
            raise DomainError(f"superclass {superclass} outside [0, {self.n_superclasses})")
        base = superclass * self.subclasses_per_superclass
        return tuple(range(base, base + self.subclasses_per_superclass))


@dataclass
class Pool:
    """Unpartitioned corpus; every row carries both label levels."""

    features: np.ndarray
    subclass_labels: np.ndarray
    superclass_labels: np.ndarray

    def __post_init__(self):
        self.features = _as_feature_matrix(self.features, "pool")
        self.subclass_labels = np.asarray(self.subclass_labels, dtype=np.int64)
        self.superclass_labels = np.asarray(self.superclass_labels, dtype=np.int64)
        if not (len(self.features) == len(self.subclass_labels) == len(self.superclass_labels)):
            raise DomainError("pool arrays must have equal length")

    def __len__(self) -> int:
        return len(self.features)


def generate_taxonomy(spec: TaxonomySpec, seed: int) -> tuple[Pool, SubclassTaxonomy]:
    """Sample the cluster hierarchy and a pool of instances from it.

    Superclass centers are isotropic Gaussians of scale ``superclass_spread``;
    each subclass mean is its center plus ``subclass_spread`` noise; instances
    add ``instance_noise``. Rows are emitted subclass-major so identical
    (spec, seed) yields byte-identical pools.
    """
    rng = np.random.default_rng(seed)
    n_sub = spec.n_superclasses * spec.subclasses_per_superclass
    centers = rng.normal(0.0, spec.superclass_spread, (spec.n_superclasses, spec.feature_dim))
    offsets = rng.normal(0.0, spec.subclass_spread, (n_sub, spec.feature_dim))
    super_of = np.arange(n_sub) // spec.subclasses_per_superclass
    means = centers[super_of] + offsets

    n_rows = n_sub * spec.instances_per_subclass
    noise = rng.normal(0.0, spec.instance_noise, (n_rows, spec.feature_dim))
    subclass_labels = np.repeat(np.arange(n_sub), spec.instances_per_subclass)
    features = means[subclass_labels] + noise

    taxonomy = SubclassTaxonomy(
        n_superclasses=spec.n_superclasses,
        subclasses_per_superclass=spec.subclasses_per_superclass,
        subclass_means=means,
        instance_noise=spec.instance_noise,
    )
    pool = Pool(features, subclass_labels, super_of[subclass_labels])
    return pool, taxonomy


@dataclass(frozen=True)
class PartitionSpec:
    """How to split the pool across participants."""

    n_participants: int
    superclasses_per_participant: tuple[int, int]
    instances_per_superclass: int
    mode: str = "noniid"
    subclasses_per_superclass_owned: tuple[int, int] = (1, 2)
    seed: int = 0

    def __post_init__(self):
        if self.n_participants < 1:
            raise DomainError("n_participants must be >= 1")
        if self.instances_per_superclass < 1:
            raise DomainError("instances_per_superclass must be >= 1")
        if self.mode not in PARTITION_MODES:
            raise DomainError(f"mode must be one of {PARTITION_MODES}, got {self.mode!r}")
        for name in ("superclasses_per_participant", "subclasses_per_superclass_owned"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise DomainError(f"range {name}=({lo}, {hi}) is empty or non-positive")


@dataclass
class ParticipantShard:
    """One participant's task definition and private training data."""

    participant: int
    label_space: LabelSpace
    train: LabeledDataset
    owned_subclasses: dict[int, tuple[int, ...]]


# Label-space overlap: with two or more participants, every label space must
# intersect at least one other. Assignment is resampled up to this many times
# before giving up (the requirement is asserted, not constructed).
_OVERLAP_ATTEMPTS = 1000


def _draw_label_spaces(rng: np.random.Generator, spec: PartitionSpec,
                       n_superclasses: int) -> list[np.ndarray]:
    lo, hi = spec.superclasses_per_participant
    if hi > n_superclasses:
        raise DomainError(
            f"superclasses_per_participant up to {hi} exceeds taxonomy size {n_superclasses}"
        )
    for _ in range(_OVERLAP_ATTEMPTS):
        sizes = rng.integers(lo, hi + 1, size=spec.n_participants)
        spaces = [np.sort(rng.choice(n_superclasses, size=int(k), replace=False))
                  for k in sizes]
        if spec.n_participants == 1:
            return spaces
        sets = [set(s.tolist()) for s in spaces]
        if all(any(si & sj for j, sj in enumerate(sets) if j != i)
               for i, si in enumerate(sets)):
            return spaces
    raise DomainError(
        f"could not satisfy label-space overlap in {_OVERLAP_ATTEMPTS} attempts"
    )


def partition(pool: Pool, taxonomy: SubclassTaxonomy, spec: PartitionSpec,
              exclude_rows: np.ndarray | None = None) -> list[ParticipantShard]:
    """Assign label spaces and draw pairwise-disjoint training shards.

    Every participant receives ``instances_per_superclass`` instances per
    owned superclass. Draws are without replacement from the not-yet-used pool
    rows, so shards never share an instance. ``exclude_rows`` reserves rows
    (e.g. a test pool) that no shard may touch.

    Raises DomainError on pool exhaustion or unsatisfiable label-space overlap.
    """
    rng = np.random.default_rng(spec.seed)
    spaces = _draw_label_spaces(rng, spec, taxonomy.n_superclasses)

    available = np.ones(len(pool), dtype=bool)
    if exclude_rows is not None and len(exclude_rows):
        available[np.asarray(exclude_rows, dtype=np.int64)] = False

    lo_sub, hi_sub = spec.subclasses_per_superclass_owned
    shards: list[ParticipantShard] = []
    for i, space in enumerate(spaces):
        owned: dict[int, tuple[int, ...]] = {}
        rows_taken: list[np.ndarray] = []
        for superclass in space.tolist():
            subclasses = taxonomy.subclasses_of(superclass)
            if spec.mode == "noniid":
                k = int(rng.integers(lo_sub, min(hi_sub, len(subclasses)) + 1))
                chosen = tuple(sorted(rng.choice(subclasses, size=k, replace=False).tolist()))
            else:
                chosen = subclasses
            owned[superclass] = chosen

            candidate_mask = available & np.isin(pool.subclass_labels, chosen)
            candidates = np.flatnonzero(candidate_mask)
            if len(candidates) < spec.instances_per_superclass:
                raise DomainError(
                    f"pool exhausted: participant {i} needs "
                    f"{spec.instances_per_superclass} instances of superclass "
                    f"{superclass} but only {len(candidates)} remain"
                )
            picked = rng.choice(candidates, size=spec.instances_per_superclass, replace=False)
            available[picked] = False
            rows_taken.append(picked)

        rows = np.sort(np.concatenate(rows_taken))
        train = LabeledDataset(
            features=pool.features[rows],
            labels=pool.superclass_labels[rows],
            source_rows=rows,
        )
        shards.append(ParticipantShard(
            participant=i,
            label_space=LabelSpace(tuple(space.tolist())),
            train=train,
            owned_subclasses=owned,
        ))
    return shards


def draw_test_rows(pool: Pool, taxonomy: SubclassTaxonomy, per_superclass: int,
                   seed: int) -> dict[int, np.ndarray]:
    """Reserve one shared test pool per superclass, uniform over its instances.

    The same rows serve every participant that owns the superclass, so test
    sets overlap across participants by construction.
    """
    if per_superclass < 1:
        raise DomainError("per_superclass must be >= 1")
    rng = np.random.default_rng(seed)
    rows_by_super: dict[int, np.ndarray] = {}
    for superclass in range(taxonomy.n_superclasses):
        candidates = np.flatnonzero(pool.superclass_labels == superclass)
        if len(candidates) < per_superclass:
            raise DomainError(
                f"pool exhausted: superclass {superclass} has {len(candidates)} rows, "
                f"test draw needs {per_superclass}"
            )
        rows_by_super[superclass] = np.sort(rng.choice(candidates, size=per_superclass,
                                                       replace=False))
    return rows_by_super


def test_set_for(pool: Pool, label_space: LabelSpace,
                 test_rows: dict[int, np.ndarray]) -> LabeledDataset:
    """Concatenate the shared per-superclass test rows for one participant."""
    rows = np.concatenate([test_rows[s] for s in sorted(label_space)])
    return LabeledDataset(
        features=pool.features[rows],
        labels=pool.superclass_labels[rows],
        source_rows=rows,
    )


def uniform_random_unlabeled(pool: Pool, size: int, seed: int,
                             margin: float = 0.25) -> UnlabeledDataset:
    """Sample uniformly inside the pool's bounding box expanded by ``margin``.

    Generated so a smaller draw is always a row prefix of a larger one under
    the same seed, which lets size sweeps isolate the size effect.
    """
    if size < 1:
        raise DomainError("unlabeled size must be >= 1")
    if not 0 <= margin < np.inf:
        raise DomainError("margin must be finite and >= 0")
    lo = pool.features.min(axis=0)
    hi = pool.features.max(axis=0)
    span = hi - lo
    lo = lo - margin * span
    hi = hi + margin * span
    rng = np.random.default_rng(seed)
    raw = rng.random((size, pool.features.shape[1]))
    return UnlabeledDataset(lo + raw * (hi - lo))


def held_out_unlabeled(taxonomy: SubclassTaxonomy, used_subclasses, size: int,
                       seed: int) -> UnlabeledDataset:
    """Sample fresh instances from clusters absent from every local dataset."""
    if size < 1:
        raise DomainError("unlabeled size must be >= 1")
    used = set(int(s) for s in used_subclasses)
    held_out = sorted(set(range(taxonomy.n_subclasses)) - used)
    if not held_out:
        raise DomainError("no held-out subclasses: every cluster appears in a local dataset")
    # Two child streams keep the prefix-nesting property: the choice stream
    # and the noise stream each advance row by row regardless of total size.
    choice_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    choice_rng = np.random.default_rng(choice_ss)
    noise_rng = np.random.default_rng(noise_ss)
    picks = choice_rng.integers(0, len(held_out), size=size)
    means = taxonomy.subclass_means[np.asarray(held_out)][picks]
    noise = noise_rng.standard_normal((size, taxonomy.feature_dim))
    return UnlabeledDataset(means + noise * taxonomy.instance_noise)


# ---------------------------------------------------------------------------
# CSV I/O
#
# Comma-separated, with a single header row. Features are decimal floats
# written with 17 significant digits (lossless for float64); a labeled file
# carries a trailing integer column named "label".
# ---------------------------------------------------------------------------

def _format_float(v: float) -> str:
    return format(v, ".17g")


def save_csv(dataset: LabeledDataset | UnlabeledDataset, path,
             int_columns: dict[str, np.ndarray] | None = None) -> None:
    """Write a header row, then features and integer columns: a labeled
    dataset's ``label``, then each of ``int_columns`` (name -> one value per row)."""
    path = Path(path)
    columns = {"label": dataset.labels} if isinstance(dataset, LabeledDataset) else {}
    columns.update(int_columns or {})
    lines = [",".join([f"f{j}" for j in range(dataset.feature_dim)] + list(columns))]
    for i in range(len(dataset)):
        cells = [_format_float(v) for v in dataset.features[i]]
        cells.extend(str(int(values[i])) for values in columns.values())
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_cell(text: str, line_no: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(
            f"line {line_no}, column {col + 1}: could not parse {text!r} as a number"
        ) from None


def load_csv(path, label_space: LabelSpace | None = None) -> LabeledDataset | UnlabeledDataset:
    """Load a dataset in the format ``save_csv`` writes.

    The first row is the header, so it must have a cell that is not a number,
    and every data row has as many cells as it. The file is labeled when the
    header's last column is "label"; with ``label_space`` given, every label is
    checked against it.
    """
    path = Path(path)
    lines = enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
    rows = [(line_no, ln.split(",")) for line_no, ln in lines if ln.strip() != ""]
    if not rows:
        raise DomainError(f"{path}: file is empty")

    def _is_number(s: str) -> bool:
        try:
            float(s)
            return True
        except ValueError:
            return False

    header = rows[0][1]
    if all(_is_number(c) for c in header):
        raise DomainError(f"{path}: the first row holds only numbers; expected a header row")
    labeled = header[-1].strip() == "label"
    data_rows = rows[1:]
    if not data_rows:
        raise DomainError(f"{path}: no data rows")
    width = len(header)
    if labeled and width < 2:
        raise DomainError(f"{path}: labeled file needs at least one feature column")

    features = []
    labels = []
    for line_no, cells in data_rows:
        if len(cells) != width:
            raise DomainError(
                f"line {line_no}: ragged row with {len(cells)} cells, expected {width}"
            )
        values = [_parse_cell(c, line_no, j) for j, c in enumerate(cells)]
        if labeled:
            label_cell = cells[-1].strip()
            try:
                label = int(label_cell)
            except ValueError:
                raise DomainError(
                    f"line {line_no}: label {label_cell!r} is not an integer"
                ) from None
            if label_space is not None and label not in label_space:
                raise DomainError(
                    f"line {line_no}: label {label} outside declared label space"
                )
            features.append(values[:-1])
            labels.append(label)
        else:
            features.append(values)

    if labeled:
        return LabeledDataset(np.array(features, dtype=np.float64),
                              np.array(labels, dtype=np.int64))
    return UnlabeledDataset(np.array(features, dtype=np.float64))
