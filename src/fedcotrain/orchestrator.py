"""Single-round federation run over in-process participants.

The protocol has four phases, each a barrier: every participant trains a
local model on its private shard, labels the shared public dataset, the
coordinator thresholds the pooled votes into per-category index sets and
hands each participant its conflict-free bundle, and every participant
retrains from scratch on its own data plus the bundle. The round happens
exactly once; there is no iterative refinement.

Reported improvement is the ratio of the federated model's test accuracy to
a local baseline retrained with the same update-phase budget and seed, so
the difference is attributable to the pseudolabels alone (with an empty
bundle the two models are identical and the ratio is exactly 1).

All randomness fans out from ``master_seed`` via ``derive_seed`` streams:
"taxonomy", "test", "partition", "unlabeled", and "participant"/i; the seed
carried by per-participant train configs is overridden by the derived one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .aggregation import (
    CredibilityWeights,
    PseudolabelBundle,
    PseudolabelSet,
    aggregate,
    aggregate_weighted,
    build_bundle,
    remove_global_conflicts,
)
from .domain import (
    UNLABELED_STRATEGIES,
    DomainError,
    LabeledDataset,
    LabelSpace,
    PartitionSpec,
    Pool,
    SubclassTaxonomy,
    TaxonomySpec,
    UnlabeledDataset,
    draw_test_rows,
    generate_taxonomy,
    generate_unlabeled,
    partition,
    test_set_for,
)
from .learners import (
    LEARNER_KINDS,
    Classifier,
    TrainConfig,
    evaluate,
    pseudolabel,
    train_local,
    update_train,
)
from .seeding import derive_seed


@dataclass(frozen=True)
class UnlabeledSpec:
    size: int
    strategy: str = "uniform_random"
    margin: float = 0.25

    def __post_init__(self):
        if self.size < 1:
            raise DomainError("unlabeled size must be >= 1")
        if self.strategy not in UNLABELED_STRATEGIES:
            raise DomainError(
                f"unlabeled strategy must be one of {UNLABELED_STRATEGIES}, "
                f"got {self.strategy!r}")
        if self.margin < 0:
            raise DomainError("unlabeled margin must be >= 0")


@dataclass(frozen=True)
class ParticipantSpec:
    learner: str
    config: TrainConfig

    def __post_init__(self):
        if self.learner not in LEARNER_KINDS:
            raise DomainError(
                f"unknown learner kind {self.learner!r}; choose from {sorted(LEARNER_KINDS)}"
            )


@dataclass(frozen=True)
class FederationConfig:
    """Everything a round needs; identical configs give identical reports."""

    alpha: float
    master_seed: int
    taxonomy: TaxonomySpec
    partition: PartitionSpec
    unlabeled: UnlabeledSpec
    participants: tuple[ParticipantSpec, ...]
    test_instances_per_superclass: int = 60
    weights: CredibilityWeights | None = None
    global_conflict_removal: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")
        if len(self.participants) < 1:
            raise DomainError("federation needs at least one participant")
        if len(self.participants) != self.partition.n_participants:
            raise DomainError(
                f"{len(self.participants)} participant specs for "
                f"{self.partition.n_participants} partition slots"
            )
        if self.weights is not None and len(self.weights) != len(self.participants):
            raise DomainError("weights length must match participant count")
        if self.test_instances_per_superclass < 1:
            raise DomainError("test_instances_per_superclass must be >= 1")


# Default hyperparameters per built-in learner kind. The benchmark cycle
# leans on neighbor models plus a wide network: both absorb pseudolabeled
# regions they have not sampled, which is where the protocol's gains come
# from at this scale (a linear model or a unimodal Bayes fit cannot).
DEFAULT_LEARNER_CONFIGS = {
    "logreg": TrainConfig(learning_rate=1.0, epochs=500, batch_size=50),
    "knn": TrainConfig(k=5),
    "gnb": TrainConfig(),
    "mlp": TrainConfig(learning_rate=0.5, epochs=700, batch_size=50, hidden_width=64),
}

BENCHMARK_CYCLE = (
    ParticipantSpec("knn", replace(DEFAULT_LEARNER_CONFIGS["knn"], k=3)),
    ParticipantSpec("knn", replace(DEFAULT_LEARNER_CONFIGS["knn"], k=5)),
    ParticipantSpec("knn", replace(DEFAULT_LEARNER_CONFIGS["knn"], k=7)),
    ParticipantSpec("mlp", DEFAULT_LEARNER_CONFIGS["mlp"]),
)

SHOWCASE_CYCLE = tuple(
    ParticipantSpec(kind, DEFAULT_LEARNER_CONFIGS[kind])
    for kind in ("logreg", "knn", "gnb", "mlp")
)


def mixed_participants(n: int, cycle=BENCHMARK_CYCLE) -> tuple[ParticipantSpec, ...]:
    """Cycle heterogeneous learner specs across n participants."""
    return tuple(cycle[i % len(cycle)] for i in range(n))


def default_config(n_participants: int = 10, mode: str = "noniid",
                   alpha: float = 0.3, master_seed: int = 0,
                   unlabeled_size: int = 2000) -> FederationConfig:
    """The stock synthetic-benchmark federation used by scripts and examples.

    The geometry puts ten superclasses of three well-separated subclass blobs
    in a 2-D space and gives each participant eight instances per owned
    superclass, so local models under-cover some blobs while the pooled vote
    over the box-sampled public dataset recovers them.
    """
    return FederationConfig(
        alpha=alpha,
        master_seed=master_seed,
        taxonomy=TaxonomySpec(
            n_superclasses=10,
            subclasses_per_superclass=3,
            feature_dim=2,
            instances_per_subclass=400,
            superclass_spread=2.8,
            subclass_spread=2.2,
            instance_noise=0.3,
        ),
        partition=PartitionSpec(
            n_participants=n_participants,
            superclasses_per_participant=(4, 5),
            instances_per_superclass=8,
            mode=mode,
        ),
        unlabeled=UnlabeledSpec(size=unlabeled_size, margin=0.1),
        participants=mixed_participants(n_participants),
        test_instances_per_superclass=100,
    )


def size_sweep_config(mode: str = "noniid", alpha: float = 0.3,
                      master_seed: int = 0,
                      unlabeled_size: int = 2000) -> FederationConfig:
    """Benchmark variant for public-dataset size sweeps.

    A higher-dimensional box saturates much later, so the size effect stays
    visible across the whole 100..5000 range.
    """
    base = default_config(mode=mode, alpha=alpha, master_seed=master_seed,
                          unlabeled_size=unlabeled_size)
    return replace(
        base,
        taxonomy=replace(base.taxonomy, feature_dim=4, superclass_spread=2.4,
                         subclass_spread=1.8, instance_noise=0.35),
        partition=replace(base.partition, instances_per_superclass=7),
        test_instances_per_superclass=150,
    )


def participant_train_config(config: FederationConfig, i: int) -> TrainConfig:
    """Per-participant config with its seed derived from the master seed."""
    spec = config.participants[i]
    return replace(spec.config, seed=derive_seed(config.master_seed, "participant", i))


@dataclass
class RoundData:
    """Deterministic data snapshot a round runs against."""

    pool: Pool
    taxonomy: SubclassTaxonomy
    shards: list
    test_sets: list[LabeledDataset]
    test_rows: dict[int, np.ndarray]
    unlabeled: UnlabeledDataset
    used_subclasses: tuple[int, ...]


def build_round_data(config: FederationConfig) -> RoundData:
    """Generate pool, shards, shared test sets, and the public dataset."""
    master = config.master_seed
    pool, taxonomy = generate_taxonomy(config.taxonomy, derive_seed(master, "taxonomy"))
    test_rows = draw_test_rows(pool, taxonomy, config.test_instances_per_superclass,
                               derive_seed(master, "test"))
    reserved = np.concatenate(list(test_rows.values()))
    shards = partition(pool, taxonomy,
                       replace(config.partition, seed=derive_seed(master, "partition")),
                       exclude_rows=reserved)
    test_sets = [test_set_for(pool, shard.label_space, test_rows, shard.participant)
                 for shard in shards]
    used = sorted({int(s) for shard in shards
                   for s in pool.subclass_labels[shard.train.source_rows]})
    unlabeled = generate_unlabeled(
        pool if config.unlabeled.strategy == "uniform_random" else taxonomy,
        config.unlabeled.size,
        config.unlabeled.strategy,
        derive_seed(master, "unlabeled"),
        margin=config.unlabeled.margin,
        used_subclasses=used,
    )
    return RoundData(pool=pool, taxonomy=taxonomy, shards=shards, test_sets=test_sets,
                     test_rows=test_rows, unlabeled=unlabeled,
                     used_subclasses=tuple(used))


@dataclass(frozen=True)
class ParticipantReport:
    participant: int
    learner: str
    train_size: int
    bundle_size: int
    local_accuracy: float
    federated_accuracy: float
    relative_accuracy: float | None


@dataclass(frozen=True)
class CategoryReport:
    category: int
    owner_count: int
    pseudolabel_count: int


@dataclass(frozen=True)
class RoundReport:
    participants: tuple[ParticipantReport, ...]
    categories: tuple[CategoryReport, ...]
    alpha: float
    master_seed: int
    mode: str
    unlabeled_size: int

    @property
    def total_pseudolabels(self) -> int:
        return sum(c.pseudolabel_count for c in self.categories)

    @property
    def mean_local_accuracy(self) -> float:
        return float(np.mean([p.local_accuracy for p in self.participants]))

    @property
    def mean_federated_accuracy(self) -> float:
        return float(np.mean([p.federated_accuracy for p in self.participants]))

    @property
    def mean_relative_accuracy(self) -> float | None:
        ratios = [p.relative_accuracy for p in self.participants
                  if p.relative_accuracy is not None]
        return float(np.mean(ratios)) if ratios else None

    def to_records(self) -> list[dict]:
        records = []
        for p in self.participants:
            records.append({
                "record": "participant",
                "participant": p.participant,
                "learner": p.learner,
                "train_size": p.train_size,
                "bundle_size": p.bundle_size,
                "local_accuracy": p.local_accuracy,
                "federated_accuracy": p.federated_accuracy,
                "relative_accuracy": p.relative_accuracy,
            })
        for c in self.categories:
            records.append({
                "record": "category",
                "category": c.category,
                "owner_count": c.owner_count,
                "pseudolabel_count": c.pseudolabel_count,
            })
        records.append({
            "record": "summary",
            "alpha": self.alpha,
            "master_seed": self.master_seed,
            "mode": self.mode,
            "unlabeled_size": self.unlabeled_size,
            "n_participants": len(self.participants),
            "total_pseudolabels": self.total_pseudolabels,
            "mean_local_accuracy": self.mean_local_accuracy,
            "mean_federated_accuracy": self.mean_federated_accuracy,
            "mean_relative_accuracy": self.mean_relative_accuracy,
        })
        return records

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.to_records()) + "\n"

    def to_table(self) -> str:
        lines = [
            f"{'id':>3} {'learner':>8} {'train':>6} {'bundle':>7} "
            f"{'local':>8} {'fed':>8} {'ratio':>8}"
        ]
        for p in self.participants:
            ratio = f"{p.relative_accuracy:.4f}" if p.relative_accuracy is not None else "n/a"
            lines.append(
                f"{p.participant:>3} {p.learner:>8} {p.train_size:>6} {p.bundle_size:>7} "
                f"{p.local_accuracy:>8.4f} {p.federated_accuracy:>8.4f} {ratio:>8}"
            )
        mean_ratio = self.mean_relative_accuracy
        lines.append(
            f"mean local={self.mean_local_accuracy:.4f} "
            f"fed={self.mean_federated_accuracy:.4f} "
            f"ratio={mean_ratio:.4f}" if mean_ratio is not None else
            f"mean local={self.mean_local_accuracy:.4f} "
            f"fed={self.mean_federated_accuracy:.4f} ratio=n/a"
        )
        lines.append(
            f"alpha={self.alpha} mode={self.mode} seed={self.master_seed} "
            f"unlabeled={self.unlabeled_size} total_pseudolabels={self.total_pseudolabels}"
        )
        return "\n".join(lines) + "\n"


@dataclass
class RoundArtifacts:
    """Everything needed to audit or analyze a finished round."""

    config: FederationConfig
    data: RoundData
    label_spaces: list[LabelSpace]
    predictions: np.ndarray
    pseudo_sets: dict[int, PseudolabelSet]
    bundles: list[PseudolabelBundle]
    local_classifiers: list[Classifier]
    baseline_classifiers: list[Classifier]
    federated_classifiers: list[Classifier]
    local_accuracies: list[float]
    federated_accuracies: list[float]

    @property
    def unlabeled(self) -> UnlabeledDataset:
        return self.data.unlabeled

    @property
    def train_sizes(self) -> list[int]:
        return [len(s.train) for s in self.data.shards]


@dataclass
class RoundResult:
    report: RoundReport
    artifacts: RoundArtifacts


class RoundError(RuntimeError):
    """A participant failed mid-round; the round aborts."""


@dataclass
class _Prepared:
    """Alpha-independent state shared by sweeps: data, local models, votes."""

    config: FederationConfig
    data: RoundData
    classifiers: list[Classifier]
    predictions: np.ndarray
    baselines: list[Classifier]
    baseline_accuracies: list[float]


def _named_phase(action, participant: int, phase: str):
    try:
        return action()
    except Exception as exc:
        raise RoundError(f"participant {participant} failed during {phase}: {exc}") from exc


def _prepare(config: FederationConfig, data: RoundData | None = None) -> _Prepared:
    if data is None:
        data = build_round_data(config)
    classifiers = []
    rows = []
    for i, shard in enumerate(data.shards):
        cfg = participant_train_config(config, i)
        spec = config.participants[i]
        clf = _named_phase(
            lambda: train_local(spec.learner, shard.label_space, shard.train, cfg),
            i, "local training")
        classifiers.append(clf)
        rows.append(_named_phase(lambda: pseudolabel(clf, data.unlabeled),
                                 i, "pseudolabeling"))
    predictions = np.vstack(rows)

    baselines = []
    baseline_accuracies = []
    for i, shard in enumerate(data.shards):
        cfg = participant_train_config(config, i)
        spec = config.participants[i]
        baseline = _named_phase(
            lambda: update_train(spec.learner, shard.label_space, shard.train,
                                 PseudolabelBundle.empty(i), data.unlabeled, cfg),
            i, "baseline retraining")
        baselines.append(baseline)
        baseline_accuracies.append(
            _named_phase(lambda: evaluate(baseline, data.test_sets[i]), i, "evaluation"))
    return _Prepared(config=config, data=data, classifiers=classifiers,
                     predictions=predictions, baselines=baselines,
                     baseline_accuracies=baseline_accuracies)


def coordinate(predictions: Sequence[np.ndarray], label_spaces: Sequence[LabelSpace],
               alpha: float, size: int, weights: CredibilityWeights | None,
               global_conflict_removal: bool,
               ) -> tuple[dict[int, PseudolabelSet], list[PseudolabelBundle]]:
    """The coordinator's step: vote, optionally drop global conflicts, bundle.

    The in-process round and the wire coordinator both call this, so their
    bundles agree by construction.
    """
    if weights is not None:
        pseudo_sets = aggregate_weighted(predictions, label_spaces, weights, alpha, size)
    else:
        pseudo_sets = aggregate(predictions, label_spaces, alpha, size)
    if global_conflict_removal:
        pseudo_sets = remove_global_conflicts(pseudo_sets)
    bundles = [build_bundle(pseudo_sets, space, owner=i)
               for i, space in enumerate(label_spaces)]
    return pseudo_sets, bundles


def _complete(prep: _Prepared, alpha: float) -> RoundResult:
    config = prep.config
    data = prep.data
    spaces = [shard.label_space for shard in data.shards]
    size = len(data.unlabeled)
    pseudo_sets, bundles = coordinate(list(prep.predictions), spaces, alpha, size,
                                      config.weights, config.global_conflict_removal)

    federated = []
    fed_accuracies = []
    participant_reports = []
    for i, shard in enumerate(data.shards):
        cfg = participant_train_config(config, i)
        spec = config.participants[i]
        if len(bundles[i]) > 0:
            fed = _named_phase(
                lambda: update_train(spec.learner, shard.label_space, shard.train,
                                     bundles[i], data.unlabeled, cfg),
                i, "update training")
            fed_acc = _named_phase(lambda: evaluate(fed, data.test_sets[i]),
                                   i, "evaluation")
        else:
            fed = prep.baselines[i]
            fed_acc = prep.baseline_accuracies[i]
        federated.append(fed)
        fed_accuracies.append(fed_acc)
        local_acc = prep.baseline_accuracies[i]
        participant_reports.append(ParticipantReport(
            participant=i,
            learner=spec.learner,
            train_size=len(shard.train),
            bundle_size=len(bundles[i]),
            local_accuracy=local_acc,
            federated_accuracy=fed_acc,
            relative_accuracy=(fed_acc / local_acc) if local_acc > 0 else None,
        ))

    category_reports = tuple(
        CategoryReport(
            category=c,
            owner_count=sum(1 for s in spaces if c in s),
            pseudolabel_count=len(pseudo_sets[c]),
        )
        for c in sorted(pseudo_sets)
    )
    report = RoundReport(
        participants=tuple(participant_reports),
        categories=category_reports,
        alpha=alpha,
        master_seed=config.master_seed,
        mode=config.partition.mode,
        unlabeled_size=size,
    )
    artifacts = RoundArtifacts(
        config=config,
        data=data,
        label_spaces=spaces,
        predictions=prep.predictions,
        pseudo_sets=pseudo_sets,
        bundles=bundles,
        local_classifiers=prep.classifiers,
        baseline_classifiers=prep.baselines,
        federated_classifiers=federated,
        local_accuracies=prep.baseline_accuracies,
        federated_accuracies=fed_accuracies,
    )
    return RoundResult(report=report, artifacts=artifacts)


def run_round(config: FederationConfig) -> RoundResult:
    """Execute the four protocol phases exactly once."""
    return _complete(_prepare(config), config.alpha)


@dataclass(frozen=True)
class AlphaSweepEntry:
    alpha: float
    report: RoundReport
    total_pseudolabels: int


def sweep_alpha(config: FederationConfig, alphas: Sequence[float]) -> list[AlphaSweepEntry]:
    """Re-run the round at each threshold over identical data and seeds.

    Local training and voting happen once; each entry equals a standalone
    ``run_round`` with that alpha.
    """
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {a}")
    prep = _prepare(config)
    entries = []
    for a in alphas:
        result = _complete(prep, a)
        entries.append(AlphaSweepEntry(alpha=a, report=result.report,
                                       total_pseudolabels=result.report.total_pseudolabels))
    return entries


def sweep_unlabeled_size(config: FederationConfig,
                         sizes: Sequence[int]) -> list[tuple[int, RoundReport]]:
    """Re-run the round at each public-dataset size over nested datasets.

    The largest set is generated once and smaller runs use its row prefix, so
    each entry equals a standalone ``run_round`` with that size.
    """
    sizes = [int(s) for s in sizes]
    for s in sizes:
        if s < 1:
            raise DomainError(f"unlabeled size must be >= 1, got {s}")
    top = max(sizes)
    top_config = replace(config, unlabeled=replace(config.unlabeled, size=top))
    prep = _prepare(top_config)
    entries = []
    for s in sizes:
        sized_config = replace(config, unlabeled=replace(config.unlabeled, size=s))
        sized_data = RoundData(
            pool=prep.data.pool,
            taxonomy=prep.data.taxonomy,
            shards=prep.data.shards,
            test_sets=prep.data.test_sets,
            test_rows=prep.data.test_rows,
            unlabeled=prep.data.unlabeled.prefix(s),
            used_subclasses=prep.data.used_subclasses,
        )
        sized_prep = _Prepared(
            config=sized_config,
            data=sized_data,
            classifiers=prep.classifiers,
            predictions=prep.predictions[:, :s],
            baselines=prep.baselines,
            baseline_accuracies=prep.baseline_accuracies,
        )
        result = _complete(sized_prep, config.alpha)
        entries.append((s, result.report))
    return entries
