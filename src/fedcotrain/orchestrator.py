"""Single-round federation run over in-process participants.

The protocol has four phases, each a barrier: every participant trains a
local model on its private shard, labels the shared public dataset, the
coordinator thresholds the pooled votes into per-category index sets and
hands each participant its conflict-free bundle, and every participant
retrains from scratch on its own data plus the bundle. The round happens
exactly once; there is no iterative refinement.

A participant's side of the round is one step, ``Participant``.
``_prepare`` builds the round's participants once and runs every vote, then
every baseline; ``_complete`` runs every update on those same participants.
``run_round`` and ``sweep`` share both, and ``netproto.join`` votes before
it connects and retrains after.

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
import math
from dataclasses import asdict, dataclass, field, fields, replace
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
    held_out_unlabeled,
    partition,
    test_set_for,
    uniform_random_unlabeled,
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
        if not 0 <= self.margin < math.inf:
            raise DomainError("unlabeled margin must be finite and >= 0")


@dataclass(frozen=True)
class ParticipantSpec:
    learner: str
    config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.learner not in LEARNER_KINDS:
            raise DomainError(
                f"unknown learner {self.learner!r}; choose from {sorted(LEARNER_KINDS)}"
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
    test_sets = [test_set_for(pool, shard.label_space, test_rows) for shard in shards]
    used = sorted({int(s) for shard in shards
                   for s in pool.subclass_labels[shard.train.source_rows]})
    spec, seed = config.unlabeled, derive_seed(master, "unlabeled")
    if spec.strategy == "uniform_random":
        unlabeled = uniform_random_unlabeled(pool, spec.size, seed, margin=spec.margin)
    else:
        unlabeled = held_out_unlabeled(taxonomy, used, spec.size, seed)
    return RoundData(pool=pool, taxonomy=taxonomy, shards=shards, test_sets=test_sets,
                     test_rows=test_rows, unlabeled=unlabeled,
                     used_subclasses=tuple(used))


@dataclass(frozen=True)
class ParticipantReport:
    """One participant's line of a round's report, in-process or over the wire."""

    participant: int
    learner: str
    train_size: int
    bundle_size: int
    local_accuracy: float
    federated_accuracy: float
    relative_accuracy: float | None = field(init=False)

    def __post_init__(self):
        local, federated = self.local_accuracy, self.federated_accuracy
        object.__setattr__(self, "relative_accuracy", federated / local if local > 0 else None)

    def to_record(self) -> dict:
        """The report line: this class's fields only, never a subclass's."""
        return {"record": "participant",
                **{f.name: getattr(self, f.name) for f in fields(ParticipantReport)}}


@dataclass(frozen=True)
class CategoryReport:
    category: int
    owner_count: int
    pseudolabel_count: int

    def to_record(self) -> dict:
        return {"record": "category", **asdict(self)}


def category_reports(pseudo_sets: dict[int, PseudolabelSet],
                     spaces: Sequence[LabelSpace]) -> tuple[CategoryReport, ...]:
    """One record per voted category, in id order: its owners and admitted count."""
    return tuple(CategoryReport(category=c, owner_count=sum(1 for s in spaces if c in s),
                                pseudolabel_count=len(pseudo_sets[c]))
                 for c in sorted(pseudo_sets))


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
        records = [r.to_record() for r in (*self.participants, *self.categories)]
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
        lines.append(f"mean local={self.mean_local_accuracy:.4f} "
                     f"fed={self.mean_federated_accuracy:.4f} ratio="
                     + (f"{mean_ratio:.4f}" if mean_ratio is not None else "n/a"))
        lines.append(
            f"alpha={self.alpha} mode={self.mode} seed={self.master_seed} "
            f"unlabeled={self.unlabeled_size} total_pseudolabels={self.total_pseudolabels}"
        )
        return "\n".join(lines) + "\n"


@dataclass
class RoundResult:
    """A finished round: its report, and everything needed to audit or analyze it."""

    report: RoundReport
    data: RoundData
    predictions: np.ndarray
    pseudo_sets: dict[int, PseudolabelSet]
    bundles: list[PseudolabelBundle]
    federated_classifiers: list[Classifier]


class RoundError(RuntimeError):
    """A participant failed mid-round; the round aborts."""


def _named_phase(action, participant: int, phase: str):
    try:
        return action()
    except Exception as exc:
        raise RoundError(f"participant {participant} failed during {phase}: {exc}") from exc


@dataclass(frozen=True)
class Participant:
    """One participant's step, the same in-process and over the wire: train
    locally and vote, then retrain without and with the admitted pseudolabels."""

    index: int
    learner: str
    label_space: LabelSpace
    train: LabeledDataset
    test: LabeledDataset
    public: UnlabeledDataset
    config: TrainConfig

    def vote(self) -> np.ndarray:
        """Train the local model and return its label for every public instance."""
        local = _named_phase(
            lambda: train_local(self.learner, self.label_space, self.train, self.config),
            self.index, "local training")
        return _named_phase(lambda: pseudolabel(local, self.public), self.index,
                            "pseudolabeling")

    def baseline(self) -> tuple[Classifier, float]:
        """The empty-bundle retrain, with its test accuracy."""
        return self._fit(PseudolabelBundle.empty(self.index), "baseline retraining")

    def update(self, bundle: PseudolabelBundle,
               baseline: tuple[Classifier, float]) -> tuple[Classifier, float]:
        """The retrain on ``bundle``; with an empty bundle that is ``baseline``."""
        if len(bundle) == 0:
            return baseline
        return self._fit(bundle, "update training")

    def _fit(self, bundle: PseudolabelBundle, phase: str) -> tuple[Classifier, float]:
        fitted = _named_phase(
            lambda: update_train(self.learner, self.label_space, self.train, bundle,
                                 self.public, self.config),
            self.index, phase)
        return fitted, _named_phase(lambda: evaluate(fitted, self.test),
                                    self.index, "evaluation")


@dataclass
class _Prepared:
    """What every completion of a round shares, alpha and public-set size
    aside: the data, the participants, every one's vote (one row each) and
    its empty-bundle baseline (classifier, accuracy)."""

    data: RoundData
    members: list[Participant]
    predictions: np.ndarray
    baselines: list[tuple[Classifier, float]]


def _prepare(config: FederationConfig) -> _Prepared:
    # Every participant votes before any baseline is fit, so the first
    # failure a round names does not depend on the baseline phase.
    data = build_round_data(config)
    members = [Participant(i, config.participants[i].learner, shard.label_space, shard.train,
                           data.test_sets[i], data.unlabeled, participant_train_config(config, i))
               for i, shard in enumerate(data.shards)]
    predictions = np.vstack([p.vote() for p in members])
    return _Prepared(data=data, members=members, predictions=predictions,
                     baselines=[p.baseline() for p in members])


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


def _complete(prep: _Prepared, config: FederationConfig) -> RoundResult:
    """The round of ``config`` over ``prep``'s first ``config.unlabeled.size``
    public rows and the same columns of the votes.

    The participants keep the largest public set: every bundle index lies
    below ``size``, and a bundle's rows are gathered by index, so they
    retrain on the same rows as over the prefix.
    """
    size = config.unlabeled.size
    predictions = prep.predictions[:, :size]
    spaces = [p.label_space for p in prep.members]
    pseudo_sets, bundles = coordinate(list(predictions), spaces, config.alpha, size,
                                      config.weights, config.global_conflict_removal)
    federated = [p.update(bundle, baseline)
                 for p, bundle, baseline in zip(prep.members, bundles, prep.baselines)]
    participant_reports = tuple(
        ParticipantReport(participant=p.index, learner=p.learner, train_size=len(p.train),
                          bundle_size=len(bundle), local_accuracy=local_acc,
                          federated_accuracy=fed_acc)
        for p, bundle, (_, local_acc), (_, fed_acc)
        in zip(prep.members, bundles, prep.baselines, federated))
    report = RoundReport(
        participants=participant_reports,
        categories=category_reports(pseudo_sets, spaces),
        alpha=config.alpha,
        master_seed=config.master_seed,
        mode=config.partition.mode,
        unlabeled_size=size,
    )
    return RoundResult(
        report=report,
        data=replace(prep.data, unlabeled=prep.data.unlabeled.prefix(size)),
        predictions=predictions,
        pseudo_sets=pseudo_sets,
        bundles=bundles,
        federated_classifiers=[clf for clf, _ in federated],
    )


def run_round(config: FederationConfig) -> RoundResult:
    """Execute the four protocol phases exactly once."""
    return _complete(_prepare(config), config)


def sweep(configs: Sequence[FederationConfig]) -> list[RoundReport]:
    """Each config's round, all over one prepared round.

    The configs may differ only in ``alpha`` and ``unlabeled.size``. Local
    training and voting happen once, at the largest public set, and a smaller
    set is its row prefix, so each report equals a standalone ``run_round``.
    """
    top = max(configs, key=lambda c: c.unlabeled.size)
    if any(replace(c, alpha=top.alpha, unlabeled=replace(c.unlabeled, size=top.unlabeled.size))
           != top for c in configs):
        raise DomainError("sweep configs may differ only in alpha and unlabeled.size")
    prep = _prepare(top)
    return [_complete(prep, c).report for c in configs]
