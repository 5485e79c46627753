"""Single-round federated cotraining over a shared public unlabeled dataset."""

from .aggregation import (
    AggregationError,
    CredibilityWeights,
    PseudolabelBundle,
    PseudolabelSet,
    aggregate,
    aggregate_weighted,
    build_bundle,
    remove_global_conflicts,
)
from .domain import (
    DomainError,
    LabeledDataset,
    LabelSpace,
    PartitionSpec,
    Pool,
    SubclassTaxonomy,
    TaxonomySpec,
    UnlabeledDataset,
    generate_taxonomy,
    load_csv,
    partition,
    save_csv,
)
from .learners import (
    LEARNER_KINDS,
    Classifier,
    LearnerError,
    TrainConfig,
    evaluate,
    make_classifier,
    materialize_bundle,
    pseudolabel,
    train_local,
    update_train,
)
from .orchestrator import (
    FederationConfig,
    ParticipantSpec,
    RoundReport,
    RoundResult,
    UnlabeledSpec,
    default_config,
    mixed_participants,
    run_round,
    size_sweep_config,
    sweep,
)
from .seeding import derive_seed
from .theory import (
    TheoryError,
    TheoryParams,
    analyze_round,
    guarantee_condition_holds,
    labeled_risk_budget,
    retrained_error_bound,
)

__version__ = "0.1.0"
