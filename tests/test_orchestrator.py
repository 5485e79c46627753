import dataclasses
import hashlib

import numpy as np
import pytest

import fedcotrain as fc
import fedcotrain.orchestrator as orch
from fedcotrain.aggregation import CredibilityWeights
from fedcotrain.domain import DomainError
from fedcotrain.orchestrator import (
    RoundError,
    build_round_data,
    run_round,
    sweep_alpha,
    sweep_unlabeled_size,
)


def small_config(n=4, mode="noniid", alpha=0.3, seed=1, m=150, **kw):
    cfg = fc.default_config(n_participants=n, mode=mode, alpha=alpha,
                            master_seed=seed, unlabeled_size=m)
    cfg = dataclasses.replace(
        cfg,
        taxonomy=dataclasses.replace(cfg.taxonomy, n_superclasses=5,
                                     instances_per_subclass=150),
        partition=dataclasses.replace(cfg.partition,
                                      superclasses_per_participant=(2, 3)),
        test_instances_per_superclass=30,
        **kw,
    )
    return cfg


class TestRunRound:
    def test_single_participant_round_completes(self):
        cfg = small_config(n=1)
        result = run_round(cfg)
        assert len(result.report.participants) == 1
        # the lone participant's bundle comes from its own votes alone
        bundle = result.artifacts.bundles[0]
        preds = result.artifacts.predictions[0]
        for entry in bundle.entries:
            for index in entry.indices:
                assert preds[index] == entry.category

    def test_alpha_one_empty_bundles_ratio_exactly_one(self):
        result = run_round(small_config(alpha=1.0))
        assert result.report.total_pseudolabels == 0
        for p in result.report.participants:
            assert p.bundle_size == 0
            assert p.relative_accuracy == 1.0
            assert p.federated_accuracy == p.local_accuracy

    def test_reports_are_byte_identical_across_runs(self):
        cfg = small_config(seed=9)
        a = run_round(cfg).report
        b = run_round(cfg).report
        assert a.to_jsonl() == b.to_jsonl()
        assert a.to_table() == b.to_table()

    def test_report_fields_well_formed(self):
        result = run_round(small_config())
        report = result.report
        for p in report.participants:
            assert 0.0 <= p.local_accuracy <= 1.0
            assert 0.0 <= p.federated_accuracy <= 1.0
            if p.local_accuracy > 0:
                assert p.relative_accuracy == p.federated_accuracy / p.local_accuracy
        owners_total = {c.category: c.owner_count for c in report.categories}
        for shard in result.artifacts.data.shards:
            for category in shard.label_space:
                assert owners_total[category] >= 1
        assert report.total_pseudolabels == sum(
            c.pseudolabel_count for c in report.categories)

    def test_audit_membership_certificate(self):
        result = run_round(small_config(alpha=0.4))
        artifacts = result.artifacts
        spaces = artifacts.label_spaces
        for bundle in artifacts.bundles:
            for entry in bundle.entries:
                owners = sum(1 for s in spaces if entry.category in s)
                for index in entry.indices:
                    votes = sum(1 for row in artifacts.predictions
                                if row[index] == entry.category)
                    assert votes / owners > 0.4

    def test_weighted_round_runs_and_unit_weights_match_unweighted(self):
        cfg = small_config()
        weighted_cfg = dataclasses.replace(
            cfg, weights=CredibilityWeights.uniform(len(cfg.participants)))
        assert run_round(weighted_cfg).report.to_jsonl() == run_round(cfg).report.to_jsonl()

    def test_global_conflict_removal_flag(self):
        cfg = small_config()
        flagged = dataclasses.replace(cfg, global_conflict_removal=True)
        base = run_round(cfg)
        cleaned = run_round(flagged)
        assert cleaned.report.total_pseudolabels <= base.report.total_pseudolabels
        seen = {}
        for c, pset in cleaned.artifacts.pseudo_sets.items():
            for index in pset.indices:
                assert index not in seen, "global removal left a contested index"
                seen[index] = c

    def test_participant_failure_names_participant(self, monkeypatch):
        cfg = small_config()

        real = orch.train_local

        def boom(kind, space, data, config):
            if config.seed == orch.participant_train_config(cfg, 2).seed:
                raise ValueError("synthetic failure")
            return real(kind, space, data, config)

        monkeypatch.setattr(orch, "train_local", boom)
        with pytest.raises(RoundError, match="participant 2"):
            run_round(cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            small_config(alpha=1.2)
        cfg = small_config()
        with pytest.raises(DomainError):
            dataclasses.replace(cfg, participants=cfg.participants[:-1])
        with pytest.raises(DomainError):
            dataclasses.replace(cfg, weights=CredibilityWeights((1.0,)))

    def test_round_with_held_out_public_data(self):
        # single-subclass ownership leaves clusters no participant drew from,
        # so the public set can come from those held-out blobs
        cfg = small_config(n=2)
        cfg = dataclasses.replace(
            cfg,
            partition=dataclasses.replace(
                cfg.partition, subclasses_per_superclass_owned=(1, 1)),
            unlabeled=dataclasses.replace(cfg.unlabeled,
                                          strategy="held_out_subclasses"),
        )
        data = build_round_data(cfg)
        assert len(data.used_subclasses) < data.taxonomy.n_subclasses
        result = run_round(cfg)
        assert len(result.report.participants) == 2

    def test_round_with_all_four_learner_kinds(self):
        cfg = small_config()
        cfg = dataclasses.replace(
            cfg, participants=orch.mixed_participants(4, orch.SHOWCASE_CYCLE))
        result = run_round(cfg)
        kinds = [p.learner for p in result.report.participants]
        assert kinds == ["logreg", "knn", "gnb", "mlp"]
        for p in result.report.participants:
            assert 0.0 <= p.federated_accuracy <= 1.0


class TestRoundData:
    def test_test_sets_shared_per_superclass(self):
        data = build_round_data(small_config())
        by_super = data.test_rows
        for shard, test in zip(data.shards, data.test_sets):
            expected = np.concatenate([by_super[s] for s in sorted(shard.label_space)])
            assert np.array_equal(test.source_rows, expected)

    def test_no_overlap_between_train_and_test(self):
        data = build_round_data(small_config())
        reserved = {int(r) for rows in data.test_rows.values() for r in rows}
        for shard in data.shards:
            assert not reserved & set(shard.train.source_rows.tolist())

    def test_used_subclasses_reflect_draw_provenance(self):
        data = build_round_data(small_config(mode="noniid"))
        drawn = set()
        for shard in data.shards:
            drawn.update(data.pool.subclass_labels[shard.train.source_rows].tolist())
        assert set(data.used_subclasses) == drawn


class TestSweepAlpha:
    def test_totals_non_increasing_and_empty_at_one(self):
        entries = sweep_alpha(small_config(), [0.0, 0.3, 1.0])
        totals = [e.total_pseudolabels for e in entries]
        assert totals == sorted(totals, reverse=True)
        assert totals[-1] == 0

    def test_singleton_matches_run_round(self):
        cfg = small_config(alpha=0.25)
        (entry,) = sweep_alpha(cfg, [0.25])
        assert entry.report.to_jsonl() == run_round(cfg).report.to_jsonl()

    def test_repeated_alpha_identical(self):
        entries = sweep_alpha(small_config(), [0.2, 0.2])
        assert entries[0].report.to_jsonl() == entries[1].report.to_jsonl()

    def test_each_entry_matches_standalone_round(self):
        cfg = small_config()
        for entry in sweep_alpha(cfg, [0.0, 0.5]):
            standalone = run_round(dataclasses.replace(cfg, alpha=entry.alpha))
            assert entry.report.to_jsonl() == standalone.report.to_jsonl()

    def test_invalid_alpha_rejected(self):
        with pytest.raises(DomainError):
            sweep_alpha(small_config(), [0.2, 1.4])


class TestSweepSize:
    def test_each_size_matches_standalone_round(self):
        cfg = small_config(m=120)
        for size, report in sweep_unlabeled_size(cfg, [40, 120]):
            standalone_cfg = dataclasses.replace(
                cfg, unlabeled=dataclasses.replace(cfg.unlabeled, size=size))
            assert report.to_jsonl() == run_round(standalone_cfg).report.to_jsonl()

    def test_repeated_size_identical(self):
        entries = sweep_unlabeled_size(small_config(), [60, 60])
        assert entries[0][1].to_jsonl() == entries[1][1].to_jsonl()

    def test_size_one_completes_with_tiny_bundles(self):
        (entry,) = sweep_unlabeled_size(small_config(), [1])
        size, report = entry
        assert size == 1
        for c in report.categories:
            assert c.pseudolabel_count <= 1
        for p in report.participants:
            assert p.bundle_size <= 1

    def test_invalid_size_rejected(self):
        with pytest.raises(DomainError):
            sweep_unlabeled_size(small_config(), [0])


class TestReportSerialization:
    def test_records_round_trip_schema(self):
        report = run_round(small_config()).report
        records = report.to_records()
        kinds = {r["record"] for r in records}
        assert kinds == {"participant", "category", "summary"}
        summary = [r for r in records if r["record"] == "summary"][0]
        assert summary["n_participants"] == 4
        assert summary["total_pseudolabels"] == report.total_pseudolabels

    def test_no_feature_values_in_records(self):
        # exported records carry only ids, counts, and accuracy statistics
        result = run_round(small_config())
        allowed = {
            "participant": {"record", "participant", "learner", "train_size",
                            "bundle_size", "local_accuracy", "federated_accuracy",
                            "relative_accuracy"},
            "category": {"record", "category", "owner_count", "pseudolabel_count"},
            "summary": {"record", "alpha", "master_seed", "mode", "unlabeled_size",
                        "n_participants", "total_pseudolabels", "mean_local_accuracy",
                        "mean_federated_accuracy", "mean_relative_accuracy"},
        }
        for record in result.report.to_records():
            assert set(record) == allowed[record["record"]]


# report.jsonl sha256s frozen before the vote kernel was rewritten; a change
# that keeps results identical must keep every one of them.
GOLDEN_REPORT_SHA256 = {
    ("iid", 1): "df998cc5a1f200691be32b9b056e6edbaf8642f89621fa52b2ecc8e6b7a49e9c",
    ("iid", 2): "8f04b7ef68a8b41a2d2dfef1dea18baef7b2c9a3cdbdf99be15c6bad9e4f79b4",
    ("iid", 3): "a40706a2ba689a0338cb6fe849a64699372bd65b84a304f978104ea986c4bc7e",
    ("iid", 4): "869e2dacdeece40ec31a1a649a02bec0ef09d8abe6745f27f78249c6fc22d455",
    ("iid", 5): "27103ee2f5a1df071841aba5511beafbeaa48c3166f5ab7998309f3e6f43effd",
    ("noniid", 1): "c64f503e77f2e772bc7510658586e6e0e62f39861b9f8a4a9b1298c1e12bbe2a",
    ("noniid", 2): "30a342cbd9c7427a0e2cc58b1756bb5e5bd438f190ab4562261434ca3cc90398",
    ("noniid", 3): "d18bc5434fc9fdb788fc9e46e55e8e87cb2029830abd419a6d36b032b299d141",
    ("noniid", 4): "62448b0f12b9d6a8d0b098a9e55411315986ff5b48a773ebcb90bff3c1e43c70",
    ("noniid", 5): "bead63663338713cae95c5c5a977d1931e91a0f5baed7e0a7db168cdb5486de9",
}
GOLDEN_WEIGHTED_SHA256 = "52ede5eb0170e0baf1162a835a9a2a36a6436bb2bdf940537d7d1826a01a2535"


def report_sha256(config) -> str:
    return hashlib.sha256(run_round(config).report.to_jsonl().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode,seed", sorted(GOLDEN_REPORT_SHA256))
def test_golden_report_hashes(mode, seed):
    config = fc.default_config(n_participants=4, mode=mode, master_seed=seed,
                               unlabeled_size=500)
    assert report_sha256(config) == GOLDEN_REPORT_SHA256[(mode, seed)]


def test_golden_report_hash_weighted_with_global_conflict_removal():
    config = dataclasses.replace(
        fc.default_config(n_participants=4, mode="noniid", master_seed=3, unlabeled_size=500),
        weights=CredibilityWeights((1.0, 0.5, 2.0, 0.25)), global_conflict_removal=True)
    assert report_sha256(config) == GOLDEN_WEIGHTED_SHA256
