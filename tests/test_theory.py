import math

import numpy as np
import pytest

import fedcotrain as fc
from fedcotrain.domain import LabeledDataset, LabelSpace, UnlabeledDataset
from fedcotrain.learners import TrainConfig, train_local
from fedcotrain.theory import (
    TheoryError,
    TheoryParams,
    analyze_round,
    guarantee_condition_holds,
    labeled_risk_budget,
    prediction_disagreement,
    retrained_error_bound,
)


def params(**kw):
    base = dict(labeled_size=100, pseudo_size=200, base_error=0.2,
                helper_error=0.2, helper_disagreement=0.1)
    base.update(kw)
    return TheoryParams(**base)


class TestLabeledRiskBudget:
    def test_unit_mass(self):
        # (1!)^(1/1) * e - 1 = e - 1
        assert labeled_risk_budget(1, 1.0) == pytest.approx(math.e - 1.0, abs=1e-12)

    def test_mass_of_two(self):
        # sqrt(2!) * e - 2, directly evaluated
        expected = math.sqrt(2.0) * math.e - 2.0
        assert labeled_risk_budget(10, 0.2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.84423, abs=1e-5)

    def test_monotone_increasing(self):
        assert labeled_risk_budget(4, 1.0) > labeled_risk_budget(2, 1.0)
        grid = np.linspace(0.05, 40.0, 400)
        values = [labeled_risk_budget(1, u) for u in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_integer_mass_matches_exact_factorial(self):
        for u in range(1, 21):
            exact = math.factorial(u) ** (1.0 / u) * math.e - u
            via_gamma = labeled_risk_budget(u, 1.0)
            assert abs(via_gamma - exact) / exact < 1e-9

    def test_non_positive_mass_rejected(self):
        with pytest.raises(TheoryError):
            labeled_risk_budget(0, 0.3)


class TestRetrainedErrorBound:
    def test_zero_correction_when_disagreement_matches_helper_error(self):
        p = params(helper_error=0.3, helper_disagreement=0.3)
        assert retrained_error_bound(p) == p.base_error

    def test_clamps_at_zero(self):
        p = params(labeled_size=100, pseudo_size=200, base_error=0.1,
                   helper_error=0.2, helper_disagreement=0.45)
        # 0.1 + 2 * (0.2 - 0.45) = -0.4 -> clamped
        assert retrained_error_bound(p) == 0.0

    def test_arithmetic_case(self):
        p = params(labeled_size=200, pseudo_size=100, base_error=0.2,
                   helper_error=0.3, helper_disagreement=0.1)
        # 0.2 + 0.5 * 0.2 = 0.3
        assert retrained_error_bound(p) == pytest.approx(0.3, abs=1e-15)

    def test_matches_hand_arithmetic_on_random_draws(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            labeled = int(rng.integers(1, 500))
            pseudo = int(rng.integers(0, 2000))
            base = float(rng.uniform(0.01, 0.49))
            helper = float(rng.uniform(0.01, 0.49))
            d = float(rng.uniform(0.0, 1.0))
            p = params(labeled_size=labeled, pseudo_size=pseudo, base_error=base,
                       helper_error=helper, helper_disagreement=d)
            by_hand = max(base + (pseudo / labeled) * (helper - d), 0.0)
            assert retrained_error_bound(p) == pytest.approx(by_hand, abs=1e-12)
            assert retrained_error_bound(p) >= 0.0

    def test_decreasing_in_disagreement_while_unclamped(self):
        values = [retrained_error_bound(params(helper_disagreement=d))
                  for d in (0.0, 0.05, 0.1, 0.15)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_param_validation(self):
        with pytest.raises(TheoryError):
            params(base_error=0.6)
        with pytest.raises(TheoryError):
            params(helper_error=0.0)
        with pytest.raises(TheoryError):
            params(labeled_size=0)
        # zero pseudolabel mass is legal: the bound degenerates to base_error
        assert retrained_error_bound(params(pseudo_size=0)) == params().base_error

    def test_condition_check(self):
        p = params(labeled_size=2, pseudo_size=400, base_error=0.05, helper_error=0.2)
        assert guarantee_condition_holds(p)
        q = params(labeled_size=10_000, pseudo_size=10, base_error=0.4, helper_error=0.2)
        assert not guarantee_condition_holds(q)
        assert not guarantee_condition_holds(params(pseudo_size=0))


def _fit(seed, rows, labels):
    data = LabeledDataset(rows, labels)
    return train_local("knn", LabelSpace((0, 1)), data, TrainConfig(seed=seed, k=1))


def disagreement(h1, h2, data):
    """The helper-disagreement metric of two classifiers over ``data``."""
    return prediction_disagreement(h1.predict_batch(data), h2.predict_batch(data))


class TestEmpiricalDisagreement:
    def test_self_disagreement_zero(self):
        rng = np.random.default_rng(1)
        clf = _fit(0, rng.normal(0, 1, (10, 2)), np.array([0, 1] * 5))
        X = UnlabeledDataset(rng.normal(0, 1, (30, 2)))
        assert disagreement(clf, clf, X) == 0.0

    def test_complementary_classifiers(self):
        rows = np.array([[-1.0, 0.0], [1.0, 0.0]])
        a = _fit(0, rows, np.array([0, 1]))
        b = _fit(0, rows, np.array([1, 0]))
        X = UnlabeledDataset(np.random.default_rng(2).normal(0, 2, (40, 2)))
        assert disagreement(a, b, X) == 1.0

    def test_symmetry_and_recount(self):
        rng = np.random.default_rng(3)
        a = _fit(0, rng.normal(0, 1, (20, 2)), rng.integers(0, 2, 20))
        b = _fit(1, rng.normal(0, 1, (20, 2)), rng.integers(0, 2, 20))
        X = UnlabeledDataset(rng.normal(0, 1.5, (50, 2)))
        d_ab = disagreement(a, b, X)
        d_ba = disagreement(b, a, X)
        assert d_ab == d_ba
        mismatches = sum(int(x != y) for x, y in zip(
            a.predict_batch(X).tolist(), b.predict_batch(X).tolist()))
        assert d_ab == mismatches / len(X)

    def test_empty_set_rejected(self):
        rng = np.random.default_rng(4)
        clf = _fit(0, rng.normal(0, 1, (10, 2)), np.array([0, 1] * 5))
        with pytest.raises(TheoryError):
            disagreement(clf, clf, np.zeros((0, 2)))


class TestAnalyzeRound:
    def small_config(self, alpha):
        import dataclasses
        cfg = fc.default_config(n_participants=4, mode="noniid", alpha=alpha,
                                master_seed=3, unlabeled_size=150)
        return dataclasses.replace(
            cfg,
            taxonomy=dataclasses.replace(cfg.taxonomy, n_superclasses=5,
                                         instances_per_subclass=150),
            partition=dataclasses.replace(cfg.partition,
                                          superclasses_per_participant=(2, 3)),
            test_instances_per_superclass=30,
        )

    def test_alpha_one_degenerates_to_base_error(self):
        result = fc.run_round(self.small_config(alpha=1.0))
        analysis = analyze_round(result)
        for entry in analysis.participants:
            assert entry.pseudo_size == 0
            assert entry.budget is None
            assert not entry.condition_holds
            assert entry.retrained_bound == entry.base_error

    def test_identical_prediction_rows_have_zero_disagreement(self):
        result = fc.run_round(self.small_config(alpha=0.3))
        result.predictions = np.vstack([result.predictions[0]] * 4)
        analysis = analyze_round(result)
        matrix = np.array(analysis.pairwise_disagreement)
        assert matrix.shape == (4, 4)
        assert np.all(matrix == 0.0)

    def test_values_match_recomputation_from_artifacts(self):
        result = fc.run_round(self.small_config(alpha=0.3))
        analysis = analyze_round(result, helper_error=0.25)
        for i, entry in enumerate(analysis.participants):
            bundle = result.bundles[i]
            assert entry.pseudo_size == len(bundle)
            assert entry.labeled_size == len(result.data.shards[i].train)
            rows, labels = [], []
            for e in bundle.entries:
                rows.extend(e.indices)
                labels.extend([e.category] * len(e.indices))
            if rows:
                fed_preds = result.federated_classifiers[i].predict_batch(
                    result.data.unlabeled.features[np.array(rows)])
                expected_d = float(np.mean(fed_preds != np.array(labels)))
                assert entry.helper_disagreement == expected_d
            expected_bound = max(
                entry.base_error + (entry.pseudo_size / entry.labeled_size)
                * (0.25 - entry.helper_disagreement), 0.0)
            assert entry.retrained_bound == pytest.approx(expected_bound, abs=1e-12)
        # pairwise disagreement equals a direct recount of the vote matrix
        preds = result.predictions
        for i in range(len(preds)):
            for j in range(len(preds)):
                expected = 0.0 if i == j else float(np.mean(preds[i] != preds[j]))
                assert analysis.pairwise_disagreement[i][j] == expected

    def test_missing_artifacts_rejected(self):
        with pytest.raises(TheoryError):
            analyze_round(None)

    def test_prediction_disagreement_validation(self):
        with pytest.raises(TheoryError):
            prediction_disagreement(np.array([1, 2]), np.array([1]))

    def test_given_helper_error_is_taken_as_given(self):
        # only the measured mean is clipped; a value outside (0, 1/2) is refused
        result = fc.run_round(self.small_config(alpha=0.3))
        for bad in (2.0, -1.0, 0.0, 0.5, float("nan")):
            with pytest.raises(TheoryError, match=r"helper_error must lie in \(0, 1/2\)"):
                analyze_round(result, helper_error=bad)
        analysis = analyze_round(result, helper_error=0.499)
        assert {entry.helper_error for entry in analysis.participants} == {0.499}

    def test_measured_helper_error_is_clipped(self):
        import dataclasses
        result = fc.run_round(self.small_config(alpha=0.3))
        result.report = dataclasses.replace(result.report, participants=tuple(
            dataclasses.replace(p, local_accuracy=1.0) for p in result.report.participants))
        analysis = analyze_round(result)
        assert {entry.helper_error for entry in analysis.participants} == {1e-6}
