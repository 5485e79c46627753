"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import dataclasses
import json
import math
import socket
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import fedcotrain as fc
from fedcotrain.aggregation import CredibilityWeights, aggregate, aggregate_weighted
from fedcotrain.cli import load_run_config
from fedcotrain.domain import LabelSpace
from fedcotrain.netproto import validate_message
from fedcotrain.orchestrator import (
    build_round_data,
    run_round,
    size_sweep_config,
    sweep,
)
from fedcotrain.theory import TheoryParams, labeled_risk_budget, retrained_error_bound

A3_SEEDS = (1, 2, 3, 4, 5)
A4_SEEDS = (1, 2, 3)
A4_SIZES = (100, 500, 2000, 5000)


def report(criterion: str, ok: bool, detail: str):
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


def oracle_recount(predictions, label_spaces, alpha, size, weights=None):
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


def random_vote_problem(rng, max_n=6, max_categories=8, max_size=50):
    n = int(rng.integers(1, max_n + 1))
    n_c = int(rng.integers(1, max_categories + 1))
    size = int(rng.integers(1, max_size + 1))
    spaces = []
    for _ in range(n):
        k = int(rng.integers(1, n_c + 1))
        spaces.append(LabelSpace(tuple(sorted(
            rng.choice(n_c, size=k, replace=False).tolist()))))
    predictions = [rng.choice(np.fromiter(space, dtype=np.int64), size=size)
                   for space in spaces]
    return predictions, spaces, size


def test_a1_aggregation_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    checked = 0
    for case in range(1000):
        predictions, spaces, size = random_vote_problem(rng)
        alpha = alphas[case % len(alphas)]
        plain = {c: tuple(s.indices.tolist()) for c, s in
                 aggregate(predictions, spaces, alpha, size).items()}
        assert plain == oracle_recount(predictions, spaces, alpha, size)
        weights = CredibilityWeights(tuple(0.25 + rng.random(len(spaces))))
        weighted = {c: tuple(s.indices.tolist()) for c, s in
                    aggregate_weighted(predictions, spaces, weights, alpha, size).items()}
        assert weighted == oracle_recount(predictions, spaces, alpha, size,
                                          weights=weights.values)
        checked += 1
    elapsed = time.monotonic() - started
    report("A1", checked == 1000 and elapsed < 10.0,
           f"{checked} randomized cases matched the exhaustive recount exactly "
           f"in {elapsed:.1f}s (< 10s)")


def test_a2_alpha_anti_monotonicity_and_emptiness():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    for _ in range(100):
        predictions, spaces, size = random_vote_problem(rng)
        totals = []
        for alpha in alphas:
            result = aggregate(predictions, spaces, alpha, size)
            totals.append(sum(len(s) for s in result.values()))
        assert totals == sorted(totals, reverse=True), "counts increased with alpha"
        assert totals[-1] == 0, "alpha=1 admitted an index"
    elapsed = time.monotonic() - started
    report("A2", elapsed < 5.0,
           f"100 matrices: totals non-increasing in alpha, zero at alpha=1 "
           f"({elapsed:.1f}s < 5s)")


def test_a3_end_to_end_improvement():
    started = time.monotonic()
    per_seed = {"noniid": [], "iid": []}
    all_ratios = {"noniid": [], "iid": []}
    for mode in ("noniid", "iid"):
        for seed in A3_SEEDS:
            config = fc.default_config(n_participants=10, mode=mode, alpha=0.3,
                                       master_seed=seed, unlabeled_size=2000)
            ratios = [p.relative_accuracy
                      for p in run_round(config).report.participants]
            assert all(r is not None for r in ratios)
            per_seed[mode].append(float(np.mean(ratios)))
            all_ratios[mode].extend(ratios)
    elapsed = time.monotonic() - started
    noniid_mean = float(np.mean(all_ratios["noniid"]))
    iid_mean = float(np.mean(all_ratios["iid"]))
    wins = sum(1 for a, b in zip(per_seed["noniid"], per_seed["iid"]) if a >= b)
    ok = (noniid_mean >= 1.05 and iid_mean >= 1.02 and wins >= 4
          and elapsed < 300.0)
    report("A3", ok,
           f"mean relative accuracy noniid={noniid_mean:.3f} (>= 1.05), "
           f"iid={iid_mean:.3f} (>= 1.02), noniid >= iid in {wins}/5 seeds, "
           f"{elapsed:.0f}s < 300s")


def test_a4_unlabeled_size_trend():
    started = time.monotonic()
    rhos = []
    for seed in A4_SEEDS:
        config = size_sweep_config(mode="noniid", alpha=0.3, master_seed=seed)
        # nested datasets: the smaller public set is a row prefix of the larger
        big = build_round_data(dataclasses.replace(
            config, unlabeled=dataclasses.replace(config.unlabeled, size=max(A4_SIZES))))
        small = build_round_data(dataclasses.replace(
            config, unlabeled=dataclasses.replace(config.unlabeled, size=min(A4_SIZES))))
        assert np.array_equal(big.unlabeled.features[:min(A4_SIZES)],
                              small.unlabeled.features)
        entries = sweep([dataclasses.replace(
            config, unlabeled=dataclasses.replace(config.unlabeled, size=s)) for s in A4_SIZES])
        values = [entry.mean_relative_accuracy for entry in entries]
        rho = float(spearmanr(list(A4_SIZES), values).statistic)
        rhos.append(rho)
    elapsed = time.monotonic() - started
    ok = all(rho >= 0.8 - 1e-9 for rho in rhos) and elapsed < 300.0
    report("A4", ok,
           f"Spearman(size, mean relative accuracy) per seed = "
           f"{[round(r, 2) for r in rhos]} (each >= 0.8), {elapsed:.0f}s < 300s")


def test_a5_bound_calculator():
    started = time.monotonic()
    for u in range(1, 21):
        exact = math.factorial(u) ** (1.0 / u) * math.e - u
        via_gamma = labeled_risk_budget(u, 1.0)
        assert abs(via_gamma - exact) / exact < 1e-9, f"u={u}"

    rng = np.random.default_rng(99)
    for _ in range(50):
        labeled = int(rng.integers(1, 1000))
        pseudo = int(rng.integers(0, 5000))
        base = float(rng.uniform(0.01, 0.49))
        helper = float(rng.uniform(0.01, 0.49))
        d = float(rng.uniform(0.0, 1.0))
        params = TheoryParams(labeled_size=labeled, pseudo_size=pseudo,
                              base_error=base, helper_error=helper,
                              helper_disagreement=d)
        by_hand = max(base + (pseudo / labeled) * (helper - d), 0.0)
        assert abs(retrained_error_bound(params) - by_hand) <= 1e-12

    last = 0.0
    for _ in range(1000):
        params = TheoryParams(
            labeled_size=int(rng.integers(1, 1000)),
            pseudo_size=int(rng.integers(0, 5000)),
            base_error=float(rng.uniform(0.01, 0.49)),
            helper_error=float(rng.uniform(0.01, 0.49)),
            helper_disagreement=float(rng.uniform(0.0, 1.0)),
        )
        assert retrained_error_bound(params) >= 0.0
        u = rng.uniform(0.01, 50.0)
        step = rng.uniform(0.01, 5.0)
        low = labeled_risk_budget(1, u)
        high = labeled_risk_budget(1, u + step)
        assert high > low, "budget must increase with pseudolabel mass"
        last = high
    elapsed = time.monotonic() - started
    report("A5", elapsed < 5.0 and last > 0,
           f"integer-mass factorial agreement < 1e-9 rel, 50 arithmetic recounts "
           f"< 1e-12, 1000 clamp/monotonicity draws ({elapsed:.1f}s < 5s)")


def wire_config_doc():
    return {
        "alpha": 0.3,
        "master_seed": 6,
        "taxonomy": {"n_superclasses": 5, "subclasses_per_superclass": 3,
                      "feature_dim": 2, "instances_per_subclass": 120,
                      "superclass_spread": 2.8, "subclass_spread": 2.2,
                      "instance_noise": 0.3},
        "partition": {"n_participants": 3, "superclasses_per_participant": [2, 3],
                       "instances_per_superclass": 8, "mode": "noniid"},
        "unlabeled": {"size": 120, "strategy": "uniform_random", "margin": 0.1},
        "test_instances_per_superclass": 25,
        "participants": [
            {"learner": "knn", "config": {"k": 3}},
            {"learner": "knn", "config": {"k": 5}},
            {"learner": "mlp", "config": {"learning_rate": 0.5, "epochs": 200,
                                           "hidden_width": 32}},
        ],
    }


@pytest.fixture(scope="module")
def wire_round(tmp_path_factory):
    """One 3-participant federation over loopback, via the real CLI processes."""
    tmp = tmp_path_factory.mktemp("wire")
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(wire_config_doc(), indent=2), encoding="utf-8")
    data_dir = tmp / "data"
    subprocess.run([sys.executable, "-m", "fedcotrain.cli", "generate-data",
                    "--config", str(config_path), "--out", str(data_dir)],
                   check=True, capture_output=True)
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    serve_proc = subprocess.Popen(
        [sys.executable, "-m", "fedcotrain.cli", "serve", "--data", str(data_dir),
         "--bind", f"127.0.0.1:{port}", "--timeout", "45",
         "--out", str(tmp / "served")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    time.sleep(1.0)
    clients = [subprocess.Popen(
        [sys.executable, "-m", "fedcotrain.cli", "join", "--data", str(data_dir),
         "--participant", str(i), "--addr", f"127.0.0.1:{port}",
         "--out", str(tmp / "joined")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for i in range(3)]
    join_outputs = [proc.communicate(timeout=90) for proc in clients]
    serve_out, serve_err = serve_proc.communicate(timeout=90)
    return {
        "tmp": tmp,
        "config_path": config_path,
        "data_dir": data_dir,
        "serve_code": serve_proc.returncode,
        "serve_out": serve_out + serve_err,
        "join_codes": [proc.returncode for proc in clients],
        "join_outputs": join_outputs,
    }


def test_a6_wire_matches_in_process(wire_round):
    started = time.monotonic()
    assert wire_round["serve_code"] == 0, wire_round["serve_out"]
    assert wire_round["join_codes"] == [0, 0, 0]

    in_process = run_round(load_run_config(wire_round["config_path"]))

    served_bundles = (wire_round["tmp"] / "served" / "bundles.jsonl").read_text()
    expected_bundles = "".join(
        json.dumps({"record": "bundle", "participant": b.owner,
                    "entries": [{"category": e.category, "indices": e.indices.tolist()}
                                for e in b.entries]}, sort_keys=True) + "\n"
        for b in in_process.bundles)
    bundles_identical = served_bundles == expected_bundles

    # the joins' participant lines, in id order, then serve's category lines are
    # run's report.jsonl without its summary line, byte for byte
    joined = wire_round["tmp"] / "joined"
    wire_records = "".join(
        [(joined / f"participant_{i:02d}_report.jsonl").read_text() for i in range(3)]
        + [(wire_round["tmp"] / "served" / "categories.jsonl").read_text()])
    expected_records = "".join(
        line + "\n" for line in in_process.report.to_jsonl().splitlines()
        if json.loads(line)["record"] != "summary")
    records_identical = wire_records == expected_records
    elapsed = time.monotonic() - started
    report("A6", bundles_identical and records_identical,
           f"3-participant loopback round: bundles, participant and category records "
           f"byte-identical to the in-process orchestrator (compare took {elapsed:.0f}s)")


def test_a7_privacy_boundary(wire_round):
    transcripts = []
    served = wire_round["tmp"] / "served" / "transcript.jsonl"
    transcripts.extend(json.loads(line) for line in served.read_text().splitlines())
    for i in range(3):
        client_side = (wire_round["tmp"] / "joined"
                       / f"participant_{i:02d}_transcript.jsonl")
        transcripts.extend(json.loads(line)
                           for line in client_side.read_text().splitlines())
    assert transcripts, "no messages captured"

    # every local feature value, serialized every way the wire could carry it
    data = build_round_data(load_run_config(wire_round["config_path"]))
    private_values = set()
    for shard in data.shards:
        for v in shard.train.features.ravel():
            private_values.add(repr(float(v)))
            private_values.add(format(float(v), ".17g"))

    def scan(obj):
        if isinstance(obj, float):
            return False, "float value on the wire"
        if isinstance(obj, str) and obj in private_values:
            return False, "private feature value on the wire"
        if isinstance(obj, dict):
            for v in obj.values():
                ok, why = scan(v)
                if not ok:
                    return ok, why
        if isinstance(obj, list):
            for v in obj:
                ok, why = scan(v)
                if not ok:
                    return ok, why
        return True, ""

    checked = 0
    for entry in transcripts:
        validate_message(entry["message"])
        ok, why = scan(entry["message"])
        assert ok, why
        checked += 1
    report("A7", checked > 0,
           f"{checked} captured messages schema-validated: category ids, indices, "
           f"and metadata only; no feature values")


def test_a8_run_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(wire_config_doc(), indent=2), encoding="utf-8")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fedcotrain.cli", "run",
             "--config", str(config_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(((out / "report.jsonl").read_bytes(),
                        (out / "report.txt").read_bytes()))
    identical = outputs[0] == outputs[1]
    report("A8", identical,
           "two cmd_run executions produced byte-identical report.jsonl and report.txt")
