import dataclasses
import hashlib
import json
import re
import socket
import threading
import time
from pathlib import Path

import pytest

import fedcotrain.orchestrator as orch
from fedcotrain.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_RUNTIME,
    ConfigError,
    build_parser,
    canonical_config,
    load_run_config,
    main,
    parse_run_config,
)
from fedcotrain.domain import PartitionSpec
from fedcotrain.learners import TrainConfig
from fedcotrain.netproto import PROTOCOL_VERSION, Coordinator, array_text
from fedcotrain.orchestrator import FederationConfig, build_round_data
from test_netproto import RawClient, wire_line


def base_config(n=3, m=60, seed=2, mode="noniid"):
    return {
        "alpha": 0.3,
        "master_seed": seed,
        "taxonomy": {"n_superclasses": 5, "subclasses_per_superclass": 3,
                      "feature_dim": 2, "instances_per_subclass": 120,
                      "superclass_spread": 2.8, "subclass_spread": 2.2,
                      "instance_noise": 0.3},
        "partition": {"n_participants": n, "superclasses_per_participant": [2, 3],
                       "instances_per_superclass": 8, "mode": mode},
        "unlabeled": {"size": m, "strategy": "uniform_random", "margin": 0.1},
        "test_instances_per_superclass": 20,
        "participants": [
            {"learner": "knn", "config": {"k": 3}},
            {"learner": "knn", "config": {"k": 5}},
            {"learner": "mlp", "config": {"learning_rate": 0.5, "epochs": 150,
                                           "hidden_width": 32}},
        ][:n],
    }


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(), indent=2), encoding="utf-8")
    return path


WIRE_ARGS = {"serve": ["--data", "d"],
             "join": ["--data", "d", "--participant", "0", "--addr", "127.0.0.1:9"]}


def free_port():
    sock = socket.create_server(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestParser:
    @pytest.mark.parametrize("argv, refused", [
        *[([command, *args, *flag], True) for command, args in WIRE_ARGS.items()
          for flag in (["--config", "c.json"], ["--seed", "7"], ["--format", "records"])],
        (["generate-data", "--config", "c.json", "--format", "records"], True),
        *[([command, "--config", "c.json", "--format", "records"], False)
          for command in ("run", "sweep-alpha", "sweep-size", "analyze")],
    ])
    def test_only_report_commands_take_format_and_wire_ones_take_no_config(
            self, capsys, argv, refused):
        # serve and join read the config and its seed from the manifest they serve
        if not refused:
            assert build_parser().parse_args(argv).format == "records"
            return
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestConfigParsing:
    def test_round_trip_through_canonical_form(self):
        config = parse_run_config(base_config())
        canon = canonical_config(config)
        config2 = parse_run_config(canon)
        assert canonical_config(config2) == canon
        assert config2 == config

    def test_unknown_key_names_path(self):
        doc = base_config()
        doc["taxonomy"]["bogus"] = 1
        with pytest.raises(Exception, match="taxonomy: unknown key 'bogus'"):
            parse_run_config(doc)

    def test_unknown_top_level_key(self):
        # where output goes, what a sweep runs and where serve listens are flags
        for key in ("extra", "netproto", "output_dir", "sweep_alphas", "sweep_sizes"):
            with pytest.raises(ConfigError, match=f"^config: unknown key '{key}'$"):
                parse_run_config({**base_config(), key: True})

    def test_missing_learner_names_participant(self):
        doc = base_config()
        del doc["participants"][1]["learner"]
        with pytest.raises(Exception, match="participant 1"):
            parse_run_config(doc)

    def test_unknown_learner_kind(self):
        doc = base_config()
        doc["participants"][0]["learner"] = "transformer"
        with pytest.raises(Exception, match="unknown learner 'transformer'"):
            parse_run_config(doc)

    def test_bad_mode_rejected(self):
        doc = base_config()
        doc["mode"] = "cluster"
        with pytest.raises(Exception, match="mode"):
            parse_run_config(doc)

    def test_weights_parsed(self):
        doc = base_config()
        doc["weights"] = [1.0, 2.0, 1.0]
        assert parse_run_config(doc).weights.values == (1.0, 2.0, 1.0)

    def test_seed_override(self, config_path):
        assert load_run_config(config_path, seed_override=99).master_seed == 99

    def test_example_config_is_its_own_canonical_form(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "example.json"
        canon = canonical_config(load_run_config(path))
        assert json.dumps(canon, sort_keys=True, indent=2) + "\n" == path.read_text()

    def test_canonical_form_writes_every_dataclass_field_but_seeds(self):
        canon = canonical_config(parse_run_config(base_config()))
        assert set(canon["participants"][0]["config"]) == {
            f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}
        assert set(canon["partition"]) == {
            f.name for f in dataclasses.fields(PartitionSpec)} - {"seed"}
        assert set(canon) == {f.name for f in dataclasses.fields(FederationConfig)}
        assert canon["weights"] is None

    def test_participant_seed_is_unknown_key(self):
        doc = base_config()
        doc["participants"][2]["config"]["seed"] = 123
        with pytest.raises(ConfigError, match=r"participant 2\.config: unknown key 'seed'"):
            parse_run_config(doc)

    def test_partition_mode_defaults_to_noniid(self):
        doc = base_config()
        del doc["partition"]["mode"]
        assert parse_run_config(doc) == parse_run_config(base_config(mode="noniid"))

    @pytest.mark.parametrize("section, key, value, message", [
        ("partition", "mode", "cluster", "partition: mode must be one of"),
        ("unlabeled", "size", 0, "unlabeled: unlabeled size must be >= 1"),
        ("taxonomy", "n_superclasses", 2 ** 15 + 1,
         "taxonomy: taxonomy spec field n_superclasses must be <= 32768"),
        ("unlabeled", "strategy", "nearest", "unlabeled: unlabeled strategy must be one of"),
        ("taxonomy", "feature_dim", 2.5, "taxonomy.feature_dim: expected an integer"),
        ("partition", "superclasses_per_participant", [2], "expected a list of 2 integers"),
        ("participants", 2, {"learner": "mlp", "config": {"learning_rate": float("nan")}},
         "participant 2.config: learning_rate must be finite and > 0"),
        ("participants", 2, {"learner": "mlp", "config": {"learning_rate": float("inf")}},
         "participant 2.config: learning_rate must be finite and > 0"),
        ("participants", 0, {"learner": "gnb", "config": {"smoothing": float("nan")}},
         "participant 0.config: smoothing must be finite and > 0"),
        ("unlabeled", "margin", float("nan"), "unlabeled: unlabeled margin must be finite"),
        ("unlabeled", "margin", float("inf"), "unlabeled: unlabeled margin must be finite"),
    ])
    def test_bad_values_name_their_path(self, section, key, value, message):
        doc = base_config()
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_run_config(doc)


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = base_config()
        doc["partition"]["surprise"] = 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "partition: unknown key 'surprise'" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    def test_runtime_error_exits_3(self, tmp_path, capsys):
        doc = base_config()
        doc["taxonomy"]["instances_per_subclass"] = 4
        doc["partition"]["instances_per_superclass"] = 100
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_RUNTIME
        assert "pool exhausted" in capsys.readouterr().err


class TestGenerateData:
    def test_manifest_and_reruns_identical(self, config_path, tmp_path, capsys):
        out1 = tmp_path / "d1"
        out2 = tmp_path / "d2"
        assert main(["generate-data", "--config", str(config_path),
                     "--out", str(out1)]) == EXIT_OK
        assert main(["generate-data", "--config", str(config_path),
                     "--out", str(out2)]) == EXIT_OK
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1 == m2
        assert len(m1["participants"]) == 3
        for entry in m1["participants"]:
            assert (out1 / entry["train"]["file"]).exists()
            assert (out1 / entry["test"]["file"]).exists()
        assert (out1 / m1["unlabeled"]["file"]).exists()
        assert (out1 / m1["pool"]["file"]).exists()

    def test_noniid_manifest_records_owned_subclasses(self, config_path, tmp_path):
        out = tmp_path / "data"
        assert main(["generate-data", "--config", str(config_path),
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        data = build_round_data(load_run_config(config_path))
        for entry, shard in zip(manifest["participants"], data.shards):
            recorded = {int(k): tuple(v) for k, v in entry["owned_subclasses"].items()}
            assert recorded == shard.owned_subclasses
            assert entry["label_space"] == [int(c) for c in shard.label_space]

    def test_seed_override_changes_hashes(self, config_path, tmp_path):
        out1 = tmp_path / "d1"
        out2 = tmp_path / "d2"
        main(["generate-data", "--config", str(config_path), "--out", str(out1)])
        main(["generate-data", "--config", str(config_path), "--out", str(out2),
              "--seed", "77"])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["unlabeled"]["sha256"] != m2["unlabeled"]["sha256"]


class TestRun:
    def test_run_twice_byte_identical_reports(self, config_path, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["run", "--config", str(config_path), "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", str(config_path), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()

    def test_records_format_prints_jsonl(self, config_path, tmp_path, capsys):
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"),
              "--format", "records"])
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert any(r["record"] == "summary" for r in lines)

    def test_dump_artifacts_contains_only_ids_and_indices(self, config_path, tmp_path):
        out = tmp_path / "o"
        main(["run", "--config", str(config_path), "--out", str(out),
              "--dump-artifacts"])
        records = [json.loads(l) for l in
                   (out / "artifacts.jsonl").read_text().splitlines()]
        kinds = {r["record"] for r in records}
        assert kinds == {"predictions", "pseudolabel_set", "bundle"}

        def only_ints(obj):
            if isinstance(obj, bool):
                return False
            if isinstance(obj, (int, str)):
                return True
            if isinstance(obj, list):
                return all(only_ints(v) for v in obj)
            if isinstance(obj, dict):
                return all(only_ints(v) for v in obj.values())
            return False

        for record in records:
            assert only_ints(record)

    def test_dump_artifacts_bytes_are_pinned(self, config_path, tmp_path):
        # Frozen while index sets were tuples of Python ints: the JSON bytes of
        # the votes, admitted sets and bundles must not depend on their
        # in-memory form. This config admits empty sets and drops conflicts.
        out = tmp_path / "o"
        main(["run", "--config", str(config_path), "--out", str(out), "--dump-artifacts"])
        digest = hashlib.sha256((out / "artifacts.jsonl").read_bytes()).hexdigest()
        assert digest == "e81ce84dacfc4c794cfd0eb5a1fa9f89834f81ac7329f29843129d56233b08f2"

    def test_out_defaults_to_runs(self, config_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        assert (tmp_path / "runs" / "report.jsonl").exists()


class TestSweeps:
    def test_alpha_sweep_counts_non_increasing(self, config_path, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(["sweep-alpha", "--config", str(config_path), "--out", str(out),
                     "--alphas", "0,0.25,0.5,0.75,1"])
        assert code == EXIT_OK
        records = [json.loads(l) for l in
                   (out / "sweep_alpha.jsonl").read_text().splitlines()]
        assert len(records) == 5
        totals = [r["total_pseudolabels"] for r in records]
        assert totals == sorted(totals, reverse=True)
        assert totals[-1] == 0

    def test_alpha_sweep_bytes_are_pinned(self, config_path, tmp_path):
        # Frozen while each sweep entry copied its report's total: the
        # records' bytes must not depend on how the sweep hands reports over.
        out = tmp_path / "s"
        main(["sweep-alpha", "--config", str(config_path), "--out", str(out),
              "--alphas", "0,0.25,0.5,0.75,1"])
        digest = hashlib.sha256((out / "sweep_alpha.jsonl").read_bytes()).hexdigest()
        assert digest == "36cedf3d6ec813a3eb632c77e52de9104b4e8049d755bcc598bb883a1cff2185"

    def test_size_sweep_rows(self, config_path, tmp_path):
        out = tmp_path / "s"
        code = main(["sweep-size", "--config", str(config_path), "--out", str(out),
                     "--sizes", "20,60"])
        assert code == EXIT_OK
        records = [json.loads(l) for l in
                   (out / "sweep_size.jsonl").read_text().splitlines()]
        assert [r["unlabeled_size"] for r in records] == [20, 60]

    def test_alpha_sweep_without_values_runs_the_default_alphas(self, config_path, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep-alpha", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        records = [json.loads(l) for l in (out / "sweep_alpha.jsonl").read_text().splitlines()]
        assert [r["alpha"] for r in records] == [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0]

    @pytest.mark.parametrize("command, doc_values, flags, named", [
        ("sweep-alpha", {"sweep_alphas": ["x"]}, [], "sweep_alphas"),
        ("sweep-alpha", {"sweep_alphas": [None]}, [], "sweep_alphas"),
        ("sweep-size", {"sweep_sizes": ["ab"]}, [], "sweep_sizes"),
        ("sweep-size", {"sweep_sizes": [2.5, 40]}, [], "sweep_sizes"),
        ("sweep-alpha", {}, ["--alphas", "0.1,x"], "--alphas"),
        ("sweep-size", {}, ["--sizes", "1.5"], "--sizes"),
        ("sweep-size", {}, ["--sizes", "20,,60"], "--sizes"),
    ])
    def test_bad_sweep_values_are_config_errors(self, tmp_path, capsys, command,
                                                doc_values, flags, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**base_config(), **doc_values}), encoding="utf-8")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "s"), *flags])
        assert code == EXIT_CONFIG
        # the values are flags only: a config that still carries them is refused
        expected = (f"config error: {named}: expected a non-empty list of" if flags
                    else f"config error: config: unknown key {named!r}")
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, cause", [
        ("sweep-alpha", ["--alphas", "0.3,1.5"], "--alphas: alpha must lie in [0, 1], got 1.5"),
        ("sweep-size", ["--sizes", "0"], "--sizes: unlabeled size must be >= 1"),
    ])
    def test_sweep_values_the_config_refuses_are_config_errors(self, config_path, tmp_path,
                                                               capsys, monkeypatch, command,
                                                               flags, cause):
        # checked as the config checks its own value, before any training
        def fail(*args):
            raise AssertionError("the sweep trained before checking its values")

        monkeypatch.setattr(orch, "train_local", fail)
        code = main([command, "--config", str(config_path), "--out", str(tmp_path / "s"),
                     *flags])
        assert code == EXIT_CONFIG
        assert f"config error: {cause}" in capsys.readouterr().err


class TestAnalyze:
    def test_analysis_written_next_to_report(self, config_path, tmp_path):
        out = tmp_path / "a"
        assert main(["analyze", "--config", str(config_path),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "report.jsonl").exists()
        records = [json.loads(l) for l in
                   (out / "analysis.jsonl").read_text().splitlines()]
        assert sum(1 for r in records if r["record"] == "analysis") == 3
        assert any(r["record"] == "pairwise_disagreement" for r in records)

    def test_analysis_bytes_are_pinned(self, config_path, tmp_path):
        # Frozen while each analysis record listed its fields by hand.
        out = tmp_path / "a"
        main(["analyze", "--config", str(config_path), "--out", str(out)])
        digest = hashlib.sha256((out / "analysis.jsonl").read_bytes()).hexdigest()
        assert digest == "ff7ad0a289da8e8b7bf58b3968f6a7225fa9212c204f409f7d553d01f6713190"

    @pytest.mark.parametrize("value", ["nan", "2.0", "-1", "0", "0.5"])
    def test_helper_error_theory_refuses_is_config_error(self, config_path, tmp_path, capsys,
                                                         monkeypatch, value):
        # refused by theory's own rule before the round runs or writes a file
        def fail(*args):
            raise AssertionError("the round ran before its flag was checked")

        monkeypatch.setattr(orch, "train_local", fail)
        out = tmp_path / "a"
        code = main(["analyze", "--config", str(config_path), "--out", str(out),
                     f"--helper-error={value}"])
        assert code == EXIT_CONFIG
        assert ("config error: --helper-error: helper_error must lie in (0, 1/2)"
                in capsys.readouterr().err)
        assert not out.exists()


class TestServeJoin:
    def test_round_trip_over_loopback(self, config_path, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(config_path), "--out", str(data_dir)])
        port = free_port()
        serve_code = {}

        def serve():
            serve_code["value"] = main([
                "serve", "--data", str(data_dir),
                "--bind", f"127.0.0.1:{port}", "--timeout", "30",
                "--out", str(tmp_path / "served")])

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        import time
        time.sleep(0.4)
        join_codes = {}

        def client(i):
            join_codes[i] = main([
                "join", "--data", str(data_dir),
                "--participant", str(i), "--addr", f"127.0.0.1:{port}",
                "--out", str(tmp_path / "joined")])

        clients = [threading.Thread(target=client, args=(i,)) for i in range(3)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60)
        server.join(timeout=60)
        assert serve_code["value"] == EXIT_OK
        assert all(code == EXIT_OK for code in join_codes.values())
        for i in range(3):
            frag = tmp_path / "joined" / f"participant_{i:02d}_report.jsonl"
            record = json.loads(frag.read_text())
            assert record["participant"] == i
            transcript = tmp_path / "joined" / f"participant_{i:02d}_transcript.jsonl"
            assert all(json.loads(line).keys() == {"direction", "message"}
                       for line in transcript.read_text().splitlines())

    @staticmethod
    def serve_in_order(data_dir, out, order):
        """Serve one round with ``--out``; participants register, then vote, in ``order``.

        Each participant is a raw socket that sends its REGISTER only once the
        one before it has been acknowledged, so the order is exact.
        """
        manifest = json.loads((data_dir / "manifest.json").read_text())
        size = manifest["unlabeled"]["size"]
        port = free_port()
        code = {}
        server = threading.Thread(target=lambda: code.setdefault("serve", main([
            "serve", "--data", str(data_dir),
            "--bind", f"127.0.0.1:{port}", "--timeout", "30", "--out", str(out)])),
            daemon=True)
        server.start()
        clients = {}
        for i in order:
            deadline = time.monotonic() + 10
            while True:
                try:
                    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
                    break
                except ConnectionRefusedError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            reader = sock.makefile("rb")
            clients[i] = sock, reader
            space = manifest["participants"][i]["label_space"]
            sock.sendall(wire_line({"v": PROTOCOL_VERSION, "kind": "REGISTER", "payload": {
                "participant_id": i, "label_space": space, "train_size": 8}}))
            assert json.loads(reader.readline())["kind"] == "REGISTER_ACK"
        for i in order:
            space = manifest["participants"][i]["label_space"]
            labels = [space[(j * (i + 1)) % len(space)] for j in range(size)]
            clients[i][0].sendall(wire_line({"v": PROTOCOL_VERSION, "kind": "PREDICTIONS",
                                             "payload": {"participant_id": i, "labels": labels}}))
        for i in order:
            sock, reader = clients[i]
            assert [json.loads(reader.readline())["kind"] for _ in range(2)] == ["BUNDLE", "BYE"]
            reader.close()
            sock.close()
        server.join(timeout=30)
        assert not server.is_alive()
        assert code["serve"] == EXIT_OK

    def test_serve_out_files_do_not_depend_on_arrival_order(self, config_path, tmp_path):
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(config_path), "--out", str(data_dir)])
        digests = []
        for name, order in (("first", (0, 1, 2)), ("second", (2, 0, 1))):
            out = tmp_path / name
            self.serve_in_order(data_dir, out, order)
            lines = [json.loads(line)
                     for line in (out / "transcript.jsonl").read_text().splitlines()]
            # every message of each participant, grouped by id, without addresses
            assert [entry["message"]["kind"] for entry in lines] == \
                ["REGISTER", "REGISTER_ACK", "PREDICTIONS", "BUNDLE", "BYE"] * 3
            assert all(entry.keys() == {"direction", "message"} for entry in lines)
            digests.append([hashlib.sha256((out / f).read_bytes()).hexdigest()
                            for f in ("transcript.jsonl", "bundles.jsonl")])
        assert digests[0] == digests[1]

    def test_aborted_round_transcript_lists_each_connection_by_participant(
            self, config_path, tmp_path, monkeypatch):
        # a connection that never registers, then participant 1, then
        # participant 0; the round then times out waiting for their votes
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(config_path), "--out", str(data_dir)])
        spaces = [p["label_space"] for p in
                  json.loads((data_dir / "manifest.json").read_text())["participants"]]
        results = []
        serve = Coordinator.serve
        monkeypatch.setattr(Coordinator, "serve",
                            lambda self: results.append(serve(self)) or results[0])
        port = free_port()
        code = {}
        server = threading.Thread(target=lambda: code.setdefault("serve", main([
            "serve", "--data", str(data_dir), "--bind", f"127.0.0.1:{port}",
            "--timeout", "1", "--out", str(tmp_path / "served")])), daemon=True)
        server.start()
        deadline = time.monotonic() + 10
        while True:
            try:
                clients = [RawClient(("127.0.0.1", port))]
                break
            except ConnectionRefusedError:
                assert time.monotonic() < deadline
                time.sleep(0.02)
        for i in (1, 0):
            clients.append(RawClient(("127.0.0.1", port)))
            clients[-1].send({"v": PROTOCOL_VERSION, "kind": "REGISTER", "payload": {
                "participant_id": i, "label_space": spaces[i], "train_size": 8}})
            assert clients[-1].recv()["kind"] == "REGISTER_ACK"
        server.join(timeout=30)
        for raw in clients:
            raw.close()
        assert code["serve"] == EXIT_PROTOCOL
        [result] = results
        assert result.status == "aborted: timed out waiting for stragglers"
        transcript = result.transcript
        # participant 0's messages first, then participant 1's, then the stray's
        assert [(e["direction"], e["message"]["kind"]) for e in transcript] == \
            [("recv", "REGISTER"), ("send", "REGISTER_ACK"), ("send", "ERROR")] * 2 \
            + [("send", "ERROR")]
        assert [e["message"]["payload"].get("participant_id") for e in transcript] == \
            [0, 0, None, 1, 1, None, None]
        assert all(e.keys() == {"direction", "message"} for e in transcript)
        lines = (tmp_path / "served" / "transcript.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == \
            [json.loads(json.dumps(e, default=array_text)) for e in transcript]

    def test_join_with_wrong_hash_exits_4(self, config_path, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(config_path), "--out", str(data_dir)])
        tampered = tmp_path / "tampered"
        tampered.mkdir()
        for item in data_dir.iterdir():
            (tampered / item.name).write_bytes(item.read_bytes())
        unlabeled = tampered / "unlabeled.csv"
        text = unlabeled.read_text().splitlines()
        text[1] = text[1].replace(text[1][0], "9", 1)
        unlabeled.write_text("\n".join(text) + "\n")

        port = free_port()
        serve_code = {}

        def serve():
            serve_code["value"] = main([
                "serve", "--data", str(data_dir),
                "--bind", f"127.0.0.1:{port}", "--timeout", "5"])

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        import time
        time.sleep(0.4)
        code = main(["join", "--data", str(tampered),
                     "--participant", "0", "--addr", f"127.0.0.1:{port}"])
        assert code == EXIT_PROTOCOL
        assert "hash mismatch" in capsys.readouterr().err
        server.join(timeout=30)
        assert serve_code["value"] == EXIT_PROTOCOL

    @pytest.mark.parametrize("command", [
        ["serve", "--bind", "127.0.0.1:0"],
        ["join", "--participant", "0", "--addr", "127.0.0.1:9"],
    ])
    @pytest.mark.parametrize("timeout", ["-1", "0", "nan"])
    def test_bad_timeout_flag_is_config_error(self, tmp_path, capsys, command, timeout):
        (tmp_path / "manifest.json").write_text(json.dumps({"config": base_config()}),
                                                encoding="utf-8")
        code = main([command[0], "--data", str(tmp_path), *command[1:], "--timeout", timeout])
        assert code == EXIT_CONFIG
        assert ("config error: --timeout: expected a finite number > 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, flag", [
        (["serve", "--bind", "localhost"], "--bind"),
        (["join", "--participant", "0", "--addr", "localhost"], "--addr"),
    ])
    def test_bad_address_flag_is_config_error(self, tmp_path, capsys, command, flag):
        (tmp_path / "manifest.json").write_text(json.dumps({"config": base_config()}),
                                                encoding="utf-8")
        code = main([command[0], "--data", str(tmp_path), *command[1:], "--timeout", "1"])
        assert code == EXIT_CONFIG
        assert (f"config error: {flag}: invalid address 'localhost'; expected host:port"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, flag", [
        (["serve", "--bind"], "--bind"),
        (["join", "--participant", "0", "--addr"], "--addr"),
    ])
    @pytest.mark.parametrize("port", ["70000", "65536", "-5"])
    def test_port_outside_the_port_range_is_config_error(self, tmp_path, capsys, command,
                                                         flag, port):
        # refused before any file is read: the data directory does not exist
        address = f"127.0.0.1:{port}"
        code = main([command[0], "--data", str(tmp_path / "missing"), *command[1:], address,
                     "--timeout", "1"])
        assert code == EXIT_CONFIG
        assert (f"config error: {flag}: invalid address {address!r}; expected host:port, "
                "the port in [0, 65535]" in capsys.readouterr().err)

    @pytest.mark.parametrize("command", [
        ["serve", "--bind", "127.0.0.1:0", "--timeout", "1"],
        ["join", "--participant", "0", "--addr", "127.0.0.1:9", "--timeout", "1"],
    ])
    def test_invalid_manifest_is_config_error(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"unlabeled": ', encoding="utf-8")
        code = main([command[0], "--data", str(tmp_path), *command[1:]])
        assert code == EXIT_CONFIG
        assert f"config error: {manifest}: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, manifest, missing", [
        (["serve", "--bind", "127.0.0.1:0", "--timeout", "1"],
         {"config": base_config(), "participants": []}, "unlabeled"),
        (["join", "--participant", "0", "--addr", "127.0.0.1:9", "--timeout", "1"],
         {"config": base_config(),
          "participants": [{"label_space": [0, 1], "test": {"file": "t.csv"}}],
          "unlabeled": {"file": "u.csv"}}, "participants.0.train"),
        (["serve", "--bind", "127.0.0.1:0", "--timeout", "1"], {"participants": []}, "config"),
        (["join", "--participant", "0", "--addr", "127.0.0.1:9", "--timeout", "1"],
         {"participants": []}, "config"),
    ])
    def test_manifest_missing_key_is_config_error(self, tmp_path, capsys, command, manifest,
                                                  missing):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code = main([command[0], "--data", str(tmp_path), *command[1:]])
        assert code == EXIT_CONFIG
        assert f"config error: {path}: missing key '{missing}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "join"])
    def test_invalid_manifest_config_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config": {**base_config(), "taxonomy": {"bogus": 1}}}),
                        encoding="utf-8")
        code = main([command, *WIRE_ARGS[command][2:], "--data", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert (f"config error: {path}: config.taxonomy: unknown key 'bogus'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, where", [
        ("join", "participants.0.label_space"),
        ("join", "participants.0.train.file"),
        ("join", "participants.0.test.file"),
        ("join", "unlabeled.file"),
        ("serve", "unlabeled.file"),
    ])
    def test_manifest_value_of_the_wrong_type_is_config_error(self, config_path, tmp_path,
                                                             capsys, command, where):
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(config_path), "--out", str(data_dir)])
        path = data_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        *parents, last = [int(k) if k.isdigit() else k for k in where.split(".")]
        entry = manifest
        for key in parents:
            entry = entry[key]
        entry[last] = 5
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        code = main([command, *WIRE_ARGS[command][2:], "--data", str(data_dir),
                     "--timeout", "1"])
        assert code == EXIT_CONFIG
        kind = "list" if last == "label_space" else "str"
        assert (f"config error: {path}: key {where!r} is not a {kind}"
                in capsys.readouterr().err)

    def test_serve_takes_the_public_set_size_from_the_config(self, tmp_path):
        # U in the manifest's "unlabeled" section is a copy written for readers;
        # serve reads it from the config, so a mistyped copy changes nothing
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(n=1)), encoding="utf-8")
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(config_path), "--out", str(data_dir)])
        path = data_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["unlabeled"]["size"] = str(manifest["unlabeled"]["size"])
        path.write_text(json.dumps(manifest), encoding="utf-8")
        port = free_port()
        codes = {}
        server = threading.Thread(target=lambda: codes.setdefault("serve", main([
            "serve", "--data", str(data_dir), "--bind", f"127.0.0.1:{port}",
            "--timeout", "30"])), daemon=True)
        server.start()
        time.sleep(0.4)
        codes["join"] = main(["join", "--data", str(data_dir), "--participant", "0",
                              "--addr", f"127.0.0.1:{port}", "--timeout", "30"])
        server.join(timeout=60)
        assert codes == {"serve": EXIT_OK, "join": EXIT_OK}

    def test_join_rejects_a_label_space_that_is_not_integers(self, config_path, tmp_path,
                                                             capsys):
        # the first id plus 0.5 would truncate to a category the shard has,
        # so the round would run under a label space the manifest does not say;
        # a negative or a repeated id is the same fault in the same file
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(config_path), "--out", str(data_dir)])
        path = data_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        first, *rest = manifest["participants"][0]["label_space"]
        for space, cause in (
                ([first + 0.5, *rest], f"category id {first + 0.5} is not an integer"),
                ([-1, *rest], "category id -1 outside [0, 32768)"),
                ([first, first, *rest], f"label space has duplicate categories [{first}]")):
            manifest["participants"][0]["label_space"] = space
            path.write_text(json.dumps(manifest), encoding="utf-8")
            capsys.readouterr()
            # nothing listens on the port: the error must come before connecting
            code = main(["join", "--data", str(data_dir),
                         "--participant", "0", "--addr", f"127.0.0.1:{free_port()}",
                         "--timeout", "1"])
            assert code == EXIT_CONFIG
            assert (f"config error: {path}: key 'participants.0.label_space': {cause}"
                    in capsys.readouterr().err)

    def test_serve_refuses_a_public_set_of_another_size(self, config_path, tmp_path, capsys):
        # U = 61 over a 60-row file: refused before binding, naming the file
        # and both counts, rather than left for the first join to find
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(config_path), "--out", str(data_dir)])
        path = data_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["unlabeled"]["size"] = 61
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        code = main(["serve", "--data", str(data_dir), "--bind", "127.0.0.1:0",
                     "--timeout", "1"])
        assert code == EXIT_CONFIG
        assert (f"config error: {data_dir / 'unlabeled.csv'} has 60 rows, but the "
                f"config's unlabeled.size is 61" in capsys.readouterr().err)

    def test_serve_timeout_without_clients_exits_4(self, config_path, tmp_path):
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(config_path), "--out", str(data_dir)])
        code = main(["serve", "--data", str(data_dir),
                     "--bind", "127.0.0.1:0", "--timeout", "1"])
        assert code == EXIT_PROTOCOL

    def test_wire_round_runs_the_seed_its_data_was_made_with(self, config_path, tmp_path,
                                                             capsys):
        # the data is made with a seed the config file does not hold; serve and
        # join take no seed, yet every participant must match run --seed
        seed = 11
        assert json.loads(config_path.read_text())["master_seed"] != seed
        data_dir = tmp_path / "data"
        assert main(["generate-data", "--config", str(config_path), "--out", str(data_dir),
                     "--seed", str(seed)]) == EXIT_OK
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run"),
                     "--seed", str(seed)]) == EXIT_OK
        expected = [r for r in map(json.loads, (tmp_path / "run" / "report.jsonl")
                                   .read_text().splitlines()) if r["record"] == "participant"]
        port = free_port()
        codes = {}
        server = threading.Thread(target=lambda: codes.setdefault("serve", main([
            "serve", "--data", str(data_dir), "--bind", f"127.0.0.1:{port}",
            "--timeout", "30"])), daemon=True)
        server.start()
        time.sleep(0.4)
        capsys.readouterr()
        clients = [threading.Thread(target=lambda i=i: codes.setdefault(i, main([
            "join", "--data", str(data_dir), "--participant", str(i),
            "--addr", f"127.0.0.1:{port}"]))) for i in range(3)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60)
        server.join(timeout=60)
        assert codes == {"serve": EXIT_OK, 0: EXIT_OK, 1: EXIT_OK, 2: EXIT_OK}
        joined = sorted((json.loads(line) for line in capsys.readouterr().out.splitlines()
                         if line.startswith("{")), key=lambda r: r["participant"])
        assert joined == expected
