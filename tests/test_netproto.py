import dataclasses
import gc
import hashlib
import json
import socket
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedcotrain as fc
import fedcotrain.netproto as netproto
import fedcotrain.orchestrator as orch
from fedcotrain.aggregation import aggregate, build_bundle
from fedcotrain.netproto import (
    MESSAGE_SCHEMAS,
    Coordinator,
    CoordinatorSettings,
    Message,
    ProtocolError,
    decode_line,
    join,
    validate_message,
)
from fedcotrain.orchestrator import (
    RoundError,
    build_round_data,
    participant_train_config,
    run_round,
)


def small_config(n=3, m=60, alpha=0.3, seed=2):
    cfg = fc.default_config(n_participants=n, mode="noniid", alpha=alpha,
                            master_seed=seed, unlabeled_size=m)
    return dataclasses.replace(
        cfg,
        taxonomy=dataclasses.replace(cfg.taxonomy, n_superclasses=5,
                                     instances_per_subclass=120),
        partition=dataclasses.replace(cfg.partition,
                                      superclasses_per_participant=(2, 3)),
        test_instances_per_superclass=20,
    )


def array_sha(data):
    return hashlib.sha256(data.features.tobytes()).hexdigest()


def start_coordinator(settings):
    coordinator = Coordinator(settings)
    address = coordinator.bind("127.0.0.1", 0)
    box = {}

    def run():
        box["result"] = coordinator.serve()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return coordinator, address, thread, box


def settings_for(config, data, **kw):
    base = dict(
        n_participants=config.partition.n_participants,
        alpha=config.alpha,
        unlabeled_size=len(data.unlabeled),
        dataset_sha256=array_sha(data.unlabeled),
        weights=config.weights,
        global_conflict_removal=config.global_conflict_removal,
        timeout_s=20.0,
    )
    base.update(kw)
    return CoordinatorSettings(**base)


def join_participant(config, data, i, address, sha=None):
    shard = data.shards[i]
    return join(
        address,
        participant_id=i,
        kind=config.participants[i].learner,
        label_space=shard.label_space,
        train=shard.train,
        test=data.test_sets[i],
        public=data.unlabeled,
        public_sha256=sha if sha is not None else array_sha(data.unlabeled),
        config=participant_train_config(config, i),
        timeout_s=20.0,
    )


class RawClient:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.file = self.sock.makefile("rb")

    def send_line(self, raw: bytes):
        self.sock.sendall(raw)

    def send(self, doc: dict):
        self.send_line(json.dumps(doc).encode() + b"\n")

    def recv(self) -> dict:
        line = self.file.readline()
        if not line:
            raise ConnectionError("closed")
        return json.loads(line)

    def close(self):
        self.sock.close()


class TestMessages:
    def test_encode_decode_round_trip(self):
        msg = Message("REGISTER", {"participant_id": 1, "label_space": [0, 2],
                                   "train_size": 10})
        assert decode_line(msg.encode().strip()) == msg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message kind"):
            validate_message({"v": 1, "kind": "STEAL", "payload": {}})

    def test_extra_payload_field_rejected(self):
        with pytest.raises(ProtocolError, match="exactly the fields"):
            validate_message({"v": 1, "kind": "BYE", "payload": {"x": 1}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_message({"v": 1, "kind": "PREDICTIONS",
                              "payload": {"participant_id": 0, "labels": [0.5]}})

    def test_malformed_json_names_parse_failure(self):
        with pytest.raises(ProtocolError, match="could not parse"):
            decode_line(b"{not json")


# Lines for the decode_line fuzz test: raw bytes, arbitrary JSON, documents
# shaped like messages (so validation runs past the envelope), spliced valid
# encodings, and the parser's own limits (deep nesting, huge integers).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats() | st.text(max_size=10),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=20)
FIELD_NAMES = sorted({name for schema in MESSAGE_SCHEMAS.values() for name in schema})
MESSAGE_DOCS = st.fixed_dictionaries({
    "v": st.just(1) | JSON_VALUES,
    "kind": st.sampled_from(sorted(MESSAGE_SCHEMAS)) | JSON_VALUES,
    "payload": st.dictionaries(st.sampled_from(FIELD_NAMES), JSON_VALUES, max_size=5)
    | JSON_VALUES,
})
VALID_LINE = Message("BUNDLE", {"participant_id": 1, "entries": [
    {"category": 3, "indices": [0, 5]}]}).encode().strip()


def splice(cut, length, insert):
    cut %= len(VALID_LINE) + 1
    return VALID_LINE[:cut] + insert + VALID_LINE[cut + length:]


FUZZ_LINES = st.one_of(
    st.binary(max_size=200),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    MESSAGE_DOCS.map(lambda doc: json.dumps(doc).encode()),
    st.builds(splice, st.integers(0, 200), st.integers(0, 8), st.binary(max_size=8)),
    st.integers(1, 3000).map(lambda n: b"[" * n + b"]" * n),
    st.integers(1, 6000).map(lambda n: b"1" * n),
)


@given(FUZZ_LINES)
@settings(max_examples=400, deadline=None)
def test_fuzz_decode_line_yields_message_or_protocol_error(line):
    try:
        message = decode_line(line)
    except ProtocolError:
        return
    assert isinstance(message, Message)
    assert message.kind in MESSAGE_SCHEMAS


def reference_is_int_list(v):
    """The per-element int64 list check, as the wire schema first wrote it."""
    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool) and -2 ** 63 <= x < 2 ** 63
    return isinstance(v, list) and all(is_int(x) for x in v)


INT64_EDGES = st.sampled_from([-2 ** 63 - 1, -2 ** 63, -1, 0, 2 ** 63 - 1, 2 ** 63])
# Everything a JSON decode can hand the list check: mostly-int lists near the
# int64 edges, lists mixing in bools, floats and nested values, and non-lists.
DECODED_VALUES = st.one_of(
    st.lists(st.integers() | INT64_EDGES, max_size=20),
    st.lists(st.integers() | INT64_EDGES | st.booleans() | st.floats() | JSON_VALUES,
             max_size=8),
    JSON_VALUES,
).map(lambda v: json.loads(json.dumps(v)))


@given(DECODED_VALUES)
@example([])
@example([2 ** 63 - 1, -2 ** 63])
@example([0, 2 ** 63])
@example([-2 ** 63 - 1, 0])
@example([1, True])
@example([1, 1.0])
@example([[1], 2])
@example({"1": 1})
@settings(max_examples=400, deadline=None)
def test_property_int_list_check_matches_per_element_reference(value):
    assert netproto._is_int_list(value) is reference_is_int_list(value)


class TestRound:
    def test_single_client_bundle_matches_own_aggregate(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        result = join_participant(config, data, 0, address)
        thread.join(timeout=30)
        assert box["result"].status == "completed"

        from fedcotrain.learners import pseudolabel, train_local
        shard = data.shards[0]
        clf = train_local(config.participants[0].learner, shard.label_space,
                          shard.train, participant_train_config(config, 0))
        votes = pseudolabel(clf, data.unlabeled)
        expected = build_bundle(
            aggregate([votes], [shard.label_space], config.alpha, len(data.unlabeled)),
            shard.label_space, owner=0)
        assert result.bundle == expected

    def test_three_clients_match_in_process_round(self):
        # alpha 1.0 admits nothing: both paths take the empty-bundle shortcut
        for alpha in (0.3, 1.0):
            config = small_config(n=3, alpha=alpha)
            data = build_round_data(config)
            coordinator, address, thread, box = start_coordinator(settings_for(config, data))
            results = {}
            errors = []

            def client(i):
                try:
                    results[i] = join_participant(config, data, i, address)
                except Exception as exc:
                    errors.append((i, exc))

            clients = [threading.Thread(target=client, args=(i,)) for i in range(3)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=60)
            thread.join(timeout=60)
            assert not errors
            assert box["result"].status == "completed"

            in_process = run_round(config)
            for i, p in enumerate(in_process.report.participants):
                assert results[i].bundle == in_process.artifacts.bundles[i]
                assert results[i].local_accuracy == p.local_accuracy
                assert results[i].federated_accuracy == p.federated_accuracy
            for i, bundle in box["result"].bundles.items():
                assert bundle == in_process.artifacts.bundles[i]
        assert all(len(r.bundle) == 0 and r.federated_accuracy == r.local_accuracy
                   for r in results.values())

    def test_transcripts_validate_and_carry_no_floats(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        result = join_participant(config, data, 0, address)
        thread.join(timeout=30)

        def no_floats(obj):
            if isinstance(obj, float):
                return False
            if isinstance(obj, dict):
                return all(no_floats(v) for v in obj.values())
            if isinstance(obj, list):
                return all(no_floats(v) for v in obj)
            return True

        transcript = box["result"].transcript + result.transcript
        assert transcript
        for entry in transcript:
            validate_message(entry["message"])
            assert no_floats(entry["message"])


class TestErrors:
    def test_malformed_line_gets_error_reply(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        raw = RawClient(address)
        raw.send_line(b"this is not json\n")
        reply = raw.recv()
        assert reply["kind"] == "ERROR"
        assert "parse" in reply["payload"]["text"]
        raw.close()
        coordinator._abort("test cleanup")
        thread.join(timeout=10)

    def test_version_mismatch_rejected(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        raw = RawClient(address)
        raw.send({"v": 99, "kind": "REGISTER",
                  "payload": {"participant_id": 0, "label_space": [0], "train_size": 5}})
        reply = raw.recv()
        assert reply["kind"] == "ERROR"
        assert "version mismatch" in reply["payload"]["text"]
        raw.close()
        coordinator._abort("test cleanup")
        thread.join(timeout=10)

    def test_duplicate_registration_rejected(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        first = RawClient(address)
        first.send({"v": 1, "kind": "REGISTER",
                    "payload": {"participant_id": 0, "label_space": [0, 1],
                                "train_size": 5}})
        ack = first.recv()
        assert ack["kind"] == "REGISTER_ACK"
        dup = RawClient(address)
        dup.send({"v": 1, "kind": "REGISTER",
                  "payload": {"participant_id": 0, "label_space": [0, 1],
                              "train_size": 5}})
        reply = dup.recv()
        assert reply["kind"] == "ERROR"
        assert "already registered" in reply["payload"]["text"]
        dup.close()
        # the original registrant still completes the round
        first.send({"v": 1, "kind": "PREDICTIONS",
                    "payload": {"participant_id": 0,
                                "labels": [0] * len(data.unlabeled)}})
        bundle = first.recv()
        assert bundle["kind"] == "BUNDLE"
        first.close()
        thread.join(timeout=30)
        assert box["result"].status == "completed"

    def test_prediction_outside_declared_space_aborts(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        raw = RawClient(address)
        raw.send({"v": 1, "kind": "REGISTER",
                  "payload": {"participant_id": 0, "label_space": [0, 1],
                              "train_size": 5}})
        assert raw.recv()["kind"] == "REGISTER_ACK"
        raw.send({"v": 1, "kind": "PREDICTIONS",
                  "payload": {"participant_id": 0,
                              "labels": [7] * len(data.unlabeled)}})
        reply = raw.recv()
        assert reply["kind"] == "ERROR"
        assert "outside its declared label space" in reply["payload"]["text"]
        raw.close()
        thread.join(timeout=30)
        assert box["result"].status.startswith("aborted")

    def test_wrong_vector_length_rejected(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        raw = RawClient(address)
        raw.send({"v": 1, "kind": "REGISTER",
                  "payload": {"participant_id": 0, "label_space": [0, 1],
                              "train_size": 5}})
        assert raw.recv()["kind"] == "REGISTER_ACK"
        raw.send({"v": 1, "kind": "PREDICTIONS",
                  "payload": {"participant_id": 0, "labels": [0, 1]}})
        reply = raw.recv()
        assert reply["kind"] == "ERROR"
        assert "length" in reply["payload"]["text"]
        raw.close()
        thread.join(timeout=30)

    def test_empty_registration_payload_rejected(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        raw = RawClient(address)
        raw.send({"v": 1, "kind": "REGISTER",
                  "payload": {"participant_id": 0, "label_space": [0],
                              "train_size": 0}})
        reply = raw.recv()
        assert reply["kind"] == "ERROR"
        assert "empty local dataset" in reply["payload"]["text"]
        raw.close()
        coordinator._abort("test cleanup")
        thread.join(timeout=10)

    def test_straggler_timeout_aborts(self):
        config = small_config(n=2)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(
            settings_for(config, data, timeout_s=1.5))
        with pytest.raises(ProtocolError, match="aborted"):
            join_participant(config, data, 0, address)
        thread.join(timeout=30)
        assert "timed out" in box["result"].status

    def test_client_refuses_empty_local_dataset(self):
        config = small_config(n=1)
        data = build_round_data(config)
        shard = data.shards[0]
        empty = dataclasses.replace(
            shard.train,
            features=np.zeros((0, data.unlabeled.feature_dim)),
            labels=np.zeros(0, dtype=np.int64),
            source_rows=None,
        )
        with pytest.raises(ProtocolError, match="empty local dataset"):
            join(("127.0.0.1", 1), participant_id=0,
                 kind=config.participants[0].learner, label_space=shard.label_space,
                 train=empty, test=data.test_sets[0], public=data.unlabeled,
                 public_sha256="x", config=participant_train_config(config, 0))

    def test_client_detects_dataset_hash_mismatch(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        with pytest.raises(ProtocolError, match="hash mismatch"):
            join_participant(config, data, 0, address, sha="0" * 64)
        coordinator._abort("test cleanup")
        thread.join(timeout=10)

    def test_learner_failure_names_participant_before_connecting(self, monkeypatch):
        def fail(*args):
            raise ValueError("synthetic failure")

        def connect(*args, **kwargs):
            raise AssertionError("join connected before its local training")

        monkeypatch.setattr(orch, "train_local", fail)
        monkeypatch.setattr(netproto.socket, "create_connection", connect)
        config = small_config(n=2)
        data = build_round_data(config)
        with pytest.raises(RoundError, match="participant 1 failed during local training: "
                                             "synthetic failure"):
            join_participant(config, data, 1, ("127.0.0.1", 1))

    def test_connections_awaiting_register_are_capped(self):
        config = small_config(n=2)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        idle = [RawClient(address) for _ in range(4)]
        started = time.monotonic()
        over = RawClient(address)
        reply = over.recv()
        assert time.monotonic() - started < 5
        assert reply == {"v": 1, "kind": "ERROR", "payload": {
            "text": "coordinator busy: 4 connections already awaiting REGISTER"}}
        over.close()
        for raw in idle:
            # the coordinator frees the slot before it answers the closed stream
            raw.sock.shutdown(socket.SHUT_WR)
            assert raw.recv()["kind"] == "ERROR"
            raw.close()

        results = {}
        clients = [threading.Thread(
            target=lambda i=i: results.update({i: join_participant(config, data, i, address)}))
            for i in range(2)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60)
        thread.join(timeout=60)
        assert box["result"].status == "completed"
        assert sorted(results) == [0, 1]

    def test_idle_connection_does_not_hold_back_a_completed_round(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(
            settings_for(config, data, timeout_s=6.0))
        idle = RawClient(address)
        join_participant(config, data, 0, address)
        joined = time.monotonic()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert time.monotonic() - joined < 2
        assert box["result"].status == "completed"
        # serve has ended the idle connection's handler: it said why and closed
        assert idle.recv() == {"v": 1, "kind": "ERROR",
                               "payload": {"text": "round already completed"}}
        assert idle.file.readline() == b""
        idle.close()

    def test_awaiting_register_count_survives_concurrent_connections(self):
        # more threads than cores open and drop connections at once; a lost
        # update to the coordinator's count would leave it off zero
        config = small_config(n=3)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        replies = []

        def churn():
            for _ in range(5):
                raw = RawClient(address)
                raw.sock.shutdown(socket.SHUT_WR)
                replies.append(raw.recv()["kind"])
                raw.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert replies == ["ERROR"] * 40
        assert coordinator._awaiting_register == 0
        coordinator._abort("test cleanup")
        thread.join(timeout=10)


def register_raw(address, pid, label_space):
    raw = RawClient(address)
    raw.send({"v": 1, "kind": "REGISTER",
              "payload": {"participant_id": pid, "label_space": label_space,
                          "train_size": 5}})
    assert raw.recv()["kind"] == "REGISTER_ACK"
    return raw


def send_labels(raw, pid, labels):
    raw.send({"v": 1, "kind": "PREDICTIONS",
              "payload": {"participant_id": pid, "labels": labels}})


class TestPromptAborts:
    """A failed round is reported with its real cause, long before the timeout."""

    TIMEOUT_S = 30.0

    def start(self, **kw):
        config = small_config(n=2)
        data = build_round_data(config)
        started = time.monotonic()
        coordinator, address, thread, box = start_coordinator(
            settings_for(config, data, timeout_s=self.TIMEOUT_S, **kw))
        return len(data.unlabeled), address, thread, box, started

    def finish(self, thread, box, started):
        thread.join(timeout=self.TIMEOUT_S)
        assert box["result"].status.startswith("aborted")
        assert time.monotonic() - started < self.TIMEOUT_S / 3

    def test_barrier_failure_reaches_every_participant(self):
        # category 2 is owned only by participant 1, whose weight is 0
        size, address, thread, box, started = self.start(
            weights=fc.CredibilityWeights((1.0, 0.0)))
        clients = [register_raw(address, 0, [0, 1]), register_raw(address, 1, [0, 2])]
        send_labels(clients[0], 0, [0] * size)
        send_labels(clients[1], 1, [2] * size)
        for raw in clients:
            reply = raw.recv()
            assert reply["kind"] == "ERROR"
            assert "zero credibility weight" in reply["payload"]["text"]
            raw.close()
        self.finish(thread, box, started)
        assert "zero credibility weight" in box["result"].status

    def test_unexpected_handler_error_reaches_every_participant(self, monkeypatch):
        # A defect in a handler step (here: storing participant 1's
        # predictions) ends the round with its real cause instead of killing
        # the handler thread and leaving the others to time out.
        class FailingStore(dict):
            def __setitem__(self, pid, labels):
                if pid == 1:
                    raise RuntimeError("store failed")
                super().__setitem__(pid, labels)

        config = small_config(n=2)
        data = build_round_data(config)
        size = len(data.unlabeled)
        started = time.monotonic()
        coordinator, address, thread, box = start_coordinator(
            settings_for(config, data, timeout_s=self.TIMEOUT_S))
        monkeypatch.setattr(coordinator, "_predictions", FailingStore())
        waiting, failing = register_raw(address, 0, [0, 1]), register_raw(address, 1, [0, 1])
        send_labels(waiting, 0, [0] * size)
        send_labels(failing, 1, [0] * size)
        assert failing.recv() == {"v": 1, "kind": "ERROR",
                                  "payload": {"text": "RuntimeError: store failed"}}
        reply = waiting.recv()
        assert reply["kind"] == "ERROR"
        assert reply["payload"]["text"] == "round aborted: RuntimeError: store failed"
        for raw in (waiting, failing):
            raw.close()
        self.finish(thread, box, started)
        assert box["result"].status == "aborted: RuntimeError: store failed"

    def test_label_outside_int64_is_a_protocol_error(self):
        size, address, thread, box, started = self.start()
        waiting, bad = register_raw(address, 0, [0, 1]), register_raw(address, 1, [0, 1])
        send_labels(waiting, 0, [0] * size)
        send_labels(bad, 1, [2 ** 70] + [0] * (size - 1))
        reply = bad.recv()
        assert reply["kind"] == "ERROR"
        assert "field 'labels' has the wrong type or range" in reply["payload"]["text"]
        reply = waiting.recv()
        assert reply["kind"] == "ERROR"
        assert reply["payload"]["text"].startswith("round aborted: PREDICTIONS payload")
        for raw in (waiting, bad):
            raw.close()
        self.finish(thread, box, started)

    def test_abort_reaches_a_participant_that_has_not_voted(self):
        # participant 0 registers but never sends its predictions; when
        # participant 1 breaks the round, serve ends 0's read with the cause
        size, address, thread, box, started = self.start()
        silent, bad = register_raw(address, 0, [0, 1]), register_raw(address, 1, [0, 1])
        send_labels(bad, 1, [5] * size)
        assert "outside its declared label space" in bad.recv()["payload"]["text"]
        reply = silent.recv()
        assert reply["kind"] == "ERROR"
        assert reply["payload"]["text"].startswith("round aborted: participant 1 predicted")
        for raw in (silent, bad):
            raw.close()
        self.finish(thread, box, started)


class TestLifetime:
    """A coordinator is freed by reference counting alone, with no collection."""

    def assert_freed_without_gc(self, make):
        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(make())
            assert ref() is None
        finally:
            gc.enable()

    def test_fresh_coordinator_is_freed(self):
        fresh = CoordinatorSettings(n_participants=2, alpha=0.3, unlabeled_size=10,
                                    dataset_sha256="0" * 64)
        self.assert_freed_without_gc(lambda: Coordinator(fresh))

    def test_coordinator_is_freed_after_a_round(self):
        config = small_config(n=1)
        data = build_round_data(config)

        def finished_coordinator():
            coordinator, address, thread, box = start_coordinator(settings_for(config, data))
            join_participant(config, data, 0, address)
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert box["result"].status == "completed"
            return coordinator

        self.assert_freed_without_gc(finished_coordinator)
