import base64
import dataclasses
import gc
import hashlib
import json
import re
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
from fedcotrain.aggregation import PseudolabelBundle, aggregate, build_bundle
from fedcotrain.domain import CATEGORY_LIMIT, LabelSpace
from fedcotrain.netproto import (
    MESSAGE_SCHEMAS,
    PROTOCOL_VERSION,
    Coordinator,
    CoordinatorSettings,
    Message,
    ProtocolError,
    array_text,
    bundle_from_payload,
    decode_line,
    join,
    line_cap,
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


ARRAY_FIELDS = ("label_space", "labels", "indices")


def wire_line(doc: dict) -> bytes:
    """``doc`` as a protocol-2 peer sends it: each int list of an array field as array text."""
    def write(value, name=None):
        if name in ARRAY_FIELDS and isinstance(value, list):
            return array_text(np.array(value, dtype=np.int64))
        if isinstance(value, dict):
            return {key: write(item, key) for key, item in value.items()}
        if isinstance(value, list):
            return [write(item) for item in value]
        return value
    return json.dumps(write(doc)).encode() + b"\n"


class RawClient:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.file = self.sock.makefile("rb")

    def send_line(self, raw: bytes):
        self.sock.sendall(raw)

    def send(self, doc: dict):
        self.send_line(wire_line(doc))

    def recv(self) -> dict:
        line = self.file.readline()
        if not line:
            raise ConnectionError("closed")
        return json.loads(line)

    def close(self):
        # the makefile reader holds the descriptor too: close both to hang up
        self.file.close()
        self.sock.close()


class TestMessages:
    def test_encode_decode_round_trip(self):
        msg = Message("REGISTER", {"participant_id": 1, "train_size": 10,
                                   "label_space": np.array([0, 2], dtype=np.int64)})
        assert decode_line(msg.encode().strip()) == msg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message kind"):
            validate_message({"v": PROTOCOL_VERSION, "kind": "STEAL", "payload": {}})

    def test_extra_payload_field_rejected(self):
        with pytest.raises(ProtocolError, match="exactly the fields"):
            validate_message({"v": PROTOCOL_VERSION, "kind": "BYE", "payload": {"x": 1}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="wrong type"):
            validate_message({"v": PROTOCOL_VERSION, "kind": "PREDICTIONS",
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
    "v": st.just(PROTOCOL_VERSION) | JSON_VALUES,
    "kind": st.sampled_from(sorted(MESSAGE_SCHEMAS)) | JSON_VALUES,
    "payload": st.dictionaries(st.sampled_from(FIELD_NAMES), JSON_VALUES, max_size=5)
    | JSON_VALUES,
})
VALID_LINE = Message("BUNDLE", {"participant_id": 1, "entries": [
    {"category": 3, "indices": np.array([0, 5], dtype=np.int64)},
    {"category": 4, "indices": np.array([1, 70_000], dtype=np.int64)}]}).encode().strip()


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


def reference_values(text):
    """The values an array text carries, one element at a time, or None when it is malformed."""
    widths = {"1": 1, "2": 2, "4": 4, "8": 8}
    if not isinstance(text, str) or text[:1] not in widths:
        return None
    width = widths[text[0]]
    try:
        raw = base64.b64decode(text[1:], validate=True)
    except ValueError:
        return None
    if len(raw) % width:
        return None
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, len(raw), width)]


def reference_width(values):
    """The fewest of 1, 2, 4 and 8 bytes that hold every value signed."""
    return next(w for w in (1, 2, 4, 8)
                if all(-2 ** (8 * w - 1) <= v < 2 ** (8 * w - 1) for v in values))


def width_edges():
    """-2**63, 2**63-1, and each side of every width's bounds."""
    edges = [-2 ** 63, 2 ** 63 - 1]
    for bits in (7, 15, 31):
        edges += [2 ** bits - 1, 2 ** bits, -2 ** bits, -2 ** bits - 1]
    return edges


INT64_ARRAYS = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.sampled_from(width_edges()),
                        max_size=30).map(lambda v: np.array(v, dtype=np.int64))


@given(INT64_ARRAYS)
@example(np.array([], dtype=np.int64))
@example(np.array([0, 1, 2, 3], dtype=np.int64))
@example(np.array(width_edges(), dtype=np.int64))
@example(np.array([-2 ** 63], dtype=np.int64))
@example(np.array([2 ** 63 - 1], dtype=np.int64))
@example(np.array([127, -128], dtype=np.int64))
@example(np.array([128], dtype=np.int64))
@example(np.array([-129], dtype=np.int64))
@example(np.array([32767, -32768], dtype=np.int64))
@example(np.array([32768], dtype=np.int64))
@example(np.array([-32769], dtype=np.int64))
@example(np.array([2 ** 31 - 1, -2 ** 31], dtype=np.int64))
@example(np.array([2 ** 31], dtype=np.int64))
@example(np.array([-2 ** 31 - 1], dtype=np.int64))
@settings(max_examples=400, deadline=None)
def test_property_array_text_matches_per_element_reference(values):
    text = array_text(values)
    # the narrowest width, and each value read back one element at a time
    assert text[0] == str(reference_width(values.tolist()))
    assert reference_values(text) == values.tolist()
    decoded = netproto._int_array(text)
    assert decoded.dtype == np.int64 and not decoded.flags.writeable
    assert decoded.tolist() == values.tolist()


# Everything a JSON decode can hand the array check: array texts, strings
# near them (other width digits, characters outside the alphabet, bad
# padding, odd byte counts), int lists, and any other JSON value.
NEAR_ARRAY_TEXTS = st.text(alphabet="0123456789ABCDEFabcdef+/= \n\u0662\u00e9", max_size=24)
DECODED_VALUES = st.one_of(
    INT64_ARRAYS.map(array_text),
    NEAR_ARRAY_TEXTS,
    st.builds(lambda digit, text: digit + text[1:],
              st.sampled_from("0123456789"), INT64_ARRAYS.map(array_text)),
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=8),
    JSON_VALUES,
).map(lambda v: json.loads(json.dumps(v)))


@given(DECODED_VALUES)
@example("1")
@example("1AAECAw==")
@example("2AAEC")
@example("8AAECAw==")
@example("0AAECAw==")
@example("\u0662AAECAw==")
@example([0, 1, 2, 3])
@example({"1": "AAECAw=="})
@settings(max_examples=400, deadline=None)
def test_property_int_list_check_matches_per_element_reference(value):
    decoded = netproto._int_array(value)
    expected = reference_values(value)
    assert (decoded is not None) is (expected is not None)
    if decoded is not None:
        assert decoded.tolist() == expected


def reference_array_text(values):
    """The array text of ``values``, packed one element at a time with int.to_bytes."""
    values = values.tolist()
    width = reference_width(values)
    raw = b"".join(v.to_bytes(width, "little", signed=True) for v in values)
    return f"{width}{base64.b64encode(raw).decode('ascii')}"


# JSON documents with int64 arrays among their values.
JSON_WITH_ARRAYS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10)
    | INT64_ARRAYS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=20)


@given(JSON_VALUES | INT64_ARRAYS | JSON_WITH_ARRAYS)
@example(np.array([], dtype=np.int64))
@example(np.array(width_edges(), dtype=np.int64))
@example({"b": [np.array([-1, 0], dtype=np.int64)], "a": {}, "": []})
@settings(max_examples=400, deadline=None)
def test_property_writer_matches_json_dumps(value):
    reference = json.dumps({"v": PROTOCOL_VERSION, "kind": "BYE", "payload": value},
                           sort_keys=True, separators=(",", ":"),
                           default=reference_array_text).encode() + b"\n"
    assert Message("BYE", value).encode() == reference


@pytest.mark.parametrize("value", [
    pytest.param([0, 1, 2, 3], id="json-list"),
    pytest.param("0AAECAw==", id="width-0"),
    pytest.param("3AAECAw==", id="width-3"),
    pytest.param("\u0662AAECAw==", id="arabic-indic-width-2"),
    pytest.param("", id="empty-string"),
    pytest.param("1AAEC!w==", id="non-alphabet"),
    pytest.param("1AAEC\u00e9w==", id="non-ascii"),
    pytest.param("1AAE CAw==", id="whitespace"),
    pytest.param("1AAECAw==\n", id="trailing-newline"),
    pytest.param("1AAECAw", id="missing-padding"),
    pytest.param("2AAEC", id="three-bytes-at-width-2"),
    pytest.param("8AAECAw==", id="four-bytes-at-width-8"),
    pytest.param(7, id="int"),
    pytest.param(None, id="null"),
    pytest.param({"1": "AAECAw=="}, id="object"),
])
def test_malformed_array_text_is_a_protocol_error(value):
    assert reference_values(value) is None
    doc = {"v": PROTOCOL_VERSION, "kind": "PREDICTIONS",
           "payload": {"participant_id": 0, "labels": value}}
    with pytest.raises(ProtocolError, match="field 'labels' has the wrong type or range"):
        decode_line(json.dumps(doc).encode())


# sha256 of two lines as protocol 2 writes them. Protocol 1's pins, of the
# same messages with JSON lists, changed when arrays became array texts; these
# must not change while the protocol stays at version 2.
def pinned_labels():
    """1e5 int64 labels of every magnitude: an LCG's values shifted by 0-63."""
    n = 100_000
    x = (np.arange(n, dtype=np.uint64) * np.uint64(6364136223846793005)
         + np.uint64(1442695040888963407))
    return x.view(np.int64) >> (np.arange(n, dtype=np.int64) % 64)


def pinned_entries():
    idx = np.arange(0, 300_000, 7, dtype=np.int64)
    return [(3, idx[:0]), (5, idx[:1]), (11, idx[::3]), (2 ** 40, idx[5:20000]),
            (-7, np.array([2 ** 63 - 1], dtype=np.int64))]


PREDICTIONS_SHA = "7bfefdbe414ecf98c43b9280e60f92df7a0a5af9117ca4741466a51453e5b311"
BUNDLE_SHA = "b42389f02f1d9b7d222d9203568842c4c2a8b82ba9b97c1803239d111c82cf9c"


class TestCodec:
    def test_encoded_lines_match_the_pinned_bytes(self):
        predictions = Message("PREDICTIONS", {"participant_id": 3, "labels": pinned_labels()})
        bundle = Message("BUNDLE", {"participant_id": 1, "entries": [
            {"category": c, "indices": i} for c, i in pinned_entries()]})
        assert hashlib.sha256(predictions.encode()).hexdigest() == PREDICTIONS_SHA
        assert hashlib.sha256(bundle.encode()).hexdigest() == BUNDLE_SHA

    def test_decoded_int_lists_are_read_only_int64_arrays(self):
        line = Message("BUNDLE", {"participant_id": 1, "entries": [
            {"category": c, "indices": i} for c, i in pinned_entries()]}).encode()
        entries = decode_line(line).payload["entries"]
        for entry, (category, indices) in zip(entries, pinned_entries(), strict=True):
            assert entry["category"] == category
            assert entry["indices"].dtype == np.int64
            assert not entry["indices"].flags.writeable
            assert np.array_equal(entry["indices"], indices)
        labels = decode_line(Message("PREDICTIONS", {
            "participant_id": 3, "labels": pinned_labels()}).encode()).payload["labels"]
        assert labels.dtype == np.int64 and not labels.flags.writeable
        assert np.array_equal(labels, pinned_labels())

    def test_validate_message_leaves_its_input_unchanged(self):
        doc = json.loads(wire_line({"v": PROTOCOL_VERSION, "kind": "BUNDLE", "payload": {
            "participant_id": 0, "entries": [{"category": 2, "indices": [0, 4]},
                                             {"category": 5, "indices": []}]}}))
        copy = json.loads(json.dumps(doc))
        message = validate_message(doc)
        assert doc == copy
        assert message.payload is not doc["payload"]
        assert doc["payload"]["entries"][0]["indices"] == "1AAQ="

    def test_arrays_of_other_dtypes_are_not_written(self):
        for labels in (np.zeros(3, dtype=np.int32), np.zeros((1, 3), dtype=np.int64)):
            with pytest.raises(TypeError):
                Message("PREDICTIONS", {"participant_id": 0, "labels": labels}).encode()


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
PAYLOADS = {
    "REGISTER": st.fixed_dictionaries({"participant_id": INT64, "label_space": INT64_ARRAYS,
                                       "train_size": INT64}),
    "REGISTER_ACK": st.fixed_dictionaries({
        "participant_id": INT64, "n_participants": INT64, "unlabeled_size": INT64,
        "dataset_sha256": st.text(max_size=64)}),
    "PREDICTIONS": st.fixed_dictionaries({"participant_id": INT64, "labels": INT64_ARRAYS}),
    "BUNDLE": st.fixed_dictionaries({"participant_id": INT64, "entries": st.lists(
        st.fixed_dictionaries({"category": INT64, "indices": INT64_ARRAYS}), max_size=4)}),
    "ERROR": st.fixed_dictionaries({"text": st.text(max_size=20)}),
    "BYE": st.just({}),
}
MESSAGES = st.one_of(*(st.builds(Message, st.just(kind), payload)
                       for kind, payload in PAYLOADS.items()))


@given(MESSAGES)
@settings(max_examples=300, deadline=None)
def test_property_decode_then_encode_gives_the_same_bytes(message):
    line = message.encode()
    decoded = decode_line(line)
    assert decoded.encode() == line
    assert decoded == message


class ChunkSocket:
    """Hands MessageStream.recv the given chunks, one per call, then EOF."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)

    def recv(self, size):
        return self.chunks.pop(0) if self.chunks else b""


class TestLineCap:
    LINE = Message("ERROR", {"text": "x" * 40}).encode()
    SIZE = len(LINE) - 1  # the newline does not count

    def read(self, max_line, *chunks):
        return netproto.MessageStream(ChunkSocket(*chunks), max_line=max_line).recv()

    def test_line_at_the_cap_is_accepted(self):
        assert self.read(self.SIZE, self.LINE) == decode_line(self.LINE)

    def test_line_over_the_cap_in_one_chunk_is_rejected(self):
        with pytest.raises(ProtocolError, match=f"exceeds {self.SIZE - 1} bytes"):
            self.read(self.SIZE - 1, self.LINE)

    def test_line_over_the_cap_across_chunks_is_rejected(self):
        cut = self.SIZE // 2
        with pytest.raises(ProtocolError, match=f"exceeds {self.SIZE - 1} bytes"):
            self.read(self.SIZE - 1, self.LINE[:cut], self.LINE[cut:])
        # with no newline in sight the stream stops reading past the cap
        stream = netproto.MessageStream(ChunkSocket(b"x" * 8, b"x" * 8, b"\n"), max_line=10)
        with pytest.raises(ProtocolError, match="exceeds 10 bytes"):
            stream.recv()
        assert stream.sock.chunks == [b"\n"]

    def test_lines_come_out_whole_and_in_order_wherever_the_chunks_split(self):
        first, second = Message("BYE", {}).encode(), self.LINE
        data = first + second
        for cut in range(1, len(data)):
            stream = netproto.MessageStream(ChunkSocket(data[:cut], data[cut:]),
                                            max_line=self.SIZE)
            assert stream.recv() == decode_line(first)
            assert stream.recv() == decode_line(second)
            with pytest.raises(ProtocolError, match="closed mid-message"):
                stream.recv()

    def test_largest_legal_lines_fit_under_the_round_cap(self):
        size, widest = 10 ** 5, 2 ** 63 - 1
        every_id = np.arange(CATEGORY_LIMIT, dtype=np.int64)
        every_index = np.arange(size, dtype=np.int64)
        register = Message("REGISTER", {"participant_id": widest, "label_space": every_id,
                                        "train_size": widest})
        predictions = Message("PREDICTIONS", {"participant_id": widest, "labels": np.full(
            size, CATEGORY_LIMIT - 1, dtype=np.int64)})
        # one entry per category id, and every public index in the widest one
        entries = [{"category": c, "indices": every_index[:0]} for c in range(CATEGORY_LIMIT)]
        entries[-1]["indices"] = every_index
        bundle = Message("BUNDLE", {"participant_id": widest, "entries": entries})
        # each entry's label-space check is one lookup, not a scan of the space
        started = time.perf_counter()
        assert len(bundle_from_payload(bundle.payload, LabelSpace(tuple(range(CATEGORY_LIMIT))),
                                       size)) == size
        assert time.perf_counter() - started < 2.0
        lengths = [len(m.encode()) - 1 for m in (register, predictions, bundle)]
        assert max(lengths) == lengths[2] <= line_cap(size) < 2 * 2 ** 20
        # each bundle of test_peer_that_stops_reading_holds_back_no_one: 6.9 MB
        size = 1_300_000
        all_admitted = Message("BUNDLE", {"participant_id": 0, "entries": [
            {"category": 0, "indices": np.arange(size, dtype=np.int64)},
            {"category": 1, "indices": np.arange(0, dtype=np.int64)}]})
        assert 6.8e6 < len(all_admitted.encode()) - 1 <= line_cap(size)


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
                assert results[i].bundle == in_process.bundles[i]
                assert results[i].to_record() == p.to_record()
            for i, bundle in box["result"].bundles.items():
                assert bundle == in_process.bundles[i]
            served = box["result"]
            assert served.label_spaces == [shard.label_space
                                           for shard in in_process.data.shards]
            assert (orch.category_reports(served.pseudo_sets, served.label_spaces)
                    == in_process.report.categories)
        assert all(len(r.bundle) == 0 and r.federated_accuracy == r.local_accuracy
                   for r in results.values())

    def test_join_result_record_is_the_in_process_participant_record(self):
        report = orch.ParticipantReport(participant=2, learner="gnb", train_size=16,
                                        bundle_size=0, local_accuracy=0.5,
                                        federated_accuracy=0.75)
        joined = netproto.JoinResult(
            **{f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.init},
            bundle=PseudolabelBundle.empty(2), transcript=[{"direction": "send"}])
        assert joined.relative_accuracy == 1.5
        # the bundle and the transcript stay out of the report line
        assert joined.to_record() == report.to_record()

    def one_participant_transcripts(self):
        """The coordinator's and the participant's transcripts of a 1-participant round."""
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        result = join_participant(config, data, 0, address)
        thread.join(timeout=30)
        assert box["result"].status == "completed"
        return box["result"].transcript, result.transcript

    def test_transcripts_are_pinned(self):
        # Each entry, without its peer's ephemeral port, as the --out files
        # write it: re-pinned when protocol 2 made arrays array texts.
        def digest(transcript):
            lines = [json.dumps({"direction": entry["direction"], "message": entry["message"]},
                                sort_keys=True, default=array_text) + "\n"
                     for entry in transcript]
            return hashlib.sha256("".join(lines).encode()).hexdigest()

        served, joined = self.one_participant_transcripts()
        assert digest(served) == "6a25faa318825d5ecd2b7d2d70ec5609efe6d9ec59ce1b4c6244e271dfd0c792"
        assert digest(joined) == "ff79a6510554b29bb6e52fb4e283c396d3e64ea9f2e9ec4260a3298f2f7c3387"

    def test_transcripts_hold_the_wire_arrays(self):
        served, joined = self.one_participant_transcripts()
        int_lists = []
        for entry in served + joined:
            payload = entry["message"]["payload"]
            int_lists += [payload[name] for name in ("labels", "label_space") if name in payload]
            int_lists += [item["indices"] for item in payload.get("entries", [])]
        # REGISTER, PREDICTIONS and a three-entry BUNDLE, on each side
        assert len(int_lists) == 10
        for values in int_lists:
            assert isinstance(values, np.ndarray) and values.dtype == np.int64
            assert not values.flags.writeable

    def test_predictions_go_up_as_the_array_text_of_the_votes(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        result = join_participant(config, data, 0, address)
        thread.join(timeout=30)
        assert not thread.is_alive()

        from fedcotrain.learners import pseudolabel, train_local
        shard = data.shards[0]
        clf = train_local(config.participants[0].learner, shard.label_space,
                          shard.train, participant_train_config(config, 0))
        votes = pseudolabel(clf, data.unlabeled)
        [labels] = [json.loads(Message(**entry["message"]).encode())["payload"]["labels"]
                    for entry in result.transcript
                    if entry["message"]["kind"] == "PREDICTIONS"]
        # category ids this small take one byte each
        assert labels[0] == "1"
        assert reference_values(labels) == votes.tolist()

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
            doc = json.loads(Message(**entry["message"]).encode())
            validate_message(doc)
            assert no_floats(doc)


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
        # the stray connection was turned away; the participant still completes the round
        join_participant(config, data, 0, address)
        thread.join(timeout=30)
        assert box["result"].status == "completed"

    def test_version_mismatch_rejected(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        # a protocol-1 REGISTER, its label space a JSON list, is told the
        # versions, not that the list is no array text
        register = {"kind": "REGISTER",
                    "payload": {"participant_id": 0, "label_space": [0], "train_size": 5}}
        for v, line in ((99, wire_line({"v": 99, **register})),
                        (1, json.dumps({"v": 1, **register}).encode() + b"\n")):
            raw = RawClient(address)
            raw.send_line(line)
            assert raw.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR", "payload": {
                "text": f"protocol version mismatch: this side speaks {PROTOCOL_VERSION}, "
                        f"the peer sent {v}"}}
            raw.close()
        # the stray connection was turned away; the participant still completes the round
        join_participant(config, data, 0, address)
        thread.join(timeout=30)
        assert box["result"].status == "completed"

    def test_duplicate_registration_rejected(self):
        config = small_config(n=1)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        first = RawClient(address)
        first.send({"v": PROTOCOL_VERSION, "kind": "REGISTER",
                    "payload": {"participant_id": 0, "label_space": [0, 1],
                                "train_size": 5}})
        ack = first.recv()
        assert ack["kind"] == "REGISTER_ACK"
        dup = RawClient(address)
        dup.send({"v": PROTOCOL_VERSION, "kind": "REGISTER",
                  "payload": {"participant_id": 0, "label_space": [0, 1],
                              "train_size": 5}})
        reply = dup.recv()
        assert reply["kind"] == "ERROR"
        assert "already registered" in reply["payload"]["text"]
        dup.close()
        # the original registrant still completes the round
        first.send({"v": PROTOCOL_VERSION, "kind": "PREDICTIONS",
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
        raw.send({"v": PROTOCOL_VERSION, "kind": "REGISTER",
                  "payload": {"participant_id": 0, "label_space": [0, 1],
                              "train_size": 5}})
        assert raw.recv()["kind"] == "REGISTER_ACK"
        raw.send({"v": PROTOCOL_VERSION, "kind": "PREDICTIONS",
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
        raw.send({"v": PROTOCOL_VERSION, "kind": "REGISTER",
                  "payload": {"participant_id": 0, "label_space": [0, 1],
                              "train_size": 5}})
        assert raw.recv()["kind"] == "REGISTER_ACK"
        raw.send({"v": PROTOCOL_VERSION, "kind": "PREDICTIONS",
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
        raw.send({"v": PROTOCOL_VERSION, "kind": "REGISTER",
                  "payload": {"participant_id": 0, "label_space": [0],
                              "train_size": 0}})
        reply = raw.recv()
        assert reply["kind"] == "ERROR"
        assert "empty local dataset" in reply["payload"]["text"]
        raw.close()
        # the stray connection was turned away; the participant still completes the round
        join_participant(config, data, 0, address)
        thread.join(timeout=30)
        assert box["result"].status == "completed"

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
        # the client told the coordinator why it left: the round ends with that cause
        thread.join(timeout=10)
        assert box["result"].status == (
            f"aborted: participant 0: public dataset hash mismatch: coordinator announced "
            f"{array_sha(data.unlabeled)[:12]}..., local file hashes to 000000000000...")

    def test_dataset_mismatch_is_named_to_every_participant(self):
        # participant 1's public file differs from the coordinator's: the
        # coordinator and participant 0 learn why, not that the round timed out
        config = small_config(n=2)
        data = build_round_data(config)
        coordinator, address, thread, box = start_coordinator(
            settings_for(config, data, timeout_s=1.0))
        waiting = register_raw(address, 0, list(data.shards[0].label_space.categories))
        with pytest.raises(ProtocolError, match="public dataset hash mismatch"):
            join_participant(config, data, 1, address, sha="0" * 64)
        cause = (f"participant 1: public dataset hash mismatch: coordinator announced "
                 f"{array_sha(data.unlabeled)[:12]}..., local file hashes to 000000000000...")
        assert waiting.recv()["payload"]["text"] == f"round aborted: {cause}"
        waiting.close()
        thread.join(timeout=10)
        assert box["result"].status == f"aborted: {cause}"

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
        assert reply == {"v": PROTOCOL_VERSION, "kind": "ERROR", "payload": {
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

    def test_line_over_the_cap_is_refused_and_the_round_goes_on(self):
        config = small_config(n=1)
        data = build_round_data(config)
        cap = line_cap(len(data.unlabeled))
        coordinator, address, thread, box = start_coordinator(settings_for(config, data))
        # a line as long as the cap is read and parsed; one byte more is refused
        at_cap, over = RawClient(address), RawClient(address)
        at_cap.send_line(b"x" * cap + b"\n")
        over.send_line(b"x" * (cap + 1))
        assert "could not parse message line" in at_cap.recv()["payload"]["text"]
        assert over.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR", "payload": {
            "text": f"message line exceeds {cap} bytes"}}
        for raw in (at_cap, over):
            raw.close()
        join_participant(config, data, 0, address)
        thread.join(timeout=30)
        assert box["result"].status == "completed"

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
        assert idle.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR",
                               "payload": {"text": "round already completed"}}
        assert idle.file.readline() == b""
        idle.close()

    def test_awaiting_register_count_survives_concurrent_connections(self):
        # more threads than cores open and drop connections at once; one left
        # counted as awaiting REGISTER would keep a participant out
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
        # every churned connection has left the REGISTER count: all 3 participants get in
        results = {}
        clients = [threading.Thread(
            target=lambda i=i: results.update({i: join_participant(config, data, i, address)}))
            for i in range(3)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60)
        thread.join(timeout=60)
        assert box["result"].status == "completed"
        assert sorted(results) == [0, 1, 2]


def fake_coordinator(public_size, sha, entries, reply=None):
    """Serve one join: acknowledge it, read its votes, answer with ``entries``.

    ``reply``, when given, is sent instead of the bundle's line.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as lines:
            register = json.loads(lines.readline())
            pid = register["payload"]["participant_id"]
            conn.sendall(Message("REGISTER_ACK", {
                "participant_id": pid, "n_participants": 1,
                "unlabeled_size": public_size, "dataset_sha256": sha}).encode())
            lines.readline()
            conn.sendall(reply or wire_line({"v": PROTOCOL_VERSION, "kind": "BUNDLE",
                                             "payload": {"participant_id": pid,
                                                         "entries": entries}}))
            lines.readline()  # until the client closes

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


@pytest.mark.parametrize("fault", ["index", "order", "category"])
def test_join_reports_a_bad_bundle_before_retraining(monkeypatch, fault):
    config = small_config(n=1)
    data = build_round_data(config)
    size = len(data.unlabeled)
    category = data.shards[0].label_space.categories[0]
    entries, text = {
        "index": ([{"category": category, "indices": [0, size]}],
                  f"index {size} for category {category}, outside the public dataset "
                  f"of {size} rows"),
        "order": ([{"category": category, "indices": [5, 2]}],
                  "malformed bundle: indices must be strictly ascending"),
        "category": ([{"category": 999, "indices": [0]}],
                     "category 999, outside the label space"),
    }[fault]

    def retrain(*args):
        raise AssertionError("join retrained on a bundle it had not checked")

    monkeypatch.setattr(orch.Participant, "baseline", retrain)
    listener, thread = fake_coordinator(size, array_sha(data.unlabeled), entries)
    try:
        with pytest.raises(ProtocolError, match=re.escape(text)):
            join_participant(config, data, 0, listener.getsockname()[:2])
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()


def test_join_refuses_a_line_over_the_cap():
    config = small_config(n=1)
    data = build_round_data(config)
    size = len(data.unlabeled)
    cap = line_cap(size)
    listener, thread = fake_coordinator(size, array_sha(data.unlabeled), [],
                                        reply=b"x" * (cap + 1))
    try:
        with pytest.raises(ProtocolError, match=f"message line exceeds {cap} bytes"):
            join_participant(config, data, 0, listener.getsockname()[:2])
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()


def test_join_refuses_a_coordinator_of_another_version():
    config = small_config(n=1)
    data = build_round_data(config)
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as lines:
            lines.readline()
            conn.sendall(Message("REGISTER_ACK", {
                "participant_id": 0, "n_participants": 1, "unlabeled_size": len(data.unlabeled),
                "dataset_sha256": array_sha(data.unlabeled)}, v=1).encode())
            lines.readline()  # until the client closes

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        with pytest.raises(ProtocolError, match=re.escape(
                f"protocol version mismatch: this side speaks {PROTOCOL_VERSION}, "
                f"the peer sent 1")):
            join_participant(config, data, 0, listener.getsockname()[:2])
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()


@pytest.mark.parametrize("category", [CATEGORY_LIMIT, -1])
def test_bundle_category_outside_the_bound_is_a_protocol_error(category):
    payload = {"participant_id": 0, "entries": [{"category": category, "indices": [0]}]}
    with pytest.raises(ProtocolError, match=re.escape(
            f"coordinator sent a malformed bundle: category id {category} outside "
            f"[0, {CATEGORY_LIMIT})")):
        bundle_from_payload(payload, LabelSpace((0, 1)), 10)


def test_bundle_index_far_past_the_public_set_is_refused_before_any_table():
    # a seen-table over [0, 2**62] cannot be allocated: the index is checked
    # against the public set before the bundle's disjointness check sizes one
    payload = {"participant_id": 0, "entries": [{"category": 1, "indices": [2 ** 62]}]}
    with pytest.raises(ProtocolError, match=re.escape(
            f"coordinator sent a bundle with index {2 ** 62} for category 1, outside "
            f"the public dataset of 10 rows")):
        bundle_from_payload(payload, LabelSpace((0, 1)), 10)


def register_raw(address, pid, label_space):
    raw = RawClient(address)
    raw.send({"v": PROTOCOL_VERSION, "kind": "REGISTER",
              "payload": {"participant_id": pid, "label_space": label_space,
                          "train_size": 5}})
    assert raw.recv()["kind"] == "REGISTER_ACK"
    return raw


def send_labels(raw, pid, labels):
    raw.send({"v": PROTOCOL_VERSION, "kind": "PREDICTIONS",
              "payload": {"participant_id": pid, "labels": labels}})


# One row per setting the round cannot run with; each is refused when the
# settings are built, with the text the vote or ``--timeout`` would give.
@pytest.mark.parametrize("field, value, message", [
    ("n_participants", 0, "need at least one participant"),
    ("alpha", 1.5, "alpha must lie in [0, 1], got 1.5"),
    ("alpha", float("nan"), "alpha must lie in [0, 1], got nan"),
    ("unlabeled_size", 0, "public dataset size must be >= 1"),
    ("weights", fc.CredibilityWeights((1.0,)), "1 weights for 2 participants"),
    ("timeout_s", 0.0, "timeout_s: expected a finite number > 0, got 0.0"),
    ("timeout_s", float("inf"), "timeout_s: expected a finite number > 0, got inf"),
])
def test_coordinator_settings_refuse_a_round_that_cannot_run(field, value, message):
    valid = dict(n_participants=2, alpha=0.3, unlabeled_size=10, dataset_sha256="0" * 64,
                 weights=fc.CredibilityWeights((1.0, 0.5)), timeout_s=5.0)
    CoordinatorSettings(**valid)
    with pytest.raises(ValueError, match=re.escape(message)):
        CoordinatorSettings(**{**valid, field: value})


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
        # A defect in a handler step (here: checking participant 1's votes,
        # told apart by being all 1s) ends the round with its real cause
        # instead of killing the handler thread and leaving the others to time out.
        check = netproto.vote_positions

        def failing_check(labels, space):
            if (labels == 1).all():
                raise RuntimeError("store failed")
            return check(labels, space)

        config = small_config(n=2)
        data = build_round_data(config)
        size = len(data.unlabeled)
        started = time.monotonic()
        coordinator, address, thread, box = start_coordinator(
            settings_for(config, data, timeout_s=self.TIMEOUT_S))
        monkeypatch.setattr(netproto, "vote_positions", failing_check)
        waiting, failing = register_raw(address, 0, [0, 1]), register_raw(address, 1, [0, 1])
        send_labels(waiting, 0, [0] * size)
        send_labels(failing, 1, [1] * size)
        assert failing.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR",
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
        # 2**70 takes 9 bytes, one more than the widest width holds: at width
        # 8, 9 + 8 * (size - 1) bytes are no whole number of labels
        wide = (2 ** 70).to_bytes(9, "little", signed=True) + bytes(8 * (size - 1))
        bad.send({"v": PROTOCOL_VERSION, "kind": "PREDICTIONS", "payload": {
            "participant_id": 1, "labels": "8" + base64.b64encode(wide).decode()}})
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

    def test_outside_votes_error_names_first_five_distinct_sorted(self):
        # seven distinct outsiders, in no order, a negative one and 2**40
        # among them: the ERROR names the five smallest, ascending, once each
        size, address, thread, box, started = self.start()
        silent, bad = register_raw(address, 0, [0, 1]), register_raw(address, 1, [0, 1])
        labels = [0, 1, 11, -3, 2 ** 40, 8, 11, 10, 9, 12, -3] + [1] * (size - 11)
        send_labels(bad, 1, labels)
        text = ("participant 1 predicted categories [-3, 8, 9, 10, 11] "
                "outside its declared label space")
        assert bad.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR", "payload": {"text": text}}
        assert silent.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR",
                                 "payload": {"text": f"round aborted: {text}"}}
        for raw in (silent, bad):
            raw.close()
        self.finish(thread, box, started)
        assert box["result"].status == f"aborted: {text}"


class TestPeerFaults:
    """A participant that hangs up or stops reading is reported by its cause, in time."""

    def test_hang_up_after_voting_aborts_the_round_at_once(self):
        size = 60
        coordinator, address, thread, box = start_coordinator(CoordinatorSettings(
            n_participants=2, alpha=0.3, unlabeled_size=size, dataset_sha256="0" * 64,
            timeout_s=6.0))
        leaving, waiting = register_raw(address, 0, [0, 1]), register_raw(address, 1, [0, 1])
        send_labels(leaving, 0, [0] * size)
        leaving.close()
        left = time.monotonic()
        assert waiting.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR", "payload": {
            "text": "round aborted: connection closed mid-message"}}
        assert time.monotonic() - left < 1
        waiting.close()
        thread.join(timeout=10)
        assert box["result"].status == "aborted: connection closed mid-message"

    def test_register_outside_the_category_bound_is_refused_at_once(self):
        # a stray declares as many ids as the bound allows, the last one past it;
        # it is told the bound at once, and participant 0's round goes on without it
        size = 100_000
        coordinator, address, thread, box = start_coordinator(CoordinatorSettings(
            n_participants=1, alpha=0.3, unlabeled_size=size, dataset_sha256="0" * 64,
            timeout_s=10.0))
        started = time.monotonic()
        stray = RawClient(address)
        stray.send({"v": PROTOCOL_VERSION, "kind": "REGISTER", "payload": {
            "participant_id": 0,
            "label_space": list(range(CATEGORY_LIMIT - 1)) + [CATEGORY_LIMIT],
            "train_size": 5}})
        assert stray.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR", "payload": {
            "text": f"category id {CATEGORY_LIMIT} outside [0, {CATEGORY_LIMIT})"}}
        assert time.monotonic() - started < 1
        stray.close()
        voter = register_raw(address, 0, [0, CATEGORY_LIMIT - 1])
        send_labels(voter, 0, [CATEGORY_LIMIT - 1] * size)
        assert voter.recv()["kind"] == "BUNDLE"
        voter.close()
        thread.join(timeout=10)
        assert box["result"].status == "completed"

    def test_register_repeating_one_id_is_told_that_id(self):
        # as many zeros as the bound allows: the error names the repeated id once,
        # not the whole space
        size = 60
        coordinator, address, thread, box = start_coordinator(CoordinatorSettings(
            n_participants=1, alpha=0.3, unlabeled_size=size, dataset_sha256="0" * 64,
            timeout_s=10.0))
        stray = RawClient(address)
        stray.send({"v": PROTOCOL_VERSION, "kind": "REGISTER", "payload": {
            "participant_id": 0, "label_space": [0] * CATEGORY_LIMIT, "train_size": 5}})
        assert stray.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR", "payload": {
            "text": "label space has duplicate categories [0]"}}
        stray.close()
        voter = register_raw(address, 0, [0, 1])
        send_labels(voter, 0, [1] * size)
        assert voter.recv()["kind"] == "BUNDLE"
        voter.close()
        thread.join(timeout=10)
        assert box["result"].status == "completed"

    def test_register_longer_than_the_category_bound_is_refused_by_its_length(self):
        # a REGISTER of zeros just under the line cap is refused by its length,
        # before any per-id pass; an error that echoed the whole space, three
        # bytes an id against the line's 4/3, would exceed the cap
        size = 60
        coordinator, address, thread, box = start_coordinator(CoordinatorSettings(
            n_participants=1, alpha=0.3, unlabeled_size=size, dataset_sha256="0" * 64,
            timeout_s=10.0))
        register = Message("REGISTER", {"participant_id": 0, "train_size": 5,
                                        "label_space": np.zeros(800_000, dtype=np.int64)})
        line = register.encode()
        assert line_cap(size) < 2 * (len(line) - 1) <= 2 * line_cap(size)
        stray = RawClient(address)
        stray.send_line(line)
        assert stray.recv() == {"v": PROTOCOL_VERSION, "kind": "ERROR", "payload": {
            "text": f"label space has 800000 categories, more than {CATEGORY_LIMIT}"}}
        stray.close()
        voter = register_raw(address, 0, [0, 1])
        send_labels(voter, 0, [1] * size)
        assert voter.recv()["kind"] == "BUNDLE"
        voter.close()
        thread.join(timeout=10)
        assert box["result"].status == "completed"

    def test_peer_that_stops_reading_holds_back_no_one(self):
        # each bundle admits all 1.3e6 indices, about 6.9 MB: more than the
        # socket buffers of a peer that never reads can take
        size, timeout_s = 1_300_000, 4.0
        started = time.monotonic()
        coordinator, address, thread, box = start_coordinator(CoordinatorSettings(
            n_participants=2, alpha=0.3, unlabeled_size=size, dataset_sha256="0" * 64,
            timeout_s=timeout_s))
        deaf = socket.socket()
        deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        deaf.connect(address)
        for doc in ({"v": PROTOCOL_VERSION, "kind": "REGISTER", "payload": {
                        "participant_id": 0, "label_space": [0, 1], "train_size": 5}},
                    {"v": PROTOCOL_VERSION, "kind": "PREDICTIONS", "payload": {
                        "participant_id": 0, "labels": [0] * size}}):
            deaf.sendall(wire_line(doc))
        reader = register_raw(address, 1, [0, 1])
        send_labels(reader, 1, [0] * size)
        bundle = reader.recv()
        assert bundle["kind"] == "BUNDLE"
        assert bundle["payload"]["entries"][0]["indices"] == array_text(
            np.arange(size, dtype=np.int64))
        assert time.monotonic() - started < timeout_s - 1
        thread.join(timeout=timeout_s + 5)
        assert not thread.is_alive()
        assert time.monotonic() - started < timeout_s + 1
        assert box["result"].status == "aborted: timed out sending bundles to participants [0]"
        deaf.close()
        reader.close()


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
