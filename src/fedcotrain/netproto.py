"""Coordinator service and participant client over a TCP wire protocol.

One JSON object per line, UTF-8, newline-delimited:

    {"v": 1, "kind": "<KIND>", "payload": {...}}

Kinds and payloads:

* ``REGISTER``      {participant_id, label_space: [int], train_size}
* ``REGISTER_ACK``  {participant_id, n_participants, unlabeled_size,
                     dataset_sha256}
* ``PREDICTIONS``   {participant_id, labels: [int] * unlabeled_size}
* ``BUNDLE``        {participant_id, entries: [{category, indices: [int]}]}
* ``ERROR``         {text}
* ``BYE``           {}

The coordinator never transmits instances: the public dataset is published
out-of-band as a file whose content hash rides in REGISTER_ACK so clients can
verify alignment, and bundles reference public-dataset indices only. Messages
therefore carry nothing but category ids, indices, and metadata - no feature
values from any local dataset ever appear on the wire.

The round is a barrier: the coordinator aggregates exactly once, after all N
prediction vectors arrive, then sends each participant only its own bundle. A
straggler timeout, a duplicate registration of a live participant id, a
malformed line, or a prediction outside the declared label space aborts or
rejects per the error contract.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .aggregation import CredibilityWeights, PseudolabelBundle, PseudolabelSet
# Unused here (coordinate() votes); kept as attributes the benchmark tracer wraps.
from .aggregation import aggregate, aggregate_weighted, build_bundle, remove_global_conflicts
from .domain import LabeledDataset, LabelSpace, UnlabeledDataset
from .learners import TrainConfig, evaluate, pseudolabel, train_local, update_train
from .orchestrator import coordinate

PROTOCOL_VERSION = 1
DEFAULT_MAX_LINE = 64 * 2 ** 20
DEFAULT_COORDINATOR_TIMEOUT = 60.0
DEFAULT_CLIENT_TIMEOUT = 120.0


class ProtocolError(RuntimeError):
    """Wire-level failure: malformed message, version mismatch, contract breach."""


# Strict payload schemas: field name -> validator. Unknown fields are
# rejected, so a schema pass proves a message carries only ids, indices,
# sizes, and text - never feature vectors. Integers must fit in int64.
def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and -2 ** 63 <= v < 2 ** 63


def _is_int_list(v):
    return isinstance(v, list) and all(_is_int(x) for x in v)


def _is_entry_list(v):
    if not isinstance(v, list):
        return False
    for item in v:
        if not isinstance(item, dict) or set(item) != {"category", "indices"}:
            return False
        if not _is_int(item["category"]) or not _is_int_list(item["indices"]):
            return False
    return True


MESSAGE_SCHEMAS = {
    "REGISTER": {"participant_id": _is_int, "label_space": _is_int_list,
                 "train_size": _is_int},
    "REGISTER_ACK": {"participant_id": _is_int, "n_participants": _is_int,
                     "unlabeled_size": _is_int, "dataset_sha256": lambda v: isinstance(v, str)},
    "PREDICTIONS": {"participant_id": _is_int, "labels": _is_int_list},
    "BUNDLE": {"participant_id": _is_int, "entries": _is_entry_list},
    "ERROR": {"text": lambda v: isinstance(v, str)},
    "BYE": {},
}


@dataclass(frozen=True)
class Message:
    kind: str
    payload: dict
    v: int = PROTOCOL_VERSION

    def encode(self) -> bytes:
        doc = {"v": self.v, "kind": self.kind, "payload": self.payload}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def validate_message(doc) -> Message:
    """Parse and schema-check one decoded JSON object."""
    if not isinstance(doc, dict) or set(doc) != {"v", "kind", "payload"}:
        raise ProtocolError("message must have exactly the fields v, kind, payload")
    if not _is_int(doc["v"]):
        raise ProtocolError("protocol version must be an integer")
    kind = doc["kind"]
    if kind not in MESSAGE_SCHEMAS:
        raise ProtocolError(f"unknown message kind {kind!r}")
    payload = doc["payload"]
    schema = MESSAGE_SCHEMAS[kind]
    if not isinstance(payload, dict) or set(payload) != set(schema):
        raise ProtocolError(
            f"{kind} payload must have exactly the fields {sorted(schema)}"
        )
    for name, check in schema.items():
        if not check(payload[name]):
            raise ProtocolError(f"{kind} payload field {name!r} has the wrong type or range")
    return Message(kind=kind, payload=payload, v=doc["v"])


def decode_line(line: bytes) -> Message:
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"could not parse message line: {exc}") from None
    return validate_message(doc)


class MessageStream:
    """Newline-framed message I/O over one socket, with optional transcript."""

    def __init__(self, sock: socket.socket, max_line: int = DEFAULT_MAX_LINE,
                 transcript: list | None = None, transcript_lock=None, peer: str = ""):
        self.sock = sock
        self.max_line = max_line
        self.buffer = b""
        self.transcript = transcript
        self.transcript_lock = transcript_lock or threading.Lock()
        self.peer = peer

    def _record(self, direction: str, message: Message):
        if self.transcript is not None:
            with self.transcript_lock:
                self.transcript.append({
                    "direction": direction,
                    "peer": self.peer,
                    "message": {"v": message.v, "kind": message.kind,
                                "payload": message.payload},
                })

    def send(self, message: Message):
        self._record("send", message)
        self.sock.sendall(message.encode())

    def recv(self) -> Message:
        while b"\n" not in self.buffer:
            if len(self.buffer) > self.max_line:
                raise ProtocolError(f"message line exceeds {self.max_line} bytes")
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ProtocolError("connection closed mid-message")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        message = decode_line(line)
        self._record("recv", message)
        return message

    def try_send_error(self, text: str):
        try:
            self.send(Message("ERROR", {"text": text}))
        except OSError:
            pass

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class CoordinatorSettings:
    n_participants: int
    alpha: float
    unlabeled_size: int
    dataset_sha256: str
    weights: CredibilityWeights | None = None
    global_conflict_removal: bool = False
    timeout_s: float = DEFAULT_COORDINATOR_TIMEOUT
    max_line: int = DEFAULT_MAX_LINE


@dataclass
class ServeResult:
    status: str
    bundles: dict[int, PseudolabelBundle] = field(default_factory=dict)
    pseudo_sets: dict[int, PseudolabelSet] = field(default_factory=dict)
    transcript: list = field(default_factory=list)


def _bundle_payload(bundle: PseudolabelBundle) -> dict:
    return {
        "participant_id": bundle.owner,
        "entries": [{"category": e.category, "indices": list(e.indices)}
                    for e in bundle.entries],
    }


def bundle_from_payload(payload: dict) -> PseudolabelBundle:
    entries = tuple(
        PseudolabelSet(item["category"], tuple(item["indices"]))
        for item in payload["entries"]
    )
    return PseudolabelBundle(owner=payload["participant_id"], entries=entries)


class Coordinator:
    """Runs one aggregation round for N remote participants."""

    def __init__(self, settings: CoordinatorSettings):
        self.settings = settings
        self.listener: socket.socket | None = None
        self.address: tuple[str, int] | None = None
        self._lock = threading.Lock()
        self._transcript_lock = threading.Lock()
        self._spaces: dict[int, LabelSpace] = {}
        self._predictions: dict[int, np.ndarray] = {}
        self._bundles: dict[int, PseudolabelBundle] = {}
        self._pseudo_sets: dict[int, PseudolabelSet] = {}
        self._abort_reason: str | None = None
        self._deadline = 0.0
        self.transcript: list = []
        self._barrier = threading.Barrier(settings.n_participants,
                                          action=self._aggregate_once)

    def bind(self, host: str = "127.0.0.1", port: int = 0):
        self.listener = socket.create_server((host, port))
        self.listener.settimeout(0.2)
        self.address = self.listener.getsockname()[:2]
        return self.address

    def _record_abort(self, reason: str):
        with self._lock:
            if self._abort_reason is None:
                self._abort_reason = reason

    def _abort(self, reason: str):
        self._record_abort(reason)
        self._barrier.abort()

    def _aggregate_once(self):
        # barrier action: runs exactly once, in whichever thread trips last,
        # after all N prediction vectors are in
        n = self.settings.n_participants
        try:
            pseudo_sets, bundles = coordinate(
                [self._predictions[i] for i in range(n)], [self._spaces[i] for i in range(n)],
                self.settings.alpha, self.settings.unlabeled_size, self.settings.weights,
                self.settings.global_conflict_removal)
        except Exception as exc:
            # The barrier breaks when this raises; record the cause first so
            # every waiting participant is told it, not a straggler timeout.
            self._record_abort(str(exc))
            raise
        with self._lock:
            self._pseudo_sets = pseudo_sets
            self._bundles = dict(enumerate(bundles))

    def _handle(self, conn: socket.socket, peer: str):
        conn.settimeout(self.settings.timeout_s)
        stream = MessageStream(conn, self.settings.max_line, self.transcript,
                               self._transcript_lock, peer=peer)
        participant = None
        try:
            register = stream.recv()
            if register.v != PROTOCOL_VERSION:
                stream.try_send_error(
                    f"protocol version mismatch: coordinator speaks {PROTOCOL_VERSION}, "
                    f"client sent {register.v}")
                return
            if register.kind != "REGISTER":
                stream.try_send_error(f"expected REGISTER, got {register.kind}")
                return
            pid = register.payload["participant_id"]
            if not 0 <= pid < self.settings.n_participants:
                stream.try_send_error(
                    f"participant id {pid} outside [0, {self.settings.n_participants})")
                return
            if register.payload["train_size"] < 1:
                stream.try_send_error(
                    f"participant {pid} registered an empty local dataset")
                return
            space = LabelSpace(tuple(register.payload["label_space"]))
            with self._lock:
                if pid in self._spaces:
                    stream.try_send_error(f"participant {pid} is already registered")
                    return
                self._spaces[pid] = space
            participant = pid
            stream.send(Message("REGISTER_ACK", {
                "participant_id": pid,
                "n_participants": self.settings.n_participants,
                "unlabeled_size": self.settings.unlabeled_size,
                "dataset_sha256": self.settings.dataset_sha256,
            }))

            predictions = stream.recv()
            if predictions.kind != "PREDICTIONS":
                raise ProtocolError(f"expected PREDICTIONS, got {predictions.kind}")
            if predictions.payload["participant_id"] != pid:
                raise ProtocolError("PREDICTIONS participant id does not match REGISTER")
            labels = np.asarray(predictions.payload["labels"], dtype=np.int64)
            if len(labels) != self.settings.unlabeled_size:
                raise ProtocolError(
                    f"prediction vector length {len(labels)} != announced "
                    f"{self.settings.unlabeled_size}")
            outside = np.setdiff1d(labels, np.fromiter(space, dtype=np.int64))
            if len(outside):
                raise ProtocolError(
                    f"participant {pid} predicted categories {outside.tolist()[:5]} "
                    f"outside its declared label space")
            with self._lock:
                self._predictions[pid] = labels

            remaining = max(self._deadline - time.monotonic(), 0.01)
            self._barrier.wait(timeout=remaining)
            stream.send(Message("BUNDLE", _bundle_payload(self._bundles[pid])))
            stream.send(Message("BYE", {}))
        except threading.BrokenBarrierError:
            reason = self._abort_reason or "timed out waiting for stragglers"
            stream.try_send_error(f"round aborted: {reason}")
        except (ProtocolError, socket.timeout, OSError, ValueError) as exc:
            stream.try_send_error(str(exc))
            if participant is not None:
                # a registered participant failed: the round cannot complete
                self._abort(str(exc))
        finally:
            stream.close()

    def serve(self) -> ServeResult:
        """Accept connections and run the round to completion or abort."""
        if self.listener is None:
            self.bind()
        self._deadline = time.monotonic() + self.settings.timeout_s
        threads: list[threading.Thread] = []
        try:
            while time.monotonic() < self._deadline:
                with self._lock:
                    done = len(self._bundles) == self.settings.n_participants
                if done or self._abort_reason is not None:
                    break
                try:
                    conn, addr = self.listener.accept()
                except socket.timeout:
                    continue
                thread = threading.Thread(target=self._handle,
                                          args=(conn, f"{addr[0]}:{addr[1]}"),
                                          daemon=True)
                thread.start()
                threads.append(thread)
            else:
                self._abort("timed out waiting for stragglers")
            for thread in threads:
                thread.join(timeout=self.settings.timeout_s)
        finally:
            self.listener.close()
        if self._abort_reason is not None:
            return ServeResult(status=f"aborted: {self._abort_reason}",
                               transcript=self.transcript)
        if len(self._bundles) != self.settings.n_participants:
            return ServeResult(status="aborted: round incomplete",
                               transcript=self.transcript)
        return ServeResult(status="completed", bundles=dict(self._bundles),
                           pseudo_sets=dict(self._pseudo_sets),
                           transcript=self.transcript)


def serve(settings: CoordinatorSettings, host: str = "127.0.0.1",
          port: int = 0) -> ServeResult:
    coordinator = Coordinator(settings)
    coordinator.bind(host, port)
    return coordinator.serve()


@dataclass
class JoinResult:
    participant: int
    bundle: PseudolabelBundle
    local_accuracy: float
    federated_accuracy: float
    relative_accuracy: float | None
    transcript: list = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "record": "participant",
            "participant": self.participant,
            "bundle_size": len(self.bundle),
            "local_accuracy": self.local_accuracy,
            "federated_accuracy": self.federated_accuracy,
            "relative_accuracy": self.relative_accuracy,
        }


def join(address: tuple[str, int], *, participant_id: int, kind: str,
         label_space: LabelSpace, train: LabeledDataset, test: LabeledDataset,
         public: UnlabeledDataset, public_sha256: str, config: TrainConfig,
         timeout_s: float = DEFAULT_CLIENT_TIMEOUT,
         max_line: int = DEFAULT_MAX_LINE) -> JoinResult:
    """Run one participant's side of the round against a live coordinator.

    Training happens entirely locally; only the prediction vector goes up and
    only the index bundle comes back. Raises ProtocolError on version or
    dataset-hash mismatch, coordinator-reported errors, or connection loss.
    """
    if len(train) == 0:
        raise ProtocolError(
            f"participant {participant_id} has an empty local dataset; refusing to register")

    local = train_local(kind, label_space, train, config)
    vector = pseudolabel(local, public)

    transcript: list = []
    try:
        sock = socket.create_connection(address, timeout=timeout_s)
    except OSError as exc:
        raise ProtocolError(
            f"could not reach coordinator at {address[0]}:{address[1]}: {exc}") from None
    stream = MessageStream(sock, max_line, transcript, peer=f"{address[0]}:{address[1]}")
    try:
        stream.send(Message("REGISTER", {
            "participant_id": participant_id,
            "label_space": [int(c) for c in label_space],
            "train_size": len(train),
        }))
        ack = stream.recv()
        if ack.kind == "ERROR":
            raise ProtocolError(f"coordinator rejected registration: {ack.payload['text']}")
        if ack.kind != "REGISTER_ACK":
            raise ProtocolError(f"expected REGISTER_ACK, got {ack.kind}")
        if ack.payload["unlabeled_size"] != len(public):
            raise ProtocolError(
                f"public dataset size mismatch: coordinator announced "
                f"{ack.payload['unlabeled_size']}, local file has {len(public)}")
        if ack.payload["dataset_sha256"] != public_sha256:
            raise ProtocolError(
                "public dataset hash mismatch: coordinator announced "
                f"{ack.payload['dataset_sha256'][:12]}..., local file hashes to "
                f"{public_sha256[:12]}...")

        stream.send(Message("PREDICTIONS", {
            "participant_id": participant_id,
            "labels": [int(v) for v in vector],
        }))
        reply = stream.recv()
        if reply.kind == "ERROR":
            raise ProtocolError(f"coordinator error: {reply.payload['text']}")
        if reply.kind != "BUNDLE":
            raise ProtocolError(f"expected BUNDLE, got {reply.kind}")
        if reply.payload["participant_id"] != participant_id:
            raise ProtocolError("received a bundle addressed to another participant")
        bundle = bundle_from_payload(reply.payload)
    finally:
        stream.close()

    baseline = update_train(kind, label_space, train, PseudolabelBundle.empty(participant_id),
                            public, config)
    local_accuracy = evaluate(baseline, test)
    if len(bundle) > 0:
        federated = update_train(kind, label_space, train, bundle, public, config)
        federated_accuracy = evaluate(federated, test)
    else:
        federated_accuracy = local_accuracy
    return JoinResult(
        participant=participant_id,
        bundle=bundle,
        local_accuracy=local_accuracy,
        federated_accuracy=federated_accuracy,
        relative_accuracy=(federated_accuracy / local_accuracy
                           if local_accuracy > 0 else None),
        transcript=transcript,
    )


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
