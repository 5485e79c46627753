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
rejects per the error contract. At most 2N connections may wait for their
REGISTER line at once; one more is told so in an ERROR and closed. Once the
round has completed or aborted, every connection still being read from is
told so in an ERROR and closed, so ``serve`` returns without waiting for it.

``join`` runs the same participant step as the in-process round,
``orchestrator.Participant``: it votes before connecting and retrains once
the bundle has arrived, so wire and in-process participants agree.
"""

from __future__ import annotations

import hashlib
import json
import logging
import socket
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .aggregation import CredibilityWeights, PseudolabelBundle, PseudolabelSet
# Unused here (coordinate and Participant call them); kept for the benchmark tracer.
from .aggregation import aggregate, aggregate_weighted, build_bundle, remove_global_conflicts
from .domain import LabeledDataset, LabelSpace, UnlabeledDataset
from .learners import TrainConfig
from .learners import evaluate, pseudolabel, train_local, update_train
from .orchestrator import Participant, coordinate

log = logging.getLogger(__name__)

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
    # One type pass and one bounds pass over the whole list. JSON decodes
    # integers as exactly int (bool is its own type, so it is rejected).
    if not isinstance(v, list):
        return False
    return not v or (set(map(type, v)) <= {int} and -2 ** 63 <= min(v) and max(v) < 2 ** 63)


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
    if not isinstance(kind, str) or kind not in MESSAGE_SCHEMAS:
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
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer literals;
        # RecursionError covers nesting deeper than the parser allows.
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


def entries_payload(sets: Iterable[PseudolabelSet]) -> list[dict]:
    """The JSON form of index sets: a BUNDLE's entries, one dumped record each."""
    return [{"category": s.category, "indices": s.indices.tolist()} for s in sets]


def bundle_from_payload(payload: dict) -> PseudolabelBundle:
    entries = tuple(PseudolabelSet(item["category"], item["indices"])
                    for item in payload["entries"])
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
        self._awaiting_register = 0
        self._open: set[socket.socket] = set()
        self._over = False
        self._deadline = 0.0
        self.transcript: list = []
        # The barrier reaches the coordinator through a weak reference: a bound
        # method would make a reference cycle, and a finished coordinator, with
        # its transcript, would then live until the next full collection.
        aggregate_once = weakref.WeakMethod(self._aggregate_once)
        self._barrier = threading.Barrier(settings.n_participants,
                                          action=lambda: aggregate_once()())

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
            try:
                register = stream.recv()
            finally:
                with self._lock:
                    self._awaiting_register -= 1
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
            outside = np.setdiff1d(labels, np.array(space.categories, dtype=np.int64))
            if len(outside):
                raise ProtocolError(
                    f"participant {pid} predicted categories {outside.tolist()[:5]} "
                    f"outside its declared label space")
            with self._lock:
                self._predictions[pid] = labels

            remaining = max(self._deadline - time.monotonic(), 0.01)
            self._barrier.wait(timeout=remaining)
            entries = entries_payload(self._bundles[pid].entries)
            stream.send(Message("BUNDLE", {"participant_id": pid, "entries": entries}))
            stream.send(Message("BYE", {}))
        except threading.BrokenBarrierError:
            reason = self._abort_reason or "timed out waiting for stragglers"
            stream.try_send_error(f"round aborted: {reason}")
        except (ProtocolError, socket.timeout, OSError, ValueError) as exc:
            reason = self._abort_reason
            if self._over and (reason is not None or participant is None):
                # serve ended this read: the round aborted, or it completed without
                # this unregistered connection (a registered one's failure aborts)
                stream.try_send_error(f"round aborted: {reason}" if reason is not None
                                      else "round already completed")
                return
            stream.try_send_error(str(exc))
            if participant is not None:
                # a registered participant failed: the round cannot complete
                self._abort(str(exc))
        except Exception as exc:
            # a coordinator defect: report its real cause and end the round
            # rather than let the exception kill this thread
            log.exception("coordinator handler for %s failed", peer)
            reason = f"{type(exc).__name__}: {exc}"
            stream.try_send_error(reason)
            self._abort(reason)
        finally:
            with self._lock:
                self._open.discard(conn)
                stream.close()

    def _end_reads(self):
        """Wake every handler still blocked on a read once the round is over."""
        with self._lock:
            self._over = True
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass

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
                peer = f"{addr[0]}:{addr[1]}"
                # room for every participant at once, and as many strays again
                cap = 2 * self.settings.n_participants
                with self._lock:
                    admitted = self._awaiting_register < cap
                    if admitted:
                        self._awaiting_register += 1
                        self._open.add(conn)
                if not admitted:
                    # a thread would wait up to timeout_s for this REGISTER line
                    stream = MessageStream(conn, transcript=self.transcript,
                                           transcript_lock=self._transcript_lock, peer=peer)
                    stream.try_send_error(f"coordinator busy: {cap} connections already "
                                          f"awaiting REGISTER")
                    stream.close()
                    continue
                thread = threading.Thread(target=self._handle, args=(conn, peer), daemon=True)
                thread.start()
                threads.append(thread)
            else:
                self._abort("timed out waiting for stragglers")
            self._end_reads()
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
    dataset-hash mismatch, coordinator-reported errors, or connection loss,
    and RoundError naming the phase when a learner fails.
    """
    if len(train) == 0:
        raise ProtocolError(
            f"participant {participant_id} has an empty local dataset; refusing to register")

    participant = Participant(participant_id, kind, label_space, train, test, public, config)
    vector = participant.vote()

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

    baseline = participant.baseline()
    local_accuracy = baseline[1]
    _, federated_accuracy = participant.update(bundle, baseline)
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
