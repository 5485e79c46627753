"""Coordinator service and participant client over a TCP wire protocol.

One JSON object per line, UTF-8, newline-delimited, with sorted keys and no
spaces:

    {"kind":"<KIND>","payload":{...},"v":2}

Kinds and payloads:

* ``REGISTER``      {participant_id, label_space: ints, train_size}
* ``REGISTER_ACK``  {participant_id, n_participants, unlabeled_size,
                     dataset_sha256}
* ``PREDICTIONS``   {participant_id, labels: ints of length unlabeled_size}
* ``BUNDLE``        {participant_id, entries: [{category, indices: ints}]}
* ``ERROR``         {text}
* ``BYE``           {}

An int array (``label_space``, ``labels``, ``indices``) is one JSON string on
the wire, its *array text*, and a read-only int64 array in memory, on both
sides. The text is a width digit, ``1``, ``2``, ``4`` or ``8``: the fewest
bytes that hold every value as a signed integer, then standard padded base64
of the values as little-endian signed integers of that width; ``[0, 1, 2, 3]``
is ``"1AAECAw=="``. ``Message.encode`` is one ``json.dumps`` whose hook,
``array_text``, writes each array, and ``decode_line`` turns each text back
into an array in one step, so neither side builds a Python int per value. A
line of another protocol version is refused before its payload is read. Each
connection keeps a transcript of each message's payload as it was sent or
decoded, arrays included; the coordinator's round transcript is its
connections' one after another, registered participants in id order first.
Category ids lie in ``[0, domain.CATEGORY_LIMIT)`` and indices below U, so
``line_cap(U)`` bounds every line ``Message.encode`` writes in a legal round
over U public rows; both sides refuse a longer line with a ProtocolError.

The coordinator never transmits instances: the public dataset is published
out-of-band as a file whose content hash rides in REGISTER_ACK so clients can
verify alignment, and bundles reference public-dataset indices only. Messages
therefore carry nothing but category ids, indices, and metadata - no feature
values from any local dataset ever appear on the wire.

The coordinator serves the round from one thread: a ``selectors`` loop over
the listener and every connection, whose timeout is the round's deadline. It
checks each REGISTER's label space against the category bound, and each
prediction vector against its sender's label space with the vote's own per-row
check (``aggregation.vote_positions``, one table lookup per vote), as it
arrives, so a bad id or vote is reported at once rather than after the last
one. It aggregates exactly once, after all N prediction vectors arrive, then
sends each participant only its own bundle, queued until the socket takes it,
so a peer that stops reading holds back no one else. A straggler timeout, a
duplicate registration of a live participant id, a malformed line, a
prediction outside the declared label space, a participant that hangs up or
sends an ERROR (``join`` does, naming a public-dataset mismatch), or one that
has not read its bundle by the deadline aborts or rejects per the error
contract. At most 2N connections may wait for their REGISTER line at
once; one more is told so in an ERROR and closed. Once the round is over,
every connection still open is told so, with the cause, in an ERROR and
closed, and ``serve`` returns.

``join`` runs the same participant step as the in-process round,
``orchestrator.Participant``: it votes before connecting and retrains once
the bundle has arrived, so wire and in-process participants agree. It returns
the in-process round's record, a ``JoinResult`` being an
``orchestrator.ParticipantReport`` that also holds the bundle and transcript.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import math
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .aggregation import (AggregationError, CredibilityWeights, PseudolabelBundle,
                          PseudolabelSet, vote_positions)
# Unused here (coordinate and Participant call them); kept for the benchmark tracer.
from .aggregation import aggregate, aggregate_weighted, build_bundle, remove_global_conflicts
from .domain import CATEGORY_LIMIT, DomainError, LabeledDataset, LabelSpace, UnlabeledDataset
from .learners import TrainConfig
from .learners import evaluate, pseudolabel, train_local, update_train
from .orchestrator import Participant, ParticipantReport, coordinate

log = logging.getLogger(__name__)

PROTOCOL_VERSION = 2
DEFAULT_COORDINATOR_TIMEOUT = 60.0
DEFAULT_CLIENT_TIMEOUT = 120.0


class ProtocolError(RuntimeError):
    """Wire-level failure: malformed message, version mismatch, contract breach."""


# Strict payload schemas: field name -> parser. A parser returns the field's
# in-memory value, or None when the decoded value has the wrong type or range
# (no field takes null). Unknown fields are rejected, so a schema pass proves a
# message carries only ids, indices, sizes, and text - never feature vectors.
# Integers must fit in int64; an array text becomes a read-only int64 array.
def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and -2 ** 63 <= v < 2 ** 63


def _int(v):
    return v if _is_int(v) else None


def _text(v):
    return v if isinstance(v, str) else None


# The width digits, from an explicit table so that no other digit passes
# (``int`` would take a Unicode one).
_WIDTHS = {"1": 1, "2": 2, "4": 4, "8": 8}


def _int_array(v):
    width = _WIDTHS.get(v[:1]) if isinstance(v, str) else None
    if width is None:
        return None
    try:
        # refuses a character outside the alphabet, whitespace and missing padding
        raw = base64.b64decode(v[1:], validate=True)
    except ValueError:
        return None
    if len(raw) % width:
        return None
    values = np.frombuffer(raw, f"<i{width}").astype(np.int64)
    values.flags.writeable = False
    return values


def _bundle_entries(v):
    if not isinstance(v, list):
        return None
    entries = []
    for item in v:
        if not isinstance(item, dict) or set(item) != {"category", "indices"}:
            return None
        indices = _int_array(item["indices"])
        if not _is_int(item["category"]) or indices is None:
            return None
        entries.append({"category": item["category"], "indices": indices})
    return entries


MESSAGE_SCHEMAS = {
    "REGISTER": {"participant_id": _int, "label_space": _int_array, "train_size": _int},
    "REGISTER_ACK": {"participant_id": _int, "n_participants": _int,
                     "unlabeled_size": _int, "dataset_sha256": _text},
    "PREDICTIONS": {"participant_id": _int, "labels": _int_array},
    "BUNDLE": {"participant_id": _int, "entries": _bundle_entries},
    "ERROR": {"text": _text},
    "BYE": {},
}


def _narrowest_width(lo: int, hi: int) -> int:
    """The fewest bytes, of 1, 2, 4 and 8, that hold every integer in [lo, hi] signed."""
    return next(w for w in (1, 2, 4, 8) if -(1 << 8 * w - 1) <= lo and hi < 1 << 8 * w - 1)


def array_text(values: np.ndarray) -> str:
    """The array text of a 1-D int64 array, as ``json.dumps``'s ``default`` hook.

    The text is the narrowest width that holds every value, as one digit,
    then standard padded base64 of the values as little-endian signed
    integers of that width. An empty array is ``"1"``. Any other value,
    an array of another dtype or shape included, raises TypeError.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1):
        raise TypeError(f"{type(values).__name__} is not a 1-D int64 array")
    width = _narrowest_width(int(values.min()), int(values.max())) if len(values) else 1
    return f"{width}{base64.b64encode(values.astype(f'<i{width}').tobytes()).decode('ascii')}"


@dataclass(frozen=True, eq=False)
class Message:
    """One wire message; two are equal when they encode to the same bytes."""

    kind: str
    payload: dict
    v: int = PROTOCOL_VERSION

    def encode(self) -> bytes:
        return json.dumps({"v": self.v, "kind": self.kind, "payload": self.payload},
                          sort_keys=True, separators=(",", ":"),
                          default=array_text).encode() + b"\n"

    def __eq__(self, other):
        if not isinstance(other, Message):
            return NotImplemented
        return self.encode() == other.encode()


def validate_message(doc) -> Message:
    """Parse and schema-check one decoded JSON object.

    The version is checked before the payload, so a peer of another version is
    told that, whatever its payload holds. The message's payload is a new
    dict, with each array text as a read-only int64 array; ``doc`` is left as
    it was.
    """
    if not isinstance(doc, dict) or set(doc) != {"v", "kind", "payload"}:
        raise ProtocolError("message must have exactly the fields v, kind, payload")
    if not _is_int(doc["v"]):
        raise ProtocolError("protocol version must be an integer")
    if doc["v"] != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version mismatch: this side speaks "
                            f"{PROTOCOL_VERSION}, the peer sent {doc['v']}")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in MESSAGE_SCHEMAS:
        raise ProtocolError(f"unknown message kind {kind!r}")
    payload = doc["payload"]
    schema = MESSAGE_SCHEMAS[kind]
    if not isinstance(payload, dict) or set(payload) != set(schema):
        raise ProtocolError(
            f"{kind} payload must have exactly the fields {sorted(schema)}"
        )
    parsed = {}
    for name, parse in schema.items():
        parsed[name] = parse(payload[name])
        if parsed[name] is None:
            raise ProtocolError(f"{kind} payload field {name!r} has the wrong type or range")
    return Message(kind=kind, payload=parsed, v=doc["v"])


def decode_line(line: bytes) -> Message:
    try:
        doc = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer literals;
        # RecursionError covers nesting deeper than the parser allows.
        raise ProtocolError(f"could not parse message line: {exc}") from None
    return validate_message(doc)


def line_cap(unlabeled_size: int) -> int:
    """A bound on a legal line's length, without its newline, over ``unlabeled_size`` rows.

    A REGISTER holds each category id once at most, a PREDICTIONS line one id
    per row, and a BUNDLE one entry per id and each row's index once at most.
    An id is below ``CATEGORY_LIMIT`` = 2**15, so its array text takes 2
    bytes a value; an index is below ``unlabeled_size``. Base64 writes 4
    characters for each 3 bytes; each array text adds its width digit and at
    most 3 characters of padding, and 256 bytes cover any message's names,
    int fields or short text. At 10**5 rows this is 1.63 MiB, set by the
    BUNDLE, whose 32,768 entry frames outweigh its 4-byte indices.
    """
    def text(n_bytes):  # an array text of n_bytes bytes, with its quotes
        return 3 + 4 * -(-n_bytes // 3)

    id_bytes = _narrowest_width(0, CATEGORY_LIMIT - 1)
    index_bytes = _narrowest_width(0, unlabeled_size - 1)
    # one entry's frame: its category's digits, and its text's quotes, width digit and padding
    entry = len('{"category":,"indices":},') + len(str(CATEGORY_LIMIT - 1)) + text(0) + 3
    return 256 + max(
        text(CATEGORY_LIMIT * id_bytes),  # REGISTER
        text(unlabeled_size * id_bytes),  # PREDICTIONS
        CATEGORY_LIMIT * entry + -(-4 * unlabeled_size * index_bytes // 3))  # BUNDLE


class MessageStream:
    """Newline-framed message I/O over one socket, and the transcript of what it carried.

    ``transcript`` holds every message sent or read, in that order, as
    ``{"direction": "send" or "recv", "message": {v, kind, payload}}``. A line
    longer than ``max_line`` bytes, not counting its newline, is a
    ProtocolError. Received bytes are scanned for a newline once each.
    """

    def __init__(self, sock: socket.socket, max_line: int):
        self.sock = sock
        self.max_line = max_line
        self.buffer = bytearray()
        self.lines: list[bytearray] = []
        self.transcript: list[dict] = []

    def _record(self, direction: str, message: Message):
        self.transcript.append({"direction": direction, "message": {
            "v": message.v, "kind": message.kind, "payload": message.payload}})

    def send(self, message: Message):
        self._record("send", message)
        self.sock.sendall(message.encode())

    def feed(self, chunk: bytes) -> list[bytearray]:
        """The whole lines that ``chunk`` completes, without their newlines.

        The bytes after the last newline wait in ``buffer`` for the next chunk.
        """
        start, scanned = 0, len(self.buffer)
        self.buffer += chunk
        lines = []
        end = self.buffer.find(b"\n", scanned)
        while end >= 0 and end - start <= self.max_line:
            lines.append(self.buffer[start:end])
            start = end + 1
            end = self.buffer.find(b"\n", start)
        del self.buffer[:start]
        if end >= 0 or len(self.buffer) > self.max_line:
            raise ProtocolError(f"message line exceeds {self.max_line} bytes")
        return lines

    def recv(self) -> Message:
        while not self.lines:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ProtocolError("connection closed mid-message")
            self.lines += self.feed(chunk)
        message = decode_line(self.lines.pop(0))
        self._record("recv", message)
        return message

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class CoordinatorSettings:
    """What one round runs with, refused when built if the round could not run with it.

    Each refusal has the text the vote or ``--timeout`` gives, so a bad setting
    is named before anyone joins rather than after every participant has voted.
    """

    n_participants: int
    alpha: float
    unlabeled_size: int
    dataset_sha256: str
    weights: CredibilityWeights | None = None
    global_conflict_removal: bool = False
    timeout_s: float = DEFAULT_COORDINATOR_TIMEOUT

    def __post_init__(self):
        if self.n_participants < 1:
            raise ValueError("need at least one participant")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.unlabeled_size < 1:
            raise ValueError("public dataset size must be >= 1")
        if self.weights is not None and len(self.weights) != self.n_participants:
            raise ValueError(f"{len(self.weights)} weights for {self.n_participants} participants")
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError(f"timeout_s: expected a finite number > 0, got {self.timeout_s}")


@dataclass
class ServeResult:
    """How the round ended, and what it produced.

    ``transcript`` is every connection's transcript, one connection after
    another: registered participants in id order, then every other connection
    in the order it was accepted. A completed round also has ``label_spaces``,
    the spaces the participants registered, in id order.
    """

    status: str
    bundles: dict[int, PseudolabelBundle] = field(default_factory=dict)
    pseudo_sets: dict[int, PseudolabelSet] = field(default_factory=dict)
    label_spaces: list[LabelSpace] = field(default_factory=list)
    transcript: list = field(default_factory=list)


def entries_payload(sets: Iterable[PseudolabelSet]) -> list[dict]:
    """The payload form of index sets: a BUNDLE's entries, one dumped record each."""
    return [{"category": s.category, "indices": s.indices} for s in sets]


def bundle_from_payload(payload: dict, label_space: LabelSpace,
                        public_size: int) -> PseudolabelBundle:
    """The bundle a BUNDLE payload carries, checked against its receiver.

    Raises ProtocolError naming the fault when an entry is malformed, names a
    category outside ``label_space`` or indexes past the public dataset, or
    when the entries do not form a bundle. Every index is checked against the
    public dataset before the bundle's disjointness check sizes a table by it.
    """
    try:
        entries = tuple(PseudolabelSet(item["category"], item["indices"])
                        for item in payload["entries"])
        for entry in entries:
            if entry.category not in label_space:
                raise ProtocolError(
                    f"coordinator sent a bundle for category {entry.category}, outside "
                    f"the label space {list(label_space.categories)}")
            # each set is ascending, so its last index is its largest
            if len(entry) and entry.indices[-1] >= public_size:
                raise ProtocolError(
                    f"coordinator sent a bundle with index {entry.indices[-1]} for category "
                    f"{entry.category}, outside the public dataset of {public_size} rows")
        return PseudolabelBundle(owner=payload["participant_id"], entries=entries)
    except (AggregationError, DomainError) as exc:
        raise ProtocolError(f"coordinator sent a malformed bundle: {exc}") from None


class _Connection(MessageStream):
    """A coordinator's connection: its participant, the message it awaits, and its unsent output.

    ``state`` is "REGISTER", "PREDICTIONS" or "BUNDLE" while the connection is
    in the round, and "DONE" once it is owed nothing but its queued output.
    ``pid`` and ``space`` are set by its REGISTER, and ``labels`` by its
    PREDICTIONS.
    """

    def __init__(self, sock: socket.socket, max_line: int, peer: str):
        super().__init__(sock, max_line)
        self.peer = peer
        self.state = "REGISTER"
        self.pid: int | None = None
        self.space: LabelSpace | None = None
        self.labels: np.ndarray | None = None
        self.out = bytearray()

    def queue(self, message: Message):
        self._record("send", message)
        self.out += message.encode()

    def finish(self, text: str):
        self.state = "DONE"
        self.queue(Message("ERROR", {"text": text}))

    def flush(self):
        del self.out[:self.sock.send(self.out)]


class Coordinator:
    """Runs one aggregation round for N remote participants, in the thread that serves."""

    def __init__(self, settings: CoordinatorSettings):
        self.settings = settings
        self.listener: socket.socket | None = None
        self._accepted: list[_Connection] = []  # every connection, in accept order
        self._members: dict[int, _Connection] = {}  # participant id -> its connection
        self._bundles: dict[int, PseudolabelBundle] = {}
        self._pseudo_sets: dict[int, PseudolabelSet] = {}
        self._abort_reason: str | None = None
        self._selector: selectors.BaseSelector | None = None

    def bind(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self.listener = socket.create_server((host, port))
        self.listener.setblocking(False)
        return self.listener.getsockname()[:2]

    def _connections(self) -> list[_Connection]:
        return [key.data for key in self._selector.get_map().values() if key.data is not None]

    def _over(self) -> bool:
        """Whether the round has aborted, or every participant's bundle is written."""
        return self._abort_reason is not None or bool(self._bundles) and all(
            conn.pid is None for conn in self._connections())

    def _accept(self):
        try:
            sock, addr = self.listener.accept()
        except (BlockingIOError, ConnectionAbortedError):
            return  # the peer left before it was accepted
        sock.setblocking(False)
        awaiting = sum(conn.state == "REGISTER" for conn in self._connections())
        conn = _Connection(sock, line_cap(self.settings.unlabeled_size), f"{addr[0]}:{addr[1]}")
        self._accepted.append(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        # room for every participant at once, and as many strays again
        cap = 2 * self.settings.n_participants
        if awaiting >= cap:
            conn.finish(f"coordinator busy: {cap} connections already awaiting REGISTER")

    def _service(self, conn: _Connection, events: int):
        """Write what ``conn``'s socket takes, then read and act on what it sent."""
        try:
            if events & selectors.EVENT_WRITE:
                conn.flush()
            if events & selectors.EVENT_READ and conn.state != "DONE":
                chunk = conn.sock.recv(65536)
                if not chunk:
                    raise ProtocolError("connection closed mid-message")
                for line in conn.feed(chunk):
                    if conn.state == "DONE":
                        break
                    self._step(conn, decode_line(line))
            return
        except BlockingIOError:
            return  # readiness can be spurious
        except (ProtocolError, OSError, ValueError) as exc:
            # only a registered participant's failure ends the round
            reason, abort = str(exc), conn.pid is not None
        except Exception as exc:
            # a coordinator defect: report its real cause and end the round
            log.exception("coordinator step for %s failed", conn.peer)
            reason, abort = f"{type(exc).__name__}: {exc}", True
        if conn.state == "DONE":
            conn.out.clear()  # its socket failed: nothing more can be written
        else:
            conn.finish(reason)
        if abort:
            self._abort_reason = reason

    def _step(self, conn: _Connection, message: Message):
        """Check one message from ``conn`` against the one it awaits, and act on it."""
        conn._record("recv", message)
        n, pid = self.settings.n_participants, conn.pid
        if message.kind == "ERROR" and pid is not None:  # a participant leaving says why
            raise ProtocolError(f"participant {pid}: {message.payload['text']}")
        if conn.state == "REGISTER":
            if message.kind != "REGISTER":
                raise ProtocolError(f"expected REGISTER, got {message.kind}")
            pid = message.payload["participant_id"]
            if not 0 <= pid < n:
                raise ProtocolError(f"participant id {pid} outside [0, {n})")
            if message.payload["train_size"] < 1:
                raise ProtocolError(f"participant {pid} registered an empty local dataset")
            space = LabelSpace(tuple(message.payload["label_space"].tolist()))
            if pid in self._members:
                raise ProtocolError(f"participant {pid} is already registered")
            self._members[pid] = conn
            conn.pid, conn.space, conn.state = pid, space, "PREDICTIONS"
            conn.queue(Message("REGISTER_ACK", {
                "participant_id": pid,
                "n_participants": n,
                "unlabeled_size": self.settings.unlabeled_size,
                "dataset_sha256": self.settings.dataset_sha256,
            }))
            return
        if conn.state != "PREDICTIONS":
            raise ProtocolError(f"expected no message before BUNDLE, got {message.kind}")
        if message.kind != "PREDICTIONS":
            raise ProtocolError(f"expected PREDICTIONS, got {message.kind}")
        if message.payload["participant_id"] != pid:
            raise ProtocolError("PREDICTIONS participant id does not match REGISTER")
        labels = message.payload["labels"]
        if len(labels) != self.settings.unlabeled_size:
            raise ProtocolError(
                f"prediction vector length {len(labels)} != announced "
                f"{self.settings.unlabeled_size}")
        bad = vote_positions(labels, conn.space) < 0
        if bad.any():
            outside = np.unique(labels[bad])[:5].tolist()
            raise ProtocolError(f"participant {pid} predicted categories {outside} "
                                f"outside its declared label space")
        conn.labels, conn.state = labels, "BUNDLE"
        if sum(member.labels is not None for member in self._members.values()) < n:
            return
        members = [self._members[i] for i in range(n)]
        pseudo_sets, bundles = coordinate(
            [m.labels for m in members], [m.space for m in members],
            self.settings.alpha, self.settings.unlabeled_size, self.settings.weights,
            self.settings.global_conflict_removal)
        self._pseudo_sets = pseudo_sets
        self._bundles = dict(enumerate(bundles))
        for member, bundle in zip(members, bundles):
            member.state = "DONE"
            member.queue(Message("BUNDLE", {"participant_id": member.pid,
                                            "entries": entries_payload(bundle.entries)}))
            member.queue(Message("BYE", {}))

    def serve(self) -> ServeResult:
        """Accept connections and run the round to completion or abort, in this thread."""
        if self.listener is None:
            self.bind()
        deadline = time.monotonic() + self.settings.timeout_s
        self._selector = selectors.DefaultSelector()
        try:
            self._selector.register(self.listener, selectors.EVENT_READ)
            while not self._over():
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    late = sorted(conn.pid for conn in self._connections()
                                  if conn.pid is not None)
                    self._abort_reason = (f"timed out sending bundles to participants {late}"
                                          if self._bundles else "timed out waiting for stragglers")
                    break
                for key, events in self._selector.select(timeout):
                    if self._abort_reason is not None:
                        break
                    if key.data is None:
                        self._accept()
                    else:
                        self._service(key.data, events)
                for conn in self._connections():
                    events = ((selectors.EVENT_READ if conn.state != "DONE" else 0)
                              | (selectors.EVENT_WRITE if conn.out else 0))
                    if events:
                        self._selector.modify(conn.sock, events, conn)
                    else:
                        self._selector.unregister(conn.sock)
                        conn.close()
            # the one place that tells every connection still in the round why it is over
            reason = self._abort_reason
            for conn in self._connections():
                if conn.state != "DONE":
                    conn.finish("round already completed" if reason is None
                                else f"round aborted: {reason}")
        finally:
            for conn in self._connections():
                try:
                    conn.flush()
                except OSError:
                    pass
                conn.close()
            self._selector.close()
            self.listener.close()
        # registered participants in id order, then every other connection as accepted
        order = sorted(self._accepted, key=lambda conn: (conn.pid is None, conn.pid or 0))
        transcript = [entry for conn in order for entry in conn.transcript]
        if self._abort_reason is not None:
            return ServeResult(status=f"aborted: {self._abort_reason}", transcript=transcript)
        return ServeResult(status="completed", bundles=dict(self._bundles),
                           pseudo_sets=dict(self._pseudo_sets),
                           label_spaces=[self._members[i].space for i in sorted(self._members)],
                           transcript=transcript)


@dataclass(frozen=True, eq=False)
class JoinResult(ParticipantReport):
    """A participant's report line, plus the bundle it received and its transcript."""

    bundle: PseudolabelBundle
    transcript: list = field(default_factory=list)


def join(address: tuple[str, int], *, participant_id: int, kind: str,
         label_space: LabelSpace, train: LabeledDataset, test: LabeledDataset,
         public: UnlabeledDataset, public_sha256: str, config: TrainConfig,
         timeout_s: float = DEFAULT_CLIENT_TIMEOUT) -> JoinResult:
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
    # the transcript keeps the arrays sent, so they are read-only like those received
    vector = participant.vote()
    vector.flags.writeable = False
    categories = np.array(label_space.categories, dtype=np.int64)
    categories.flags.writeable = False

    try:
        sock = socket.create_connection(address, timeout=timeout_s)
    except OSError as exc:
        raise ProtocolError(
            f"could not reach coordinator at {address[0]}:{address[1]}: {exc}") from None
    stream = MessageStream(sock, line_cap(len(public)))
    try:
        stream.send(Message("REGISTER", {
            "participant_id": participant_id,
            "label_space": categories,
            "train_size": len(train),
        }))
        ack = stream.recv()
        if ack.kind == "ERROR":
            raise ProtocolError(f"coordinator rejected registration: {ack.payload['text']}")
        if ack.kind != "REGISTER_ACK":
            raise ProtocolError(f"expected REGISTER_ACK, got {ack.kind}")
        mismatch = None
        if ack.payload["unlabeled_size"] != len(public):
            mismatch = (f"public dataset size mismatch: coordinator announced "
                        f"{ack.payload['unlabeled_size']}, local file has {len(public)}")
        elif ack.payload["dataset_sha256"] != public_sha256:
            mismatch = ("public dataset hash mismatch: coordinator announced "
                        f"{ack.payload['dataset_sha256'][:12]}..., local file hashes to "
                        f"{public_sha256[:12]}...")
        if mismatch is not None:
            stream.send(Message("ERROR", {"text": mismatch}))  # so the round names the cause
            raise ProtocolError(mismatch)

        stream.send(Message("PREDICTIONS", {
            "participant_id": participant_id,
            "labels": vector,
        }))
        reply = stream.recv()
        if reply.kind == "ERROR":
            raise ProtocolError(f"coordinator error: {reply.payload['text']}")
        if reply.kind != "BUNDLE":
            raise ProtocolError(f"expected BUNDLE, got {reply.kind}")
        if reply.payload["participant_id"] != participant_id:
            raise ProtocolError("received a bundle addressed to another participant")
        bundle = bundle_from_payload(reply.payload, label_space, len(public))
    finally:
        stream.close()

    baseline = participant.baseline()
    _, federated_accuracy = participant.update(bundle, baseline)
    return JoinResult(participant=participant_id, learner=kind, train_size=len(train),
                      bundle_size=len(bundle), local_accuracy=baseline[1],
                      federated_accuracy=federated_accuracy, bundle=bundle,
                      transcript=stream.transcript)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
