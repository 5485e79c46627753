"""Span tracing for the fedcotrain benchmark, installed from outside the package.

The tracer wraps the names that ``fedcotrain.orchestrator`` and
``fedcotrain.netproto`` import from the other layers, plus the wire-format
methods, by rebinding module and class attributes. Nothing under ``src/``
knows it is being traced. ``uninstall`` restores every original, so traced
and untraced rounds can alternate in one process and the difference between
them is the tracing overhead.

A span is (name, start, end, parent, round, thread). Parents come from a
per-thread stack; a span opened on a thread with an empty stack (a wire
handler or client thread) has no parent. Spans stay in memory until
``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
import tracemalloc
from dataclasses import dataclass

import fedcotrain.netproto as netproto
import fedcotrain.orchestrator as orchestrator

# Per-layer metrics: name -> (unit, the end-to-end metrics it should move, and
# on which workloads). Every traced run prints all of them; a workload reports
# 0 for a layer it never enters, and the prediction there is "no change".
_RD, _VS, _WR = "round-default", "vote-scale", "wire-round"
LAYER_METRICS = {
    "domain.build_round_data_s": ("s", ("setup_s",), (_RD, _WR)),
    **{
        f"learners.{phase}_s.{kind}": ("s", ("round_s",), (on,))
        for phase in ("train_local", "pseudolabel", "update_train", "evaluate")
        for kind, on in (("knn", _RD), ("mlp", _RD), ("gnb", _WR))
    },
    "learners.fit_rows": ("count", ("round_s",), (_RD, _WR)),
    "learners.predict_rows": ("count", ("round_s",), (_RD, _WR)),
    "aggregation.aggregate_s": ("s", ("round_s", "votes_per_s"), (_VS,)),
    "aggregation.aggregate_weighted_s": ("s", ("round_s",), (_WR,)),
    "aggregation.remove_global_conflicts_s": ("s", ("round_s",), (_WR,)),
    "aggregation.build_bundle_s": ("s", ("round_s", "votes_per_s"), (_VS, _WR)),
    "aggregation.vote_s": ("s", ("round_s", "votes_per_s"), (_VS, _WR)),
    "aggregation.aggregate_peak_mb": ("MB", ("peak_rss_mb",), (_VS,)),
    "aggregation.votes": ("count", ("votes_per_s",), (_VS, _WR)),
    "aggregation.admitted": ("count", ("round_s",), (_VS, _WR)),
    "aggregation.conflicts_dropped": ("count", ("round_s",), (_VS, _WR)),
    "aggregation.bundle_yield": ("ratio", ("round_s",), (_VS, _WR)),
    "netproto.encode_s": ("s", ("round_s",), (_WR,)),
    "netproto.decode_s": ("s", ("round_s",), (_WR,)),
    "netproto.recv_wait_s": ("s", ("round_s",), (_WR,)),
    "netproto.serve_s": ("s", ("round_s",), (_WR,)),
    "netproto.messages": ("count", ("wire_bytes",), (_WR,)),
    "netproto.bytes_up": ("B", ("wire_bytes",), (_WR,)),
    "netproto.bytes_down": ("B", ("wire_bytes",), (_WR,)),
    "orchestrator.run_round_s": ("s", ("round_s",), (_RD,)),
    "orchestrator.self_s": ("s", ("round_s",), (_RD,)),
}

# The wrapped names, by the module that imported them, and the layer each
# span is charged to in the self-time summary.
_LEARNER_PHASES = ("train_local", "pseudolabel", "update_train", "evaluate")
_AGGREGATION_CALLS = ("aggregate", "aggregate_weighted", "remove_global_conflicts",
                      "build_bundle")
_WRAPPED_FUNCTIONS = {
    orchestrator: _LEARNER_PHASES + _AGGREGATION_CALLS + ("build_round_data",),
    netproto: _LEARNER_PHASES + _AGGREGATION_CALLS + ("decode_line",),
}
_LAYER_OF = {
    **{name: "learners" for name in _LEARNER_PHASES},
    **{name: "aggregation" for name in _AGGREGATION_CALLS},
    "build_round_data": "domain",
    "decode_line": "netproto",
    "encode": "netproto",
    "recv": "netproto",
    "serve": "netproto",
    "run_round": "orchestrator",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    round: int | None
    thread: str
    kind: str | None = None


class Tracer:
    """Collects spans and per-layer counts for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {"aggregation.votes": 0, "aggregation.admitted": 0,
                       "aggregation.conflicts_dropped": 0, "aggregation.bundle_indices": 0,
                       "aggregation.restricted_admitted": 0, "learners.fit_rows": 0,
                       "learners.predict_rows": 0}
        self.vote_peak_mb = 0.0
        self._last_vote = None
        self.round: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- span recording -------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, kind: str | None = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start - self._t0, end - self._t0, parent,
                                   self.round, threading.current_thread().name, kind))

    def add(self, counter: str, amount: float):
        with self._lock:
            self.counts[counter] += amount

    # -- installing wrappers ----------------------------------------------

    def install(self):
        if self._originals:
            return
        for module, names in _WRAPPED_FUNCTIONS.items():
            for name in names:
                self._patch(module, name, self._wrap(name, getattr(module, name)))
        self._patch(netproto.Message, "encode",
                    self._wrap("encode", netproto.Message.encode))
        self._patch(netproto.MessageStream, "recv",
                    self._wrap("recv", netproto.MessageStream.recv))

    def uninstall(self):
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _patch(self, owner, name, replacement):
        self._originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, name, fn):
        counted = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in ("aggregate", "aggregate_weighted"):
                self._last_vote = (fn, args, kwargs)
            with self.span(name, _learner_kind(name, args)):
                result = fn(*args, **kwargs)
            if counted is not None:
                counted(self, args, result)
            return result

        return traced

    def measure_vote_peak(self):
        """Re-run the last traced vote once under tracemalloc, outside any round.

        tracemalloc slows every allocation, and the vote allocates a Python
        int per admitted index, so measuring inside a timed round would
        inflate that round's vote time several-fold.
        """
        if self._last_vote is None:
            return
        fn, args, kwargs = self._last_vote
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            self.vote_peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    # -- output ---------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "kind": s.kind, "start": s.start,
                    "end": s.end, "parent": s.parent, "round": s.round,
                    "thread": s.thread,
                }, sort_keys=True) + "\n")

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        result = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[s.id] = (s.end - s.start) - covered
        return result

    def summary(self, traced_rounds: list[int]) -> dict:
        """Per-layer metrics, each time given per traced round.

        ``domain.build_round_data_s`` is the exception: on a workload that
        builds its data during set-up it is the mean time of one call.
        """
        rounds = set(traced_rounds)
        n = max(len(rounds), 1)
        self_time = self.self_times()
        in_round = [s for s in self.spans if s.round in rounds]
        metrics = {name: 0.0 for name in LAYER_METRICS}
        by_name: dict[str, float] = {}
        for s in in_round:
            duration = s.end - s.start
            key = f"{s.name}.{s.kind}" if s.kind else s.name
            by_name[key] = by_name.get(key, 0.0) + self_time[s.id]
            if s.name in _LEARNER_PHASES:
                metrics[f"learners.{s.name}_s.{s.kind}"] += duration / n
            elif s.name in _AGGREGATION_CALLS:
                metrics[f"aggregation.{s.name}_s"] += duration / n
                if s.name in ("aggregate", "aggregate_weighted"):
                    metrics["aggregation.vote_s"] += duration / n
            elif s.name == "encode":
                metrics["netproto.encode_s"] += duration / n
            elif s.name == "decode_line":
                metrics["netproto.decode_s"] += duration / n
            elif s.name == "recv":
                metrics["netproto.recv_wait_s"] += self_time[s.id] / n
            elif s.name == "serve":
                metrics["netproto.serve_s"] += duration / n
            elif s.name == "run_round":
                metrics["orchestrator.run_round_s"] += duration / n
                metrics["orchestrator.self_s"] += self_time[s.id] / n
        builds = [s.end - s.start for s in self.spans if s.name == "build_round_data"]
        if builds:
            metrics["domain.build_round_data_s"] = sum(builds) / len(builds)
        for counter in ("aggregation.votes", "aggregation.admitted",
                        "aggregation.conflicts_dropped", "learners.fit_rows",
                        "learners.predict_rows"):
            metrics[counter] = self.counts[counter] / n
        restricted = self.counts["aggregation.restricted_admitted"]
        metrics["aggregation.bundle_yield"] = (
            self.counts["aggregation.bundle_indices"] / restricted if restricted else 1.0)
        metrics["aggregation.aggregate_peak_mb"] = self.vote_peak_mb
        layer_self = {}
        for key, seconds in by_name.items():
            layer = _LAYER_OF[key.split(".")[0]]
            layer_self[layer] = layer_self.get(layer, 0.0) + seconds / n
        return {"metrics": metrics,
                "self_s_per_round": {k: v / n for k, v in sorted(by_name.items())},
                "layer_self_s_per_round": dict(sorted(layer_self.items()))}


def _learner_kind(name: str, args: tuple) -> str | None:
    if name in ("train_local", "update_train"):
        return args[0]
    if name in ("pseudolabel", "evaluate"):
        return args[0].kind
    return None


def _count_fit(tracer: Tracer, args, result):
    rows = len(args[2])
    if len(args) > 3 and hasattr(args[3], "entries"):
        rows += len(args[3])
    tracer.add("learners.fit_rows", rows)


def _count_predict(tracer: Tracer, args, result):
    tracer.add("learners.predict_rows", len(args[1]))


def _count_vote(tracer: Tracer, args, result):
    predictions = args[0]
    tracer.add("aggregation.votes", sum(len(p) for p in predictions))
    tracer.add("aggregation.admitted", sum(len(s) for s in result.values()))


def _count_global_conflicts(tracer: Tracer, args, result):
    before = sum(len(s) for s in args[0].values())
    tracer.add("aggregation.conflicts_dropped", before - sum(len(s) for s in result.values()))


def _count_bundle(tracer: Tracer, args, result):
    pseudo_sets, space = args[0], args[1]
    restricted = sum(len(pseudo_sets[c]) for c in space if c in pseudo_sets)
    tracer.add("aggregation.restricted_admitted", restricted)
    tracer.add("aggregation.bundle_indices", len(result))
    tracer.add("aggregation.conflicts_dropped", restricted - len(result))


_COUNTERS = {
    "train_local": _count_fit,
    "update_train": _count_fit,
    "pseudolabel": _count_predict,
    "evaluate": _count_predict,
    "aggregate": _count_vote,
    "aggregate_weighted": _count_vote,
    "remove_global_conflicts": _count_global_conflicts,
    "build_bundle": _count_bundle,
}
