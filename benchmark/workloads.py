"""The three benchmark workloads, each a closed loop of rounds.

One caller runs rounds back to back; a round starts when the previous one has
finished. Every workload builds its inputs from the workload seed and splits
a round into ``prepare`` (make this round's inputs, untimed), ``run`` (timed)
and ``check`` (correctness, untimed). ``ready`` is the set-up a user pays
before the first round, which ``setup_probe.py`` times in a fresh process.

Round time depends on the master seed (bundle sizes set the update-fit and
evaluation cost), so the seeded workloads draw a fresh master seed for every
round: a run's median then averages over many seeds instead of a few. The
first seed runs twice, so every run checks that a repeat is identical.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

import fedcotrain as fc
from fedcotrain import aggregation, netproto, orchestrator

# The shape each workload runs (BENCHMARK.json says why it was chosen);
# ``run.py`` writes both next to the results.
SHAPES = {
    "round-default": {
        "participants": 10, "categories": 10, "public_size": 2000,
        "learners": "knn k=3,5,7 + mlp, cycled", "weights": "none (unweighted vote)",
        "alpha": 0.3, "mode": "noniid",
        "master_seeds": "one per round from the workload seed; the first runs twice",
    },
    "vote-scale": {
        "participants": 50, "categories": 100, "categories_per_participant": 20,
        "public_size": 100_000, "learners": "none (synthetic votes)",
        "weights": "none (unweighted vote)", "alpha": 0.3,
        "votes": "owner of the true category votes it with p=0.8, "
                 "else a uniform category of its own label space",
    },
    "wire-round": {
        "participants": 2, "categories": 10, "public_size": 100_000,
        "learners": "gnb", "weights": [1.0, 0.5], "alpha": 0.4,
        "global_conflict_removal": True, "mode": "noniid",
        "master_seeds": "one per round from the workload seed; the first runs twice",
        "clients": "2 threads calling netproto.join, 2 connections",
    },
}

SMOKE_SIZES = {
    "round-default": {"participants": 4, "public_size": 200},
    "vote-scale": {"participants": 6, "categories": 12,
                   "categories_per_participant": 4, "public_size": 2000},
    "wire-round": {"participants": 2, "public_size": 2000},
}


def master_seed(seed: int, tag: str, slot: int) -> int:
    """The master seed of round ``slot``; slots 0 and 1 share one."""
    tag_key = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")
    return int(np.random.SeedSequence([seed, tag_key, max(slot - 1, 0)]).generate_state(1)[0])


@dataclass
class Checked:
    """Outcome of one round's checks, plus per-round values that must repeat."""

    failures: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.shape = {**SHAPES[self.name], **(SMOKE_SIZES[self.name] if smoke else {})}
        self.participants = self.shape["participants"]
        self.public_size = self.shape["public_size"]

    @property
    def votes_per_round(self) -> int:
        return self.participants * self.public_size

    def ready(self):
        """The set-up ``setup_s`` times, from a fresh ``import fedcotrain``."""

    def setup(self):
        """Inputs shared by every round, untimed."""

    def prepare(self, slot: int):
        """Make round ``slot``'s inputs, untimed."""

    def run(self, inputs, tracer):
        """Run one round; return (seconds, state for ``check``)."""
        raise NotImplementedError

    def check(self, inputs, state) -> Checked:
        raise NotImplementedError


class RoundDefault(Workload):
    """``run_round(default_config(...))``, one master seed per round."""

    name = "round-default"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.report_sha: dict[int, str] = {}

    def config(self, slot: int):
        return fc.default_config(n_participants=self.participants, mode="noniid",
                                 alpha=0.3, master_seed=master_seed(self.seed, self.name, slot),
                                 unlabeled_size=self.public_size)

    def ready(self):
        orchestrator.build_round_data(self.config(0))

    def prepare(self, slot):
        return self.config(slot)

    def run(self, config, tracer):
        start = time.perf_counter()
        if tracer is None:
            result = fc.run_round(config)
        else:
            with tracer.span("run_round"):
                result = fc.run_round(config)
        return time.perf_counter() - start, result

    def check(self, config, result) -> Checked:
        out = Checked(values={"mean_relative_accuracy": result.report.mean_relative_accuracy})
        # A8: the same config must give a byte-identical report on every repeat.
        digest = hashlib.sha256(result.report.to_jsonl().encode("utf-8")).hexdigest()
        first = self.report_sha.setdefault(config.master_seed, digest)
        if digest != first:
            out.failures.append(f"master seed {config.master_seed}: report sha256 "
                                f"{digest[:12]} differs from the first run's {first[:12]}")
        return out


class VoteScale(Workload):
    """The coordinator step alone on generated votes: aggregate, then bundles."""

    name = "vote-scale"
    alpha = 0.3

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.categories = self.shape["categories"]
        self.per_participant = self.shape["categories_per_participant"]

    def ready(self):
        self._label_spaces(np.random.default_rng(self.seed))

    def _label_spaces(self, rng):
        return [fc.LabelSpace(tuple(sorted(rng.choice(self.categories, self.per_participant,
                                                      replace=False).tolist())))
                for _ in range(self.participants)]

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.spaces = self._label_spaces(rng)
        truth = rng.integers(self.categories, size=self.public_size)
        self.predictions = []
        for space in self.spaces:
            cats = np.asarray(space.categories, dtype=np.int64)
            owns = np.isin(truth, cats)
            honest = rng.random(self.public_size) < 0.8
            noise = cats[rng.integers(len(cats), size=self.public_size)]
            self.predictions.append(np.where(owns & honest, truth, noise))
        self.expected = self._recount()

    def _recount(self) -> dict[int, np.ndarray]:
        """Independent oracle: one chunked bincount over (category, index) pairs."""
        matrix = np.vstack(self.predictions)
        owners = np.zeros(self.categories, dtype=np.int64)
        for space in self.spaces:
            owners[list(space.categories)] += 1
        owned = np.flatnonzero(owners)
        admitted = {int(c): [] for c in owned}
        chunk = 8192
        for lo in range(0, self.public_size, chunk):
            block = matrix[:, lo:lo + chunk]
            width = block.shape[1]
            flat = (block * width + np.arange(width)).ravel()
            counts = np.bincount(flat, minlength=self.categories * width).reshape(
                self.categories, width)
            for c in owned:
                admitted[int(c)].append(lo + np.flatnonzero(counts[c] / owners[c] > self.alpha))
        return {c: np.concatenate(parts) for c, parts in admitted.items()}

    def run(self, inputs, tracer):
        # Call through the names the orchestrator imported, so a tracer sees
        # the same boundaries it sees in a full round.
        start = time.perf_counter()
        pseudo_sets = orchestrator.aggregate(self.predictions, self.spaces, self.alpha,
                                             self.public_size)
        bundles = [orchestrator.build_bundle(pseudo_sets, space, owner=i)
                   for i, space in enumerate(self.spaces)]
        return time.perf_counter() - start, (pseudo_sets, bundles)

    def check(self, inputs, state) -> Checked:
        pseudo_sets, bundles = state
        out = Checked()
        if sorted(pseudo_sets) != sorted(self.expected):
            out.failures.append("admitted categories differ from the recount")
            return out
        for c, expected in self.expected.items():
            if not np.array_equal(np.asarray(pseudo_sets[c].indices, dtype=np.int64), expected):
                out.failures.append(f"category {c}: admitted set differs from the recount")
        for i, (space, bundle) in enumerate(zip(self.spaces, bundles)):
            out.failures.extend(_bundle_problems(i, space, bundle, self.expected))
        return out


def _bundle_problems(owner, space, bundle, admitted) -> list[str]:
    """A bundle must be restricted to its owner's space and conflict-free."""
    problems = []
    if bundle.owner != owner:
        problems.append(f"bundle {owner} is addressed to {bundle.owner}")
    if [e.category for e in bundle.entries] != sorted(space.categories):
        problems.append(f"bundle {owner}: categories are not exactly its label space")
        return problems
    indices = [np.asarray(e.indices, dtype=np.int64) for e in bundle.entries]
    everything = np.concatenate(indices)
    if len(np.unique(everything)) != len(everything):
        problems.append(f"bundle {owner}: an index is labelled with two categories")
    claimed = np.concatenate([admitted[c] for c in space.categories])
    values, counts = np.unique(claimed, return_counts=True)
    single = values[counts == 1]
    for entry, got in zip(bundle.entries, indices):
        want = admitted[entry.category]
        want = want[np.isin(want, single)]
        if not np.array_equal(got, want):
            problems.append(f"bundle {owner} category {entry.category}: "
                            f"{len(got)} indices, expected {len(want)}")
    return problems


class WireRound(Workload):
    """A loopback TCP round: in-process Coordinator, two ``join`` client threads."""

    name = "wire-round"
    timeout_s = 30.0

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.repeats: dict[int, tuple] = {}

    def prepare(self, slot):
        base = fc.default_config(n_participants=self.participants, mode="noniid",
                                 alpha=self.shape["alpha"],
                                 master_seed=master_seed(self.seed, self.name, slot),
                                 unlabeled_size=self.public_size)
        gnb = orchestrator.ParticipantSpec("gnb", orchestrator.DEFAULT_LEARNER_CONFIGS["gnb"])
        config = replace(base, participants=(gnb,) * self.participants,
                         weights=fc.CredibilityWeights(tuple(self.shape["weights"])),
                         global_conflict_removal=True)
        data = orchestrator.build_round_data(config)
        sha = hashlib.sha256(data.unlabeled.features.tobytes()).hexdigest()
        return config, data, sha

    def _settings(self, config, data, sha):
        return netproto.CoordinatorSettings(
            n_participants=self.participants, alpha=config.alpha,
            unlabeled_size=len(data.unlabeled), dataset_sha256=sha,
            weights=config.weights, global_conflict_removal=True,
            timeout_s=self.timeout_s)

    def ready(self):
        coordinator = netproto.Coordinator(self._settings(*self.prepare(0)))
        coordinator.bind("127.0.0.1", 0)
        coordinator.listener.close()

    def run(self, inputs, tracer):
        config, data, sha = inputs
        coordinator = netproto.Coordinator(self._settings(config, data, sha))
        address = coordinator.bind("127.0.0.1", 0)
        served: dict = {}
        joined: dict = {}

        def serve():
            try:
                if tracer is None:
                    served["result"] = coordinator.serve()
                else:
                    with tracer.span("serve"):
                        served["result"] = coordinator.serve()
            except Exception as exc:  # reported as this round's failure
                served["error"] = repr(exc)

        def client(i):
            shard = data.shards[i]
            try:
                joined[i] = netproto.join(
                    address, participant_id=i, kind=config.participants[i].learner,
                    label_space=shard.label_space, train=shard.train,
                    test=data.test_sets[i], public=data.unlabeled, public_sha256=sha,
                    config=orchestrator.participant_train_config(config, i),
                    timeout_s=self.timeout_s)
            except Exception as exc:  # reported as this round's failure
                joined[i] = exc

        server = threading.Thread(target=serve, name="coordinator")
        clients = [threading.Thread(target=client, args=(i,), name=f"participant-{i}")
                   for i in range(self.participants)]
        start = time.perf_counter()
        server.start()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(self.timeout_s + 5)
        # The round is over for the participants once every join returned;
        # the coordinator notices at its next accept poll, which is not timed.
        seconds = time.perf_counter() - start
        server.join(self.timeout_s + 5)
        hung = [t.name for t in [server, *clients] if t.is_alive()]
        return seconds, (served, joined, hung)

    def check(self, inputs, state) -> Checked:
        config, data, _ = inputs
        served, joined, hung = state
        out = Checked()
        if hung:
            out.failures.append(f"threads still running after the timeout: {hung}")
            return out
        if "error" in served:
            out.failures.append(f"coordinator raised {served['error']}")
            return out
        result = served["result"]
        if result.status != "completed":
            out.failures.append(f"wire round {result.status}")
        for i in range(self.participants):
            if isinstance(joined.get(i), Exception) or i not in joined:
                out.failures.append(f"participant {i} failed: {joined.get(i)!r}")
        if out.failures:
            return out
        # The coordinator's transcript holds every message of the round once:
        # "recv" ones went up from a participant, "send" ones came down.
        sizes = {"recv": 0, "send": 0}
        for m in result.transcript:
            sizes[m["direction"]] += len(netproto.Message(
                m["message"]["kind"], m["message"]["payload"], m["message"]["v"]).encode())
        wire_bytes = sizes["recv"] + sizes["send"]
        ratios = [joined[i].relative_accuracy for i in range(self.participants)
                  if joined[i].relative_accuracy is not None]
        mean_relative = float(np.mean(ratios)) if ratios else 1.0
        out.values = {"wire_bytes": wire_bytes, "mean_relative_accuracy": mean_relative,
                      "netproto.bytes_up": sizes["recv"], "netproto.bytes_down": sizes["send"],
                      "netproto.messages": len(result.transcript)}
        # A6: the bundles each participant received equal the in-process
        # pipeline run on the prediction vectors the coordinator received.
        expected = self._in_process_bundles(config, data, result.transcript)
        for i in range(self.participants):
            if joined[i].bundle != expected[i]:
                out.failures.append(f"participant {i}: wire bundle differs from in-process")
        first = self.repeats.setdefault(config.master_seed, (wire_bytes, mean_relative))
        if first != (wire_bytes, mean_relative):
            out.failures.append(f"master seed {config.master_seed}: wire bytes or accuracy "
                                f"changed between repeats: {first} vs "
                                f"{(wire_bytes, mean_relative)}")
        return out

    def _in_process_bundles(self, config, data, transcript) -> list:
        received = {m["message"]["payload"]["participant_id"]: m["message"]["payload"]["labels"]
                    for m in transcript
                    if m["direction"] == "recv" and m["message"]["kind"] == "PREDICTIONS"}
        predictions = [np.asarray(received[i], dtype=np.int64)
                       for i in range(self.participants)]
        spaces = [shard.label_space for shard in data.shards]
        pseudo_sets = aggregation.aggregate_weighted(predictions, spaces, config.weights,
                                                     config.alpha, len(data.unlabeled))
        pseudo_sets = aggregation.remove_global_conflicts(pseudo_sets)
        return [aggregation.build_bundle(pseudo_sets, spaces[i], owner=i)
                for i in range(self.participants)]


WORKLOADS = {w.name: w for w in (RoundDefault, VoteScale, WireRound)}
