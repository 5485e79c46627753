"""Command-line entry point: config files, experiment runs, sweeps, serving.

Configs are JSON documents validated strictly: unknown keys are rejected with
the offending field path. All outputs (reports, manifests, sweep tables) are
byte-deterministic functions of the config, so reruns with the same master
seed produce identical files. That includes the wire round's transcripts,
completed or aborted: ``serve --out`` writes each connection's messages, in
the order it sent or read them, one connection after another, registered
participants in id order and then every other connection in accept order. No
transcript holds an address. Each transcript line holds its message as the
wire carries it, every int array as its array text, so each line passes
``netproto.validate_message``.

The document is exactly ``FederationConfig``'s canonical form. Its schema is
derived from the dataclasses the document builds: every field is a key,
required when the field has no default and checked against the field's
annotation, and each class's ``__post_init__`` keeps its range checks.
``canonical_config`` writes the same fields back out. No line length is a
setting: ``netproto.line_cap`` derives it from the public set.

What is not the federation is a flag, with no second source: ``--out``
(default ``runs``), the sweeps' ``--alphas`` and ``--sizes``, and ``serve
--bind`` and ``--timeout``. ``serve`` and ``join`` read their config, master
seed applied, from the manifest they serve.

Exit codes: 0 success, 2 config error, 3 runtime error, 4 protocol error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import types
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .aggregation import AggregationError
from .domain import DomainError, LabelSpace, UnlabeledDataset, load_csv, save_csv
from .learners import LearnerError
from .netproto import (
    Coordinator,
    CoordinatorSettings,
    DEFAULT_CLIENT_TIMEOUT,
    DEFAULT_COORDINATOR_TIMEOUT,
    ProtocolError,
    array_text,
    entries_payload,
    file_sha256,
    join as netproto_join,
)
from .orchestrator import (
    FederationConfig,
    RoundError,
    build_round_data,
    category_reports,
    participant_train_config,
    run_round,
    sweep,
)
from .seeding import derive_seed
from .theory import TheoryError, analyze_round, error_rate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_PROTOCOL = 4


class ConfigError(ValueError):
    """Schema violation in a run-config document."""


# Seeds are no keys: every seed derives from master_seed.
DERIVED_FIELDS = ("seed",)

_LEAVES = {bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
           float: ("a number", "numbers"), str: ("a string", "strings")}
_SPEC_ERRORS = (ConfigError, DomainError, LearnerError, AggregationError)


def _schema(cls) -> list:
    """``(field, resolved annotation)`` for each field of ``cls`` a document carries."""
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls) if f.name not in DERIVED_FIELDS]


def _is_leaf(value, tp) -> bool:
    if isinstance(value, bool):
        return tp is bool
    if tp is int:
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


def _parse(value, tp, path: str):
    """Check a document value against the annotation ``tp`` and build it."""
    if get_origin(tp) in (Union, types.UnionType):  # ``X | None``
        if value is None:
            return None
        tp = next(arg for arg in get_args(tp) if arg is not type(None))
    if is_dataclass(tp):
        return _parse_spec(tp, value, path)
    if get_origin(tp) is tuple:
        item, *rest = get_args(tp)
        size = None if rest == [Ellipsis] else 1 + len(rest)
        noun = _LEAVES[item][1] if item in _LEAVES else "entries"
        what = f"a list of {size} {noun}" if size else f"a non-empty list of {noun}"
        if (not isinstance(value, list) or not value or size not in (None, len(value))
                or item in _LEAVES and not all(_is_leaf(v, item) for v in value)):
            raise ConfigError(f"{path}: expected {what}")
        # Entries are named as the rest of the package names them: "participant 1".
        return tuple(_parse(v, item, f"{path.removesuffix('s')} {i}")
                     for i, v in enumerate(value))
    if not _is_leaf(value, tp):
        raise ConfigError(f"{path}: expected {_LEAVES[tp][0]}")
    return tp(value)


def _parse_spec(cls, doc, path: str):
    """Build ``cls`` from its document form; ``path`` names it in errors."""
    label = path or "config"
    schema = _schema(cls)
    if len(schema) == 1:  # a one-field class is written as its field's value
        (f, tp), = schema
        kwargs = {f.name: _parse(doc, tp, path)}
    else:
        if not isinstance(doc, dict):
            raise ConfigError(f"{label}: expected a mapping")
        names = {f.name for f, _ in schema}
        for key in doc:
            if key not in names:
                raise ConfigError(f"{label}: unknown key {key!r}")
        for f, _ in schema:
            if f.default is MISSING and f.default_factory is MISSING and f.name not in doc:
                raise ConfigError(f"{label}: missing required key {f.name!r}")
        kwargs = {f.name: _parse(doc[f.name], tp, f"{path}.{f.name}" if path else f.name)
                  for f, tp in schema if f.name in doc}
    try:
        return cls(**kwargs)
    except _SPEC_ERRORS as exc:
        raise ConfigError(f"{label}: {exc}") from None


def _dump(value):
    """The document form of a parsed value; ``_parse`` reads it back unchanged."""
    if is_dataclass(value):
        schema = _schema(type(value))
        if len(schema) == 1:
            return _dump(getattr(value, schema[0][0].name))
        return {f.name: _dump(getattr(value, f.name)) for f, _ in schema}
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    return value


def parse_run_config(doc) -> FederationConfig:
    return _parse_spec(FederationConfig, doc, "")


def canonical_config(config: FederationConfig) -> dict:
    """Fully-expanded canonical form; parsing it reproduces the same config."""
    return _dump(config)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def load_run_config(path, seed_override=None) -> FederationConfig:
    config = parse_run_config(_read_json(Path(path)))
    if seed_override is not None:
        config = replace(config, master_seed=int(seed_override))
    return config


def _flag_values(text: str) -> list:
    """Split a comma-separated flag; pieces that are not numbers stay text."""
    def number(piece):
        for kind in (int, float):
            try:
                return kind(piece)
            except ValueError:
                pass
        return piece
    return [number(piece) for piece in text.split(",")]


def _timeout(seconds: float) -> float:
    """A ``--timeout`` flag's value, refused unless it is a finite number > 0."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ConfigError(f"--timeout: expected a finite number > 0, got {seconds}")
    return seconds


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_jsonl(path: Path, records, default=np.ndarray.tolist) -> None:
    # arrays are written by ``default``: as the lists of their values, unless told otherwise
    path.write_text("".join(json.dumps(r, sort_keys=True, default=default) + "\n"
                            for r in records), encoding="utf-8")


def cmd_generate_data(args) -> int:
    config = load_run_config(args.config, args.seed)
    out = _out_dir(args.out)
    data = build_round_data(config)

    pool_file = out / "pool.csv"
    save_csv(UnlabeledDataset(data.pool.features), pool_file,
             int_columns={"superclass": data.pool.superclass_labels,
                          "subclass": data.pool.subclass_labels})
    unlabeled_file = out / "unlabeled.csv"
    save_csv(data.unlabeled, unlabeled_file)

    participants = []
    for i, shard in enumerate(data.shards):
        train_file = out / f"participant_{i:02d}_train.csv"
        test_file = out / f"participant_{i:02d}_test.csv"
        save_csv(shard.train, train_file)
        save_csv(data.test_sets[i], test_file)
        participants.append({
            "id": i,
            "label_space": [int(c) for c in shard.label_space],
            "owned_subclasses": {str(s): list(subs)
                                 for s, subs in sorted(shard.owned_subclasses.items())},
            "train": {"file": train_file.name, "sha256": file_sha256(train_file),
                      "rows": len(shard.train)},
            "test": {"file": test_file.name, "sha256": file_sha256(test_file),
                     "rows": len(data.test_sets[i])},
        })

    manifest = {
        "seeds": {name: derive_seed(config.master_seed, name)
                  for name in ("taxonomy", "test", "partition", "unlabeled")},
        "pool": {"file": pool_file.name, "sha256": file_sha256(pool_file),
                 "rows": len(data.pool)},
        "unlabeled": {"file": unlabeled_file.name, "sha256": file_sha256(unlabeled_file),
                      "size": len(data.unlabeled)},
        "participants": participants,
        "config": canonical_config(config),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                                       encoding="utf-8")
    print(f"wrote {2 * len(participants) + 2} dataset files and manifest.json to {out}")
    return EXIT_OK


def _read_manifest(data_dir: Path):
    """Read ``manifest.json``: the round's config and a lookup ``item(k1, k2, ..., kind=t)``.

    A missing item, an item that is not a ``kind``, or an invalid config is a
    config error naming the file and key path.
    """
    path = data_dir / "manifest.json"
    if not path.exists():
        raise ConfigError(f"no manifest.json in {data_dir}; run generate-data first")
    manifest = _read_json(path)

    def item(*keys, kind=object):
        value = manifest
        for n, key in enumerate(keys, 1):
            try:
                value = value[key]
            except (KeyError, IndexError, TypeError):
                where = ".".join(map(str, keys[:n]))
                raise ConfigError(f"{path}: missing key {where!r}") from None
        if not isinstance(value, kind):
            where = ".".join(map(str, keys))
            raise ConfigError(f"{path}: key {where!r} is not a {kind.__name__}")
        return value

    return _parse_spec(FederationConfig, item("config"), f"{path}: config"), item


def _dump_artifacts(result, out: Path) -> None:
    records = []
    for i, row in enumerate(result.predictions):
        records.append({"record": "predictions", "participant": i, "labels": row})
    pseudo_sets = [result.pseudo_sets[c] for c in sorted(result.pseudo_sets)]
    records += [{"record": "pseudolabel_set", **entry} for entry in entries_payload(pseudo_sets)]
    records += [_bundle_record(bundle) for bundle in result.bundles]
    _write_jsonl(out / "artifacts.jsonl", records)


def _bundle_record(bundle) -> dict:
    return {"record": "bundle", "participant": bundle.owner,
            "entries": entries_payload(bundle.entries)}


def _emit_report(report, out: Path, fmt: str) -> None:
    (out / "report.txt").write_text(report.to_table(), encoding="utf-8")
    (out / "report.jsonl").write_text(report.to_jsonl(), encoding="utf-8")
    if fmt == "table":
        print(report.to_table(), end="")
    else:
        print(report.to_jsonl(), end="")


def cmd_run(args) -> int:
    config = load_run_config(args.config, args.seed)
    out = _out_dir(args.out)
    result = run_round(config)
    _emit_report(result.report, out, args.format)
    if args.dump_artifacts:
        _dump_artifacts(result, out)
    return EXIT_OK


def _sweep(args, name: str, kind: type, key: str, width: int, spec: str, vary) -> int:
    """Rerun the round once per value of the ``--{name}s`` flag, read as ``kind`` values.

    ``vary(federation, value)`` builds the whole config a value names, so the
    spec that owns the value refuses a bad one before any training. Each
    record stores its report's ``key``, and the table prints it in a column
    ``width`` wide with format ``spec``.
    """
    config = load_run_config(args.config, args.seed)
    flag = f"--{name}s"
    values = _parse(_flag_values(getattr(args, f"{name}s")), tuple[kind, ...], flag)
    try:
        configs = [vary(config, value) for value in values]
    except DomainError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    out = _out_dir(args.out)
    records = [{
        "record": f"{name}_sweep",
        key: getattr(report, key),
        "total_pseudolabels": report.total_pseudolabels,
        "mean_local_accuracy": report.mean_local_accuracy,
        "mean_federated_accuracy": report.mean_federated_accuracy,
        "mean_relative_accuracy": report.mean_relative_accuracy,
    } for report in sweep(configs)]
    _write_jsonl(out / f"sweep_{name}.jsonl", records)
    lines = [f"{name:>{width}} {'pseudolabels':>13} {'mean_local':>11} "
             f"{'mean_fed':>9} {'mean_ratio':>11}"]
    for r in records:
        ratio = r["mean_relative_accuracy"]
        lines.append(f"{r[key]:>{width}{spec}} {r['total_pseudolabels']:>13} "
                     f"{r['mean_local_accuracy']:>11.4f} "
                     f"{r['mean_federated_accuracy']:>9.4f} "
                     f"{(f'{ratio:.4f}' if ratio is not None else 'n/a'):>11}")
    table = "\n".join(lines) + "\n"
    (out / f"sweep_{name}.txt").write_text(table, encoding="utf-8")
    print(table if args.format == "table"
          else "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), end="")
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    return _sweep(args, "alpha", float, "alpha", 6, ".3g",
                  lambda config, a: replace(config, alpha=a))


def cmd_sweep_size(args) -> int:
    return _sweep(args, "size", int, "unlabeled_size", 7, "",
                  lambda config, s: replace(config, unlabeled=replace(config.unlabeled, size=s)))


def cmd_analyze(args) -> int:
    if args.helper_error is not None:
        try:
            error_rate("helper_error", args.helper_error)
        except TheoryError as exc:
            raise ConfigError(f"--helper-error: {exc}") from None
    config = load_run_config(args.config, args.seed)
    out = _out_dir(args.out)
    result = run_round(config)
    _emit_report(result.report, out, args.format)
    analysis = analyze_round(result, helper_error=args.helper_error)
    _write_jsonl(out / "analysis.jsonl", analysis.to_records())
    print(f"analysis for {len(analysis.participants)} participants written to "
          f"{out / 'analysis.jsonl'}")
    return EXIT_OK


def _parse_bind(text: str, flag: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ConfigError(f"{flag}: invalid address {text!r}; expected host:port, "
                          "the port in [0, 65535]")
    return host, int(port)


def cmd_serve(args) -> int:
    host, port = _parse_bind(args.bind, "--bind")
    timeout_s = _timeout(args.timeout)
    data_dir = Path(args.data)
    config, manifest = _read_manifest(data_dir)
    unlabeled_file = data_dir / manifest("unlabeled", "file", kind=str)
    if not unlabeled_file.exists():
        raise ConfigError(f"unlabeled dataset {unlabeled_file} is missing")
    rows = len(load_csv(unlabeled_file))
    if rows != config.unlabeled.size:
        raise ConfigError(f"{unlabeled_file} has {rows} rows, but the config's "
                          f"unlabeled.size is {config.unlabeled.size}")
    settings = CoordinatorSettings(
        n_participants=config.partition.n_participants,
        alpha=config.alpha,
        unlabeled_size=config.unlabeled.size,
        dataset_sha256=file_sha256(unlabeled_file),
        weights=config.weights,
        global_conflict_removal=config.global_conflict_removal,
        timeout_s=timeout_s,
    )
    coordinator = Coordinator(settings)
    bound = coordinator.bind(host, port)
    print(f"coordinator listening on {bound[0]}:{bound[1]} "
          f"for {settings.n_participants} participants", flush=True)
    result = coordinator.serve()
    if args.out:
        out = _out_dir(args.out)
        _write_jsonl(out / "transcript.jsonl", result.transcript, default=array_text)
        _write_jsonl(out / "bundles.jsonl",
                     [_bundle_record(result.bundles[i]) for i in sorted(result.bundles)])
        categories = category_reports(result.pseudo_sets, result.label_spaces)
        _write_jsonl(out / "categories.jsonl", [c.to_record() for c in categories])
    print(f"round {result.status}")
    return EXIT_OK if result.status == "completed" else EXIT_PROTOCOL


def cmd_join(args) -> int:
    addr = _parse_bind(args.addr, "--addr")
    timeout_s = _timeout(args.timeout)
    data_dir = Path(args.data)
    config, manifest = _read_manifest(data_dir)
    i = args.participant
    if not 0 <= i < len(config.participants):
        raise ConfigError(f"participant {i} not present in manifest")
    try:
        space = LabelSpace(tuple(manifest("participants", i, "label_space", kind=list)))
    except DomainError as exc:
        raise ConfigError(f"{data_dir / 'manifest.json'}: key "
                          f"'participants.{i}.label_space': {exc}") from None
    train = load_csv(data_dir / manifest("participants", i, "train", "file", kind=str),
                     label_space=space)
    test = load_csv(data_dir / manifest("participants", i, "test", "file", kind=str),
                    label_space=space)
    unlabeled_file = data_dir / manifest("unlabeled", "file", kind=str)
    public = load_csv(unlabeled_file)
    result = netproto_join(
        addr,
        participant_id=i,
        kind=config.participants[i].learner,
        label_space=space,
        train=train,
        test=test,
        public=public,
        public_sha256=file_sha256(unlabeled_file),
        config=participant_train_config(config, i),
        timeout_s=timeout_s,
    )
    record = result.to_record()
    if args.out:
        out = _out_dir(args.out)
        _write_jsonl(out / f"participant_{i:02d}_report.jsonl", [record])
        _write_jsonl(out / f"participant_{i:02d}_transcript.jsonl",
                     result.transcript, default=array_text)
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcotrain",
        description="Single-round federated cotraining over a shared public unlabeled dataset",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default="runs", help="output directory (default: %(default)s)")

    def reporting(p):
        common(p)
        p.add_argument("--format", choices=("table", "records"), default="table")

    p = sub.add_parser("generate-data", help="write pool, shards, test sets, unlabeled set")
    common(p)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("run", help="run one in-process federation round")
    reporting(p)
    p.add_argument("--dump-artifacts", action="store_true",
                   help="also write votes, admitted sets, and bundles")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-alpha", help="rerun the round across vote thresholds")
    reporting(p)
    p.add_argument("--alphas", default="0,0.1,0.2,0.3,0.5,0.7,0.9,1",
                   help="comma-separated thresholds (default: %(default)s)")
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("sweep-size", help="rerun the round across public dataset sizes")
    reporting(p)
    p.add_argument("--sizes", default="100,500,2000,5000",
                   help="comma-separated sizes (default: %(default)s)")
    p.set_defaults(func=cmd_sweep_size)

    p = sub.add_parser("analyze", help="run a round and append the bound analysis")
    reporting(p)
    p.add_argument("--helper-error", type=float, default=None,
                   help="assumed pseudolabeler error (default: mean measured local error)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("serve", help="run the coordinator for one distributed round")
    p.add_argument("--data", required=True, help="directory from generate-data")
    p.add_argument("--bind", default="127.0.0.1:0",
                   help="host:port to listen on (default: %(default)s)")
    p.add_argument("--timeout", type=float, default=DEFAULT_COORDINATOR_TIMEOUT,
                   help="round deadline in seconds (default: %(default)s)")
    p.add_argument("--out", default=None, help="write transcript, bundles, categories here")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("join", help="participate in a distributed round")
    p.add_argument("--data", required=True, help="directory from generate-data")
    p.add_argument("--participant", type=int, required=True)
    p.add_argument("--addr", required=True, help="coordinator host:port")
    p.add_argument("--timeout", type=float, default=DEFAULT_CLIENT_TIMEOUT)
    p.add_argument("--out", default=None, help="write the report line and transcript here")
    p.set_defaults(func=cmd_join)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (DomainError, LearnerError, AggregationError, TheoryError, RoundError,
            OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
