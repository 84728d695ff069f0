"""Command-line pipeline: validate, causal-graph, simulate, import, train,
explain, evaluate.

Conventions: primary results go to stdout as JSON, informational notes to
stderr (silence them with --quiet), and every command that writes a file
echoes its configuration. Exit codes: 0 success, 1 domain error (printed as
``ErrorName: message``), 2 usage error: a flag that is unparsable, missing or
in conflict. The parser only parses: the library config a flag feeds judges
its value, so a number out of range exits 1 with a ``ConfigError`` before
any file is read. Re-running a command with identical flags and inputs
produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

from .errors import (
    ConfigError,
    DslSyntaxError,
    MalformedLogError,
    MissingAttributeError,
    NoMatchingInstancesError,
    ProcexError,
    UnknownAttributeError,
    _not_utf8,
    _utf8,
)
from .jsontext import _json_text, _write_json
from .process_model import (
    derive_causality_graph,
    parse_process,
    parse_process_structure,
    validate,
)

# The pipeline modules, and numpy with them, are imported by the commands
# that use them, so `validate` and `causal-graph` start without them.

__all__ = ["build_parser", "dispatch", "main"]


# ---------------------------------------------------------------------------
# Argument types
# ---------------------------------------------------------------------------

def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _seed_list(text: str) -> tuple[int, ...]:
    return tuple(_int(part) for part in text.split(",") if part != "")


def _name_list(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("at least one name is required")
    for name in names:
        if names.count(name) > 1:
            raise argparse.ArgumentTypeError(f"name {name!r} is given more than once")
    return names


def _attr_assignments(text: str) -> dict[str, float]:
    attrs: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"expected name=value, got {part!r}")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise argparse.ArgumentTypeError(
                f"{value!r} is not a finite number (in {part!r})"
            )
        name = name.strip()
        if name in attrs:
            raise argparse.ArgumentTypeError(f"attribute {name!r} is given more than once")
        attrs[name] = number
    if not attrs:
        raise argparse.ArgumentTypeError("at least one name=value pair is required")
    return attrs


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _log(args: argparse.Namespace, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The settings among ``names`` whose flags were given, by name.

    A setting's flag has the setting's name as its ``dest`` and no default,
    so it reads None when left out (switches store a constant, not False)
    and the library supplies the default."""
    return {
        name: getattr(args, name)
        for name in names
        if getattr(args, name, None) is not None
    }


def _config(config_class, args: argparse.Namespace, **fixed):
    """A ``config_class`` from ``fixed`` and the given flags of its fields."""
    names = [f.name for f in fields(config_class) if f.name not in fixed]
    return config_class(**_given(args, *names), **fixed)


def _emit(payload: dict) -> None:
    print(_json_text(payload))


def _read_definition(path: str, parse=parse_process):
    with _utf8(path, lambda line, col, found: DslSyntaxError(line, col, "UTF-8 text", found)):
        text = Path(path).read_text(encoding="utf-8")
    return parse(text)


def _figdata_path(out: str) -> Path:
    path = Path(out)
    if path.suffix == ".json":
        return path.with_suffix(".figdata.csv")
    return Path(str(path) + ".figdata.csv")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(args: argparse.Namespace) -> int:
    defn = _read_definition(args.process, parse_process_structure)
    report = validate(defn)
    _emit(
        {
            "process": defn.name,
            "findings": [asdict(f) for f in report.findings],
        }
    )
    if report.ok:
        _log(args, "no findings")
    else:
        _log(args, f"{len(report.findings)} finding(s)")
    return 0


def _cmd_causal_graph(args: argparse.Namespace) -> int:
    defn = _read_definition(args.process)
    graph = derive_causality_graph(defn)
    _emit({"process": defn.name, **graph.to_json_dict()})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulation import SimulationConfig, generate_log, write_log_jsonl

    config = _config(SimulationConfig, args)
    defn = _read_definition(args.process)
    log = generate_log(defn, config)
    write_log_jsonl(log, args.out)
    _log(args, f"wrote {len(log)} traces to {args.out}")
    _emit(
        {
            "command": "simulate",
            "process": defn.name,
            "config": config.to_json_dict(),
            "out": args.out,
            "label_counts": dict(sorted(Counter(log.labels).items())),
        }
    )
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from .simulation import import_log_csv, write_log_jsonl

    log = import_log_csv(
        args.csv,
        **_given(args, "attr_columns", "activity_column", "label_column", "case_column"),
    )
    write_log_jsonl(log, args.out)
    _log(args, f"imported {len(log)} cases from {args.csv}")
    _emit(
        {
            "command": "import",
            "csv": args.csv,
            "out": args.out,
            "n_cases": len(log),
            "label_counts": dict(sorted(Counter(log.labels).items())),
        }
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .features import build_schema
    from .predictor import (
        TEST_FRACTION,
        TrainConfig,
        evaluate,
        save_model,
        split_log,
        train,
    )
    from .simulation import read_log_jsonl

    config = _config(TrainConfig, args)
    split = TEST_FRACTION if args.test_fraction is None else args.test_fraction
    if split != 0 and not 0.0 < split < 1.0:
        raise ConfigError(f"split must be 0 or lie in (0, 1), got {split}")
    defn = _read_definition(args.process)
    schema = build_schema(defn)
    log = read_log_jsonl(args.log, process_name=defn.name)
    if split == 0:
        train_log, test_log = log, None
    else:
        train_log, test_log = split_log(log, split, seed=config.seed)
    model = train(train_log, schema, config)
    save_model(model, args.out)
    metrics = {"train": evaluate(model, train_log).to_json_dict()}
    if test_log is not None and len(test_log):
        metrics["test"] = evaluate(model, test_log).to_json_dict()
    _log(args, f"wrote model to {args.out}")
    if not model.train_meta["converged"]:
        epochs = model.train_meta["epochs_run"]
        note = f"note: training unconverged after epochs_run={epochs}"
        _log(args, f"{note} (--tol {config.tol})")
    _emit(
        {
            "command": "train",
            "process": defn.name,
            "config": config.to_json_dict(),
            "split": split,
            "out": args.out,
            "train_meta": model.train_meta,
            "metrics": metrics,
        }
    )
    return 0


def _resolve_instance(args: argparse.Namespace, defn, schema, seed: int):
    """Build (vector, instance_id) from --case-id/--log or --attrs."""
    import numpy as np

    from .features import encode_trace
    from .simulation import _records, execute_case

    if args.case_id is not None:
        # Stops at the first match: later lines are neither read nor checked.
        with _utf8(args.log, _not_utf8(MalformedLogError)), open(args.log, encoding="utf-8") as fh:
            for record in _records(fh):
                if record[0] == args.case_id:
                    return encode_trace(schema, record), args.case_id
        raise NoMatchingInstancesError(
            f"log {args.log} has no case {args.case_id!r}"
        )
    attrs = dict(args.attrs)
    declared = set(defn.attribute_names)
    unknown = sorted(set(attrs) - declared)
    if unknown:
        raise UnknownAttributeError(f"undeclared attribute(s): {unknown}")
    missing = sorted(declared - set(attrs))
    if missing:
        raise MissingAttributeError(f"missing attribute value(s): {missing}")
    # Hypothetical case: derive the indicators by executing the process on
    # the given attributes, resolving choice gateways from the seed.
    trace = execute_case(
        defn, attrs, np.random.default_rng(seed), case_id="adhoc"
    )
    return encode_trace(schema, trace), "adhoc"


def _cmd_explain(args: argparse.Namespace) -> int:
    from .explainer import PROCESS_AWARE, VANILLA, ExplainConfig, explain
    from .predictor import load_model

    if args.case_id is not None and args.log is None:
        print("error: --case-id requires --log", file=sys.stderr)
        return 2
    if args.top is not None and args.top < 1:
        raise ConfigError(f"top must be positive, got {args.top}")
    mode = PROCESS_AWARE if args.mode == "process-aware" else VANILLA
    config = _config(ExplainConfig, args, mode=mode)
    defn = _read_definition(args.process)
    model = load_model(args.model, definition=defn)
    vector, instance_id = _resolve_instance(args, defn, model.schema, config.seed)
    for name, (lower, upper) in sorted(defn.attribute_bounds.items()):
        value = float(vector[model.schema.index(name)])
        if not lower <= value <= upper:
            bounds = f"[{lower}, {upper}]"
            _log(args, f"warning: {name}={value} outside declared bounds {bounds}")
    explanation = explain(model, defn, vector, config, instance_id=instance_id)
    payload = explanation.to_json_dict()
    if args.top is not None:
        payload["attributions"] = payload["attributions"][: args.top]
        payload["attributions_raw"] = payload["attributions_raw"][: args.top]
    if args.out:
        text = _write_json(payload, args.out)
        _log(args, f"wrote explanation to {args.out}")
    else:
        text = _json_text(payload)
    print(text)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import (
        ComparisonConfig,
        run_comparison,
        write_figdata_csv,
        write_report_json,
    )
    from .predictor import load_model
    from .simulation import read_log_jsonl

    config = _config(ComparisonConfig, args)
    defn = _read_definition(args.process)
    model = load_model(args.model, definition=defn)
    log = read_log_jsonl(args.log, process_name=defn.name)
    report = run_comparison(defn, model, log, config)
    write_report_json(report, args.out)
    figdata = args.figdata or _figdata_path(args.out)
    write_figdata_csv(report, figdata)
    _log(args, f"wrote report to {args.out} and bar data to {figdata}")
    _emit(
        {
            "command": "evaluate",
            "process": defn.name,
            "config": report.config,
            "out": args.out,
            "figdata": str(figdata),
            "aggregates": report.aggregates,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_sampling_options(p: argparse.ArgumentParser) -> None:
    """The explainer settings that `explain` and `evaluate` share."""
    p.add_argument(
        "--samples", dest="n_samples", metavar="SAMPLES", type=_int,
        help="perturbation count",
    )
    p.add_argument("--spread", type=float, help="noise scale in train-stds")
    p.add_argument("--flip-p", type=float, help="indicator flip probability")
    p.add_argument(
        "--width", dest="kernel_width", metavar="WIDTH", type=float,
        help="kernel width override",
    )
    p.add_argument("--ridge", type=float, help="surrogate ridge penalty")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procex",
        description=(
            "Process definitions, simulated event logs, outcome prediction, "
            "and process-aware local explanations."
        ),
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress informational messages on stderr",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("validate", help="check a process definition, print findings")
    p.add_argument("process", help="path to a .bp process definition")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("causal-graph", help="print attribute-to-activity causal edges")
    p.add_argument("process", help="path to a .bp process definition")
    p.set_defaults(func=_cmd_causal_graph)

    p = sub.add_parser("simulate", help="generate a labeled event log")
    p.add_argument("process", help="path to a .bp process definition")
    p.add_argument(
        "--n", dest="n_cases", metavar="N", type=_int, required=True,
        help="number of cases",
    )
    p.add_argument("--seed", type=_int, help="simulation seed")
    p.add_argument(
        "--noise", dest="label_noise", metavar="NOISE", type=float,
        help="label flip probability in [0, 0.5]",
    )
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("import", help="convert an event-per-row CSV to JSONL")
    p.add_argument("--csv", required=True, help="input CSV path")
    p.add_argument(
        "--attrs", dest="attr_columns", metavar="ATTRS", type=_name_list,
        required=True, help="comma-separated attribute column names",
    )
    p.add_argument(
        "--label", dest="label_column", metavar="LABEL", required=True,
        help="label column name",
    )
    p.add_argument(
        "--activity-col", dest="activity_column", metavar="ACTIVITY_COL",
        help="activity column name",
    )
    p.add_argument(
        "--case-col", dest="case_column", metavar="CASE_COL",
        help="case id column name",
    )
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("train", help="fit the outcome predictor on a log")
    p.add_argument("process", help="path to a .bp process definition")
    p.add_argument("--log", required=True, help="training log (JSONL)")
    p.add_argument("--out", required=True, help="output model path (JSON)")
    p.add_argument("--l2", type=float, help="L2 penalty")
    p.add_argument("--epochs", type=_int, help="Newton iteration limit")
    p.add_argument("--tol", type=float, help="gradient stop tolerance")
    p.add_argument(
        "--split", dest="test_fraction", metavar="SPLIT", type=float,
        help="held-out fraction (0 trains on everything)",
    )
    p.add_argument("--seed", type=_int, help="split seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("explain", help="explain one prediction")
    p.add_argument("process", help="path to a .bp process definition")
    p.add_argument("--model", required=True, help="trained model path")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--case-id", help="case to explain (needs --log)")
    which.add_argument(
        "--attrs", type=_attr_assignments,
        help="hypothetical case as name=value,... pairs",
    )
    p.add_argument("--log", help="log containing --case-id")
    p.add_argument(
        "--mode", choices=["vanilla", "process-aware"], required=True,
        help="sampling mode",
    )
    p.add_argument(
        "--strategy", choices=["propagate", "reject"],
        help="process-aware sampling strategy",
    )
    _add_sampling_options(p)
    p.add_argument("--seed", type=_int, help="sampling seed")
    p.add_argument(
        "--collapse-derived", action="store_const", const=True,
        help="drop indicator columns from the surrogate (process-aware only)",
    )
    p.add_argument("--top", type=_int, help="print only top-k attributions")
    p.add_argument("--out", help="also write the JSON to this path")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("evaluate", help="run the vanilla vs process-aware comparison")
    p.add_argument("process", help="path to a .bp process definition")
    p.add_argument("--model", required=True, help="trained model path")
    p.add_argument("--log", required=True, help="log to select instances from")
    p.add_argument(
        "--instances", dest="n_instances", metavar="INSTANCES", type=_int,
        required=True, help="instance count",
    )
    p.add_argument(
        "--seeds", type=_seed_list, required=True,
        help="comma-separated seeds, one run per instance per seed",
    )
    p.add_argument(
        "--label", dest="select_label", metavar="LABEL",
        help="label to select instances by",
    )
    p.add_argument(
        "--require-activity", help="only select instances containing this activity"
    )
    p.add_argument("--top-k", type=_int, help="overlap metric depth")
    _add_sampling_options(p)
    p.add_argument(
        "--strategy", choices=["propagate", "reject"],
        help="process-aware sampling strategy",
    )
    p.add_argument(
        "--collapse-derived", action="store_const", const=True,
        help="drop indicator columns from the process-aware surrogate",
    )
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--figdata", help="bar-data CSV path")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse argv and run the selected command; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args) or 0)
    except (ProcexError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # No matrix a command builds gains from BLAS threads, starting OpenBLAS's
    # pool is the larger part of importing numpy, and one thread writes the
    # same bytes on every host. Commands import numpy lazily, so this runs
    # first. A user's setting wins.
    if "OMP_NUM_THREADS" not in os.environ:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
