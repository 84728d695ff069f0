"""Command-line pipeline: validate, causal-graph, simulate, import, train,
explain, evaluate.

Conventions: primary results go to stdout as JSON, informational notes to
stderr (silence them with --quiet), and every command that writes a file
echoes its configuration. Exit codes: 0 success, 1 domain error (printed as
``ErrorName: message``), 2 usage error. Re-running a command with identical
flags and inputs produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import (
    MissingAttributeError,
    NoMatchingInstancesError,
    ProcexError,
    UnknownAttributeError,
)
from .evaluation import (
    ComparisonConfig,
    run_comparison,
    write_figdata_csv,
    write_report_json,
)
from .explainer import PROCESS_AWARE, PROPAGATE, REJECT, VANILLA, ExplainConfig, explain
from .features import build_schema, encode_trace
from .predictor import TrainConfig, evaluate, load_model, save_model, split_log, train
from .process_model import (
    derive_causality_graph,
    parse_process,
    parse_process_structure,
    validate,
)
from .simulation import (
    SimulationConfig,
    execute_case,
    generate_log,
    import_log_csv,
    read_log_jsonl,
    write_log_jsonl,
)

__all__ = ["build_parser", "dispatch", "main"]


# ---------------------------------------------------------------------------
# Argument types
# ---------------------------------------------------------------------------

def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _pos_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated integer list"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError("at least one seed is required")
    return seeds


def _name_list(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("at least one name is required")
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
        attrs[name.strip()] = number
    if not attrs:
        raise argparse.ArgumentTypeError("at least one name=value pair is required")
    return attrs


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _log(args: argparse.Namespace, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _read_definition(path: str):
    return parse_process(Path(path).read_text(encoding="utf-8"))


def _figdata_path(out: str) -> Path:
    path = Path(out)
    if path.suffix == ".json":
        return path.with_suffix(".figdata.csv")
    return Path(str(path) + ".figdata.csv")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(args: argparse.Namespace) -> int:
    defn = parse_process_structure(Path(args.process).read_text(encoding="utf-8"))
    report = validate(defn)
    _emit(
        {
            "process": defn.name,
            "findings": [
                {"rule": f.rule, "subject": f.subject, "message": f.message}
                for f in report.findings
            ],
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
    _emit({"process": defn.name, "edges": [[s, t] for s, t in graph.edges]})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    defn = _read_definition(args.process)
    config = SimulationConfig(
        n_cases=args.n, seed=args.seed, label_noise=args.noise
    )
    log = generate_log(defn, config)
    write_log_jsonl(log, args.out)
    _log(args, f"wrote {len(log.traces)} traces to {args.out}")
    _emit(
        {
            "command": "simulate",
            "process": defn.name,
            "config": config.to_json_dict(),
            "out": args.out,
            "label_counts": dict(sorted(Counter(t.label for t in log.traces).items())),
        }
    )
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    log = import_log_csv(
        args.csv,
        attr_columns=args.attrs,
        activity_column=args.activity_col,
        label_column=args.label,
        case_column=args.case_col,
        process_name=args.process_name or "",
    )
    write_log_jsonl(log, args.out)
    _log(args, f"imported {len(log.traces)} cases from {args.csv}")
    _emit(
        {
            "command": "import",
            "csv": args.csv,
            "out": args.out,
            "n_cases": len(log.traces),
            "label_counts": dict(sorted(Counter(t.label for t in log.traces).items())),
        }
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = TrainConfig(l2=args.l2, epochs=args.epochs, tol=args.tol, seed=args.seed)
    defn = _read_definition(args.process)
    schema = build_schema(defn)
    log = read_log_jsonl(args.log, process_name=defn.name)
    if args.split > 0:
        train_log, test_log = split_log(log, args.split, args.seed)
    else:
        train_log, test_log = log, None
    model = train(train_log, schema, config)
    save_model(model, args.out)
    metrics = {"train": evaluate(model, train_log).to_json_dict()}
    if test_log is not None and test_log.traces:
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
            "split": args.split,
            "out": args.out,
            "train_meta": model.train_meta,
            "metrics": metrics,
        }
    )
    return 0


def _resolve_instance(args: argparse.Namespace, defn, schema):
    """Build (vector, instance_id) from --case-id/--log or --attrs."""
    if args.case_id is not None:
        log = read_log_jsonl(args.log, process_name=defn.name)
        for trace in log.traces:
            if trace.case_id == args.case_id:
                return encode_trace(schema, trace), trace.case_id
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
        defn, attrs, np.random.default_rng(args.seed), case_id="adhoc"
    )
    return encode_trace(schema, trace), "adhoc"


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.case_id is not None and args.log is None:
        print("error: --case-id requires --log", file=sys.stderr)
        return 2
    defn = _read_definition(args.process)
    model = load_model(args.model, definition=defn)
    vector, instance_id = _resolve_instance(args, defn, model.schema)
    for name, (lower, upper) in sorted(defn.attribute_bounds.items()):
        value = float(vector[model.schema.index(name)])
        if not lower <= value <= upper:
            bounds = f"[{lower}, {upper}]"
            _log(args, f"warning: {name}={value} outside declared bounds {bounds}")
    config = ExplainConfig(
        mode=PROCESS_AWARE if args.mode == "process-aware" else VANILLA,
        strategy=args.strategy,
        n_samples=args.samples,
        spread=args.spread,
        flip_p=args.flip_p,
        kernel_width=args.width,
        ridge=args.ridge,
        seed=args.seed,
        collapse_derived=args.collapse_derived,
    )
    explanation = explain(model, defn, vector, config, instance_id=instance_id)
    payload = explanation.to_json_dict()
    if args.top is not None:
        payload["attributions"] = payload["attributions"][: args.top]
        payload["attributions_raw"] = payload["attributions_raw"][: args.top]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        _log(args, f"wrote explanation to {args.out}")
    _emit(payload)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    defn = _read_definition(args.process)
    model = load_model(args.model, definition=defn)
    log = read_log_jsonl(args.log, process_name=defn.name)
    config = ComparisonConfig(
        n_instances=args.instances,
        seeds=args.seeds,
        select_label=args.label,
        require_activity=args.require_activity,
        top_k=args.top_k,
        n_samples=args.samples,
        spread=args.spread,
        flip_p=args.flip_p,
        kernel_width=args.width,
        ridge=args.ridge,
        strategy=args.strategy,
        collapse_derived=args.collapse_derived,
    )
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
    p.add_argument("--n", type=_nonneg_int, required=True, help="number of cases")
    p.add_argument("--seed", type=_nonneg_int, default=0, help="simulation seed")
    p.add_argument(
        "--noise", type=float, default=0.0,
        help="label flip probability in [0, 0.5]",
    )
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("import", help="convert an event-per-row CSV to JSONL")
    p.add_argument("--csv", required=True, help="input CSV path")
    p.add_argument(
        "--attrs", type=_name_list, required=True,
        help="comma-separated attribute column names",
    )
    p.add_argument("--label", required=True, help="label column name")
    p.add_argument(
        "--activity-col", default="activity", help="activity column name"
    )
    p.add_argument("--case-col", default="case_id", help="case id column name")
    p.add_argument("--process-name", default=None, help="process name to record")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("train", help="fit the outcome predictor on a log")
    p.add_argument("process", help="path to a .bp process definition")
    p.add_argument("--log", required=True, help="training log (JSONL)")
    p.add_argument("--out", required=True, help="output model path (JSON)")
    p.add_argument("--l2", type=float, default=1e-3, help="L2 penalty")
    p.add_argument(
        "--epochs", type=_pos_int, default=2000, help="Newton iteration limit"
    )
    p.add_argument("--tol", type=float, default=1e-6, help="gradient stop tolerance")
    p.add_argument(
        "--split", type=float, default=0.2,
        help="held-out fraction (0 trains on everything)",
    )
    p.add_argument("--seed", type=_nonneg_int, default=42, help="split seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("explain", help="explain one prediction")
    p.add_argument("process", help="path to a .bp process definition")
    p.add_argument("--model", required=True, help="trained model path")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--case-id", default=None, help="case to explain (needs --log)")
    which.add_argument(
        "--attrs", type=_attr_assignments, default=None,
        help="hypothetical case as name=value,... pairs",
    )
    p.add_argument("--log", default=None, help="log containing --case-id")
    p.add_argument(
        "--mode", choices=["vanilla", "process-aware"], required=True,
        help="sampling mode",
    )
    p.add_argument(
        "--strategy", choices=[PROPAGATE, REJECT], default=PROPAGATE,
        help="process-aware sampling strategy",
    )
    p.add_argument("--samples", type=_pos_int, default=5000, help="perturbation count")
    p.add_argument("--spread", type=float, default=1.0, help="noise scale in train-stds")
    p.add_argument("--flip-p", type=float, default=0.5, help="indicator flip probability")
    p.add_argument("--width", type=float, default=None, help="kernel width override")
    p.add_argument("--ridge", type=float, default=1.0, help="surrogate ridge penalty")
    p.add_argument("--seed", type=_nonneg_int, default=0, help="sampling seed")
    p.add_argument(
        "--collapse-derived", action="store_true",
        help="drop indicator columns from the surrogate (process-aware only)",
    )
    p.add_argument("--top", type=_pos_int, default=None, help="print only top-k attributions")
    p.add_argument("--out", default=None, help="also write the JSON to this path")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("evaluate", help="run the vanilla vs process-aware comparison")
    p.add_argument("process", help="path to a .bp process definition")
    p.add_argument("--model", required=True, help="trained model path")
    p.add_argument("--log", required=True, help="log to select instances from")
    p.add_argument("--instances", type=_pos_int, required=True, help="instance count")
    p.add_argument(
        "--seeds", type=_seed_list, required=True,
        help="comma-separated seeds, one run per instance per seed",
    )
    p.add_argument("--label", default="NEGATIVE", help="label to select instances by")
    p.add_argument(
        "--require-activity", default=None,
        help="only select instances containing this activity",
    )
    p.add_argument("--top-k", type=_pos_int, default=2, help="overlap metric depth")
    p.add_argument("--samples", type=_pos_int, default=5000, help="perturbation count")
    p.add_argument("--spread", type=float, default=1.0, help="noise scale in train-stds")
    p.add_argument("--flip-p", type=float, default=0.5, help="indicator flip probability")
    p.add_argument("--width", type=float, default=None, help="kernel width override")
    p.add_argument("--ridge", type=float, default=1.0, help="surrogate ridge penalty")
    p.add_argument(
        "--strategy", choices=[PROPAGATE, REJECT], default=PROPAGATE,
        help="process-aware sampling strategy",
    )
    p.add_argument(
        "--collapse-derived", action="store_true",
        help="drop indicator columns from the process-aware surrogate",
    )
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--figdata", default=None, help="bar-data CSV path")
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
    except ProcexError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"JSONDecodeError: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
