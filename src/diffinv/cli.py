"""Command-line interface: invert, reconstruct, edit and grid subcommands.

Flags override a `key = value` config file (one pair per line, `#` starts a
comment).  Exit codes: 0 success, 1 usage error (bad flags, unreadable
files), 2 numeric failure (divergence, negative variance).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import ExperimentGrid, method_config, run_grid, write_grid_csv
from .editing import EditConfig, edit, write_scores_csv
from .errors import NumericsError
from .fileio import load_tensor, parse_kv_file, save_tensor
from .guidance import MaskNormConfig, Polarity, attention_from_array
from .inversion import round_trip
from .predictor import ContractivePredictor, PromptId, load_predictor
from .schedule import build_schedule


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


_COMMON_DEFAULTS = {
    "seed": "0",
    "steps": "20",
    "omega": "1",
    "omega_e": "7",
    "eta": "0",
    "method": "averaged",
    "iters": None,
    "window": "2",
    "predictor": None,
    "in_path": None,
    "out_path": None,
    "candidates": "1",
    "polarity": "positive",
    "mask_m": "10",
    "delta": None,
    "attention": None,
    "dim": "64",
    "timing": False,
}

_GRID_DEFAULTS = {
    "steps": "10,20,50",
    "omega": "0,1,3,5,7",
    "method": "anderson,averaged,euler,plain",
}

_CONFIG_KEY_ALIASES = {"in": "in_path", "out": "out_path"}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file; flags override it")
    sub.add_argument("--seed", help="random seed (integer)")
    sub.add_argument("--steps", help="scheduled step count (grid: comma list)")
    sub.add_argument("--omega", help="guidance scale (grid: comma list)")
    sub.add_argument("--omega-e", dest="omega_e", help="editing guidance scale")
    sub.add_argument("--eta", help="stochastic noise scale")
    sub.add_argument(
        "--method", help="euler | plain | averaged | anderson (grid: comma list)"
    )
    sub.add_argument("--iters", help="fixed-point iterations per step")
    sub.add_argument("--window", help="Anderson history window")
    sub.add_argument("--predictor", help="predictor spec file")
    sub.add_argument("--in", dest="in_path", help="input tensor file")
    sub.add_argument("--out", dest="out_path", help="output file")


def build_parser() -> _Parser:
    parser = _Parser(prog="diffinv", description=__doc__)
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, text in (
        ("invert", "map a clean latent to its noise vector and report the round trip"),
        ("reconstruct", "invert then resample under the same prompt and scale"),
        ("edit", "source-to-target edit with blended guidance and candidates"),
        ("grid", "reconstruction-accuracy benchmark grid written as CSV"),
    ):
        sub = commands.add_parser(name, help=text)
        _add_common(sub)
        if name == "edit":
            sub.add_argument("--candidates", help="number of stochastic candidates")
            sub.add_argument("--polarity", help="positive | negative anchor")
            sub.add_argument("--mask-m", dest="mask_m", help="mask normalization amplitude")
            sub.add_argument("--delta", help="mask threshold (default: map mean)")
            sub.add_argument("--attention", help="attention map tensor file")
        if name == "grid":
            sub.add_argument("--dim", help="latent dimension")
            sub.add_argument(
                "--timing", action="store_true", default=None,
                help="record measured wall_ms in the CSV (breaks byte determinism)",
            )
    return parser


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(_COMMON_DEFAULTS)
    if command == "grid":
        merged.update(_GRID_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        raw = _read(parse_kv_file, config_path, "config file")
        for key, value in raw.items():
            key = _CONFIG_KEY_ALIASES.get(key, key)
            if key not in merged:
                raise UsageError(f"unknown config key: {key}")
            merged[key] = value
    for key in merged:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _read(load, path, what: str):
    """load(path), with unreadable or malformed files reported as usage errors."""
    try:
        return load(path)
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _to_int(opts, key) -> int:
    try:
        return int(opts[key])
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} expects an integer, got {opts[key]!r}")


def _to_float(opts, key) -> float:
    try:
        return float(opts[key])
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} expects a number, got {opts[key]!r}")


def _to_bool(opts, key) -> bool:
    value = opts[key]
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"--{key.replace('_', '-')} expects a boolean, got {value!r}")


def _comma_list(opts, key, parse, kind: str) -> tuple:
    try:
        return tuple(parse(tok) for tok in str(opts[key]).split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--{key} expects a comma list of {kind}, got {opts[key]!r}")


def _load_input(opts) -> np.ndarray:
    if not opts["in_path"]:
        raise UsageError("--in <tensor file> is required")
    return _read(load_tensor, opts["in_path"], "input tensor")


def _load_pred(opts, dim: int):
    if opts["predictor"]:
        return _read(load_predictor, opts["predictor"], "predictor spec")
    return ContractivePredictor.default(dim, seed=0)


def _fixed_point(opts, steps: int):
    method = opts["method"]
    iters = _to_int(opts, "iters") if opts["iters"] is not None else None
    window = _to_int(opts, "window")
    try:
        return method_config(method, steps, iters, window)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _save(path, array) -> None:
    try:
        save_tensor(path, array)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def cmd_invert(opts, reconstruct_out: bool = False) -> int:
    steps = _to_int(opts, "steps")
    omega = _to_float(opts, "omega")
    z_0 = _load_input(opts)
    pred = _load_pred(opts, z_0.size)
    schedule = build_schedule().subsample(steps)
    cfg = _fixed_point(opts, steps)
    z_t, z_rec, report = round_trip(schedule, pred, z_0, PromptId.SOURCE, omega, cfg)
    if opts["out_path"]:
        _save(opts["out_path"], z_rec if reconstruct_out else z_t)
    name = "reconstruct" if reconstruct_out else "invert"
    print(
        f"{name}: method={opts['method']} steps={steps} omega={omega:g} "
        f"round_trip_l2={report.round_trip_l2:.9g} nfe={report.nfe}"
    )
    return 0


def cmd_edit(opts) -> int:
    steps = _to_int(opts, "steps")
    z_0 = _load_input(opts)
    pred = _load_pred(opts, z_0.size)
    schedule = build_schedule().subsample(steps)
    polarity_text = str(opts["polarity"]).lower()
    try:
        polarity = Polarity(polarity_text)
    except ValueError:
        raise UsageError(f"--polarity must be positive or negative, got {polarity_text!r}")
    attention = None
    if opts["attention"]:
        attention = _read(
            lambda path: attention_from_array(load_tensor(path)), opts["attention"], "attention map"
        )
    delta = _to_float(opts, "delta") if opts["delta"] is not None else None
    try:
        cfg = EditConfig(
            omega=_to_float(opts, "omega"),
            omega_e=_to_float(opts, "omega_e"),
            attention=attention,
            mask=MaskNormConfig(delta=delta, big_m=_to_float(opts, "mask_m"), polarity=polarity),
            fixed_point=_fixed_point(opts, steps),
            eta=_to_float(opts, "eta"),
            n_candidates=_to_int(opts, "candidates"),
            seed=_to_int(opts, "seed"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = edit(schedule, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
    if opts["out_path"]:
        _save(opts["out_path"], result.best)
        write_scores_csv(result, str(opts["out_path"]) + ".scores.csv")
    print(
        f"edit: steps={steps} omega={cfg.omega:g} omega_e={cfg.omega_e:g} eta={cfg.eta:g} "
        f"candidates={cfg.n_candidates} best={result.best_index} "
        f"best_score={result.scores[result.best_index]:.9g}"
    )
    return 0


def cmd_grid(opts) -> int:
    if not opts["out_path"]:
        raise UsageError("--out <csv file> is required for grid")
    predictor = None
    if opts["predictor"]:
        predictor = _read(load_predictor, opts["predictor"], "predictor spec")
    try:
        grid = ExperimentGrid(
            step_counts=_comma_list(opts, "steps", int, "integers"),
            omegas=_comma_list(opts, "omega", float, "numbers"),
            methods=_comma_list(opts, "method", str.strip, "names"),
            dim=_to_int(opts, "dim"),
            seed=_to_int(opts, "seed"),
            predictor=predictor,
            iters=_to_int(opts, "iters") if opts["iters"] is not None else None,
            window=_to_int(opts, "window"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = run_grid(grid)
    timing = _to_bool(opts, "timing")
    try:
        write_grid_csv(rows, opts["out_path"], timing=timing)
    except OSError as exc:
        raise UsageError(f"cannot write CSV: {exc}") from exc
    print(f"grid: {len(rows)} rows -> {opts['out_path']}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (invert, reconstruct, edit, grid)")
        opts = _resolve(args, args.command)
        if args.command == "invert":
            return cmd_invert(opts)
        if args.command == "reconstruct":
            return cmd_invert(opts, reconstruct_out=True)
        if args.command == "edit":
            return cmd_edit(opts)
        return cmd_grid(opts)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
