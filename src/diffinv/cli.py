"""Command-line interface: invert, reconstruct, edit and grid subcommands.

Each subcommand accepts only the options it reads.  `--config` names a
`key = value` file (one pair per line, `#` starts a comment) whose keys are
the subcommand's flag names without `--`; flags override it.  Exit codes:
0 success, 1 usage error (bad flags or config keys, unreadable files),
2 numeric failure (divergence, negative variance, non-finite states).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import METHODS, ExperimentGrid, method_config, run_grid, write_grid_csv
from .editing import EditConfig, edit, write_scores_csv
from .errors import NumericsError
from .fileio import load_tensor, parse_kv_file, save_tensor
from .guidance import AttentionMap, MaskNormConfig, Polarity
from .inversion import round_trip
from .predictor import ContractivePredictor, PromptId, load_predictor
from .schedule import build_schedule


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"expects a boolean, got {text!r}") from None


def _comma_list(parse):
    """An argparse type: a comma-separated list of `parse` values, as a tuple."""

    def parse_list(text: str) -> tuple:
        return tuple(parse(tok.strip()) for tok in text.split(",") if tok.strip())

    parse_list.__name__ = f"{parse.__name__} list"
    return parse_list


def build_parser() -> _Parser:
    """The `diffinv` parser; each subcommand declares exactly the options it reads.

    `subcommands` maps each command name to its parser.
    """
    parser = _Parser(prog="diffinv", description=__doc__)
    parser.subcommands = {}
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, text in (
        ("invert", "map a clean latent to its noise vector and report the round trip"),
        ("reconstruct", "invert then resample under the same prompt and scale"),
        ("edit", "source-to-target edit with blended guidance and candidates"),
        ("grid", "reconstruction-accuracy benchmark grid written as CSV"),
    ):
        sub = parser.subcommands[name] = commands.add_parser(name, help=text)
        option = sub.add_argument
        option("--config", help="key = value file of option values; flags override it")
        option("--out", help="output CSV file (required)" if name == "grid" else "output file")
        if name == "grid":
            option("--steps", type=_comma_list(int), default=(10, 20, 50),
                   help="comma list of step counts")
            option("--omega", type=_comma_list(float), default=(0.0, 1.0, 3.0, 5.0, 7.0),
                   help="comma list of guidance scales")
            option("--method", type=_comma_list(str), default=METHODS,
                   help="comma list of euler, plain, averaged, anderson")
            option("--dim", type=int, default=64, help="latent dimension")
            option("--timing", type=_boolean, nargs="?", const=True, default=False,
                   help="record measured wall_ms in the CSV (breaks byte determinism)")
        else:
            option("--in", help="input tensor file (required)")
            option("--steps", type=int, default=20, help="scheduled step count")
            option("--omega", type=float, default=1.0, help="guidance scale")
            option("--method", default="averaged", help="euler | plain | averaged | anderson")
        if name in ("edit", "grid"):
            option("--seed", type=int, default=0, help="random seed")
        option("--iters", type=int, help="fixed-point iterations per step (default: by steps)")
        option("--window", type=int, default=2, help="Anderson history window")
        option("--predictor", help="predictor spec file (default: generated contractive)")
        if name == "edit":
            option("--omega-e", type=float, default=7.0, help="editing guidance scale")
            option("--eta", type=float, default=0.0, help="stochastic noise scale")
            option("--candidates", type=int, default=1, help="number of stochastic candidates")
            option("--polarity", type=Polarity, default="positive",
                   help="positive | negative anchor")
            option("--mask-m", type=float, default=10.0, help="mask normalization amplitude")
            option("--delta", type=float, help="mask threshold (default: map mean)")
            option("--attention", help="attention map tensor file (default: centered blob)")
    return parser


def _parse(argv) -> dict:
    """The run's options: flags over `--config` values over declared defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a command is required (invert, reconstruct, edit, grid)")
    if args.config:
        config = _read(parse_kv_file, args.config, "config file")
        unread = sorted(set(config) - (set(vars(args)) - {"command", "config"}))
        if unread:
            raise UsageError(f"unknown config key for {args.command}: {', '.join(unread)}")
        parser.subcommands[args.command].set_defaults(**config)
        args = parser.parse_args(argv)  # argparse converts the string defaults via type=
    return vars(args)


def _read(load, path, what: str):
    """load(path), with unreadable or malformed files reported as usage errors."""
    try:
        return load(path)
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_input(opts) -> np.ndarray:
    if not opts["in"]:
        raise UsageError("--in <tensor file> is required")
    return _read(load_tensor, opts["in"], "input tensor")


def _predictor(opts, size: int):
    """The `--predictor` spec's predictor, else the default one, for latents of `size` elements."""
    if not opts["predictor"]:
        return ContractivePredictor.default(size, seed=0)
    pred = _read(load_predictor, opts["predictor"], "predictor spec")
    dim = getattr(pred, "dim", size)  # the matrix predictors fix their latent size
    if dim != size:
        raise UsageError(f"predictor spec has dim {dim}, but the latent has {size} elements")
    return pred


def _save(path, array) -> None:
    try:
        save_tensor(path, array)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def cmd_invert(opts: dict, reconstruct_out: bool = False) -> int:
    steps, omega = opts["steps"], opts["omega"]
    z_0 = _load_input(opts)
    pred = _predictor(opts, z_0.size)
    try:
        schedule = build_schedule().subsample(steps)
        cfg = method_config(opts["method"], steps, opts["iters"], opts["window"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    z_t, z_rec, report = round_trip(schedule, pred, z_0, PromptId.SOURCE, omega, cfg)
    if opts["out"]:
        _save(opts["out"], z_rec if reconstruct_out else z_t)
    name = "reconstruct" if reconstruct_out else "invert"
    print(
        f"{name}: method={opts['method']} steps={steps} omega={omega:g} "
        f"round_trip_l2={report.round_trip_l2:.9g} nfe={report.nfe}"
    )
    return 0


def cmd_edit(opts: dict) -> int:
    steps = opts["steps"]
    z_0 = _load_input(opts)
    pred = _predictor(opts, z_0.size)
    attention = None
    if opts["attention"]:
        attention = _read(
            lambda path: AttentionMap(load_tensor(path)), opts["attention"], "attention map"
        )
    try:
        schedule = build_schedule().subsample(steps)
        cfg = EditConfig(
            omega=opts["omega"],
            omega_e=opts["omega_e"],
            attention=attention,
            mask=MaskNormConfig(
                delta=opts["delta"], big_m=opts["mask_m"], polarity=opts["polarity"]
            ),
            fixed_point=method_config(opts["method"], steps, opts["iters"], opts["window"]),
            eta=opts["eta"],
            n_candidates=opts["candidates"],
            seed=opts["seed"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = edit(schedule, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
    if opts["out"]:
        _save(opts["out"], result.best)
        write_scores_csv(result, str(opts["out"]) + ".scores.csv")
    print(
        f"edit: steps={steps} omega={cfg.omega:g} omega_e={cfg.omega_e:g} eta={cfg.eta:g} "
        f"candidates={cfg.n_candidates} best={result.best_index} "
        f"best_score={result.scores[result.best_index]:.9g}"
    )
    return 0


def cmd_grid(opts: dict) -> int:
    if not opts["out"]:
        raise UsageError("--out <csv file> is required for grid")
    predictor = _predictor(opts, opts["dim"])
    try:
        grid = ExperimentGrid(
            step_counts=opts["steps"],
            omegas=opts["omega"],
            methods=opts["method"],
            dim=opts["dim"],
            seed=opts["seed"],
            predictor=predictor,
            iters=opts["iters"],
            window=opts["window"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = run_grid(grid)
    try:
        write_grid_csv(rows, opts["out"], timing=opts["timing"])
    except OSError as exc:
        raise UsageError(f"cannot write CSV: {exc}") from exc
    print(f"grid: {len(rows)} rows -> {opts['out']}")
    return 0


def main(argv=None) -> int:
    try:
        opts = _parse(argv)
        if opts["command"] == "invert":
            return cmd_invert(opts)
        if opts["command"] == "reconstruct":
            return cmd_invert(opts, reconstruct_out=True)
        if opts["command"] == "edit":
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
