"""Command-line interface: invert, reconstruct, edit and grid subcommands.

Each subcommand accepts only the options it reads.  `--config` names a
`key = value` file (one pair per line, `#` starts a comment) whose keys are
the subcommand's flag names without `--`; flags override it.  Exit codes,
decided in `main` alone: 0 success, 1 usage error (any ValueError: bad
flags, settings or config keys, unreadable files), 2 numeric failure (any
NumericsError: divergence, negative variance, non-finite states).
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from .bench import METHODS, ExperimentGrid, method_config, run_grid, write_grid_csv
from .editing import EditConfig, edit, write_scores_csv
from .errors import MaskSettingsError, NumericsError, check_finite
from .fileio import load_tensor, parse_kv_file, save_tensor
from .guidance import POLARITIES, AttentionMap, MaskNormConfig
from .inversion import FixedPointConfig, round_trip
from .predictor import ContractivePredictor, PromptId, load_predictor
from .schedule import build_schedule


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No option starts with '-' and a digit, so such a token is a value: -1e-3 too.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse default exits with code 2
        raise ValueError(message)


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

    `subcommands` maps each command name to its parser.  An option's default
    is the default of the settings field it feeds; only `--steps 20` has none.
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
            option("--steps", type=_comma_list(int), default=ExperimentGrid.step_counts,
                   help="comma list of step counts")
            option("--omega", type=_comma_list(float), default=ExperimentGrid.omegas,
                   help="comma list of guidance scales")
            option("--method", type=_comma_list(str), default=ExperimentGrid.methods,
                   help=f"comma list of {', '.join(METHODS)}")
            option("--dim", type=int, default=ExperimentGrid.dim, help="latent dimension")
            option("--timing", type=_boolean, nargs="?", const=True,
                   help="record measured wall_ms in the CSV (breaks byte determinism)")
        else:
            option("--in", help="input tensor file (required)")
            option("--steps", type=int, default=20, help="scheduled step count")
            option("--omega", type=float, default=EditConfig.omega, help="guidance scale")
            option("--method", default=FixedPointConfig.variant, help=" | ".join(METHODS))
        if name in ("edit", "grid"):
            settings = ExperimentGrid if name == "grid" else EditConfig
            option("--seed", type=int, default=settings.seed, help="random seed")
        option("--iters", type=int, help="fixed-point iterations per step (default: by steps)")
        option("--window", type=int, default=FixedPointConfig.window,
               help="Anderson history window")
        option("--predictor", help="predictor spec file (default: generated contractive)")
        if name == "edit":
            option("--omega-e", type=float, default=EditConfig.omega_e,
                   help="editing guidance scale")
            option("--eta", type=float, default=EditConfig.eta, help="stochastic noise scale")
            option("--candidates", type=int, default=EditConfig.n_candidates,
                   help="number of stochastic candidates")
            option("--polarity", default=MaskNormConfig.polarity,
                   help=f"{' | '.join(POLARITIES)} anchor")
            option("--mask-m", type=float, default=MaskNormConfig.big_m,
                   help="mask normalization amplitude")
            option("--delta", type=float, help="mask threshold (default: map mean)")
            option("--attention", help="attention map tensor file (default: centered blob)")
    return parser


def _parse(argv) -> dict:
    """The run's options: flags over `--config` values over declared defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise ValueError("a command is required (invert, reconstruct, edit, grid)")
    if args.config:
        config = _read(parse_kv_file, args.config, "config file")
        unread = sorted(set(config) - (set(vars(args)) - {"command", "config"}))
        if unread:
            raise ValueError(f"unknown config key for {args.command}: {', '.join(unread)}")
        parser.subcommands[args.command].set_defaults(**config)
        args = parser.parse_args(argv)  # argparse converts the string defaults via type=
    return vars(args)


def _read(load, path, what: str):
    """load(path), with an unreadable file reported as a ValueError naming `what`."""
    try:
        return load(path)
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc


def _load_input(opts) -> np.ndarray:
    if not opts["in"]:
        raise ValueError("--in <tensor file> is required")
    return _read(
        lambda p: check_finite(load_tensor(p), f"{p}: input tensor"), opts["in"], "input tensor"
    )


def _predictor(opts, size: int):
    """The `--predictor` spec's predictor, else the default one, for latents of `size` elements.

    A spec predictor checks the latent size itself, at its first call.
    """
    if not opts["predictor"]:
        return ContractivePredictor.default(size, seed=0)
    return _read(load_predictor, opts["predictor"], "predictor spec")


def _write(what: str, write, *args, **kwargs) -> None:
    """write(*args, **kwargs), with a file or values it cannot write reported as a ValueError."""
    try:
        write(*args, **kwargs)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot write {what}: {exc}") from exc


def cmd_invert(opts: dict, reconstruct_out: bool = False) -> int:
    steps, omega = opts["steps"], opts["omega"]
    z_0 = _load_input(opts)
    pred = _predictor(opts, z_0.size)
    schedule = build_schedule().subsample(steps)
    cfg = method_config(opts["method"], steps, opts["iters"], opts["window"])
    z_t, z_rec, report = round_trip(schedule, pred, z_0, PromptId.SOURCE, omega, cfg)
    if opts["out"]:
        _write("output", save_tensor, opts["out"], z_rec if reconstruct_out else z_t)
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
    schedule = build_schedule().subsample(steps)
    cfg = EditConfig(
        omega=opts["omega"],
        omega_e=opts["omega_e"],
        attention=attention,
        mask=MaskNormConfig(delta=opts["delta"], big_m=opts["mask_m"], polarity=opts["polarity"]),
        fixed_point=method_config(opts["method"], steps, opts["iters"], opts["window"]),
        eta=opts["eta"],
        n_candidates=opts["candidates"],
        seed=opts["seed"],
    )
    try:
        result = edit(schedule, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
    except MaskSettingsError as exc:  # the rest of edit's ValueErrors reach main unlabelled
        raise ValueError(f"mask settings (--delta, --mask-m): {exc}") from exc
    if opts["out"]:
        _write("output", save_tensor, opts["out"], result.best)
        _write("scores CSV", write_scores_csv, result, str(opts["out"]) + ".scores.csv")
    print(
        f"edit: steps={steps} omega={cfg.omega:g} omega_e={cfg.omega_e:g} eta={cfg.eta:g} "
        f"candidates={cfg.n_candidates} best={result.best_index} "
        f"best_score={result.scores[result.best_index]:.9g}"
    )
    return 0


def cmd_grid(opts: dict) -> int:
    if not opts["out"]:
        raise ValueError("--out <csv file> is required for grid")
    grid = ExperimentGrid(
        step_counts=opts["steps"],
        omegas=opts["omega"],
        methods=opts["method"],
        dim=opts["dim"],
        seed=opts["seed"],
        iters=opts["iters"],
        window=opts["window"],
    )
    rows = run_grid(grid, _predictor(opts, grid.dim))
    _write("CSV", write_grid_csv, rows, opts["out"], timing=bool(opts["timing"]))
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
    except ValueError as exc:  # a rejected input; numeric failures are not ValueErrors
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
