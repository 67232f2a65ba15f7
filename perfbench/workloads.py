"""The benchmark's three workloads: their inputs, their ops and per-op oracles.

Every workload builds its inputs from the workload seed in `setup` and then
cycles a fixed list of op specs (`cycle`).  An op has two halves:

* `call(spec)` is the timed part.  It calls the library through its public
  functions, looked up on the module at call time so the traced run's
  wrappers see every call.
* `check(spec, raw)` is untimed.  It verifies the output against an oracle,
  raises `OracleError` on a mismatch, and returns the op's deterministic
  behaviour record.

A cycle's ops and inputs depend only on the seed, so every pass over the
cycle does identical work and the behaviour of any one pass is
byte-for-byte reproducible.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from pathlib import Path

import numpy as np

import diffinv
import diffinv.cli
import diffinv.fileio
from diffinv import PromptId
from diffinv.bench import method_config

# An iteration counts as useful while its residual norm exceeds this; below
# it the latents (norm ~8 at dim 64, ~32 at dim 1024) have converged to
# within a few hundred ulps.  The traced metric's name carries the value.
RESIDUAL_THRESHOLD = 1e-12
# Round-trip tolerance for the fixed-point methods; Euler only has to stay finite.
FIXED_POINT_TOL = 1e-4
# Relative errors are floored here before taking -log10, so an exact round
# trip reads as 15.65 digits instead of infinity.
REL_FLOOR = 2.0**-52


class OracleError(Exception):
    """An op's output failed its correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def digits(rel: float) -> float:
    return -math.log10(max(rel, REL_FLOOR))


def residual_fields(report) -> dict:
    """Iteration counts and the largest final residual of one inversion."""
    residuals = [r for _, trace in report.step_traces for r in trace]
    finals = [trace[-1] for _, trace in report.step_traces if trace]
    return {
        "iterations": len(residuals),
        "useful_iterations": sum(r > RESIDUAL_THRESHOLD for r in residuals),
        "final_residual_max": max(finals) if finals else None,
    }


def inversion_nfe(steps: int, cfg) -> int:
    """Closed-form predictor calls of one inversion: two per guided evaluation."""
    return steps * 2 if cfg is None else steps * (cfg.iters + 1) * 2


class InvertD64:
    """Round trips (invert, then resample) of flat 64-element latents.

    The predictor GEMV is small, so Python overhead in the solver, the
    sampler and the guidance combine dominates.
    """

    name = "invert-d64"
    dim = 64
    methods = ("euler", "plain", "averaged", "anderson")
    step_counts = (10, 20, 50)
    omegas = (1.0, 7.0)
    latents = 4

    def setup(self, seed: int, workdir: Path) -> None:
        self.pred = diffinv.ContractivePredictor.default(self.dim, seed=0)
        base = diffinv.build_schedule()
        self.schedules = {s: base.subsample(s) for s in self.step_counts}
        self.configs = {
            (m, s): method_config(m, s) for m in self.methods for s in self.step_counts
        }
        rng = np.random.default_rng(seed)
        self.inputs = [rng.standard_normal(self.dim) for _ in range(self.latents)]
        self.cycle = [
            (m, s, w, k)
            for k in range(self.latents)
            for m in self.methods
            for s in self.step_counts
            for w in self.omegas
        ]

    def call(self, spec):
        method, steps, omega, k = spec
        schedule = self.schedules[steps]
        counter = diffinv.CallCounter(self.pred)
        z_t, report = diffinv.invert_trajectory(
            schedule, counter, self.inputs[k], PromptId.SOURCE, omega, self.configs[method, steps]
        )
        rec = diffinv.sample_trajectory(schedule, counter, z_t, PromptId.SOURCE, omega)[-1]
        return z_t, report, rec, counter.calls

    def check(self, spec, raw) -> dict:
        method, steps, omega, k = spec
        z_t, report, rec, calls = raw
        cfg = self.configs[method, steps]
        z_0 = self.inputs[k]
        require(
            report.nfe == inversion_nfe(steps, cfg),
            f"inversion NFE {report.nfe} != closed form {inversion_nfe(steps, cfg)}",
        )
        require(z_t.shape == z_0.shape and rec.shape == z_0.shape, "shape changed")
        require(bool(np.all(np.isfinite(z_t))), "non-finite inverted latent")
        rel = diffinv.relative_l2(rec, z_0)
        require(math.isfinite(rel), "non-finite round-trip error")
        if cfg is not None:
            require(rel <= FIXED_POINT_TOL, f"round trip {rel:.3e} > {FIXED_POINT_TOL:g}")
        return {
            "op": f"{method}-{steps}-w{omega:g}-z{k}",
            "nfe": calls,
            "inversion_nfe": report.nfe,
            "rel_l2": rel,
            **residual_fields(report),
        }

    def summary(self, records: list[dict]) -> dict:
        """Per-config NFE and median round trip over the latents, for the baseline table."""
        by_config: dict[str, dict] = {}
        for rec in records:
            label = rec["op"].rsplit("-z", 1)[0]
            entry = by_config.setdefault(label, {"inversion_nfe": rec["inversion_nfe"], "rel": []})
            entry["rel"].append(rec["rel_l2"])
        return {
            label: {"inversion_nfe": e["inversion_nfe"], "rel_l2_median": float(np.median(e["rel"]))}
            for label, e in by_config.items()
        }


class EditD1024:
    """Masked edits of 32x32 latents, 4 candidates, alternating eta = 0 and 0.3.

    The predictor GEMV dominates (480 predictor calls per op).  With eta = 0
    the four candidates are identical, so the eta = 0 half is where
    candidate dedup or batching would show; the eta = 0.3 half checks that
    such a change costs the stochastic path nothing.
    """

    name = "edit-d1024"
    shape = (32, 32)
    steps = 20
    candidates = 4
    etas = (0.0, 0.3)
    latents = 4

    def setup(self, seed: int, workdir: Path) -> None:
        self.pred = diffinv.ContractivePredictor.default(int(np.prod(self.shape)), seed=0)
        self.schedule = diffinv.build_schedule().subsample(self.steps)
        rng = np.random.default_rng(seed)
        self.inputs = [rng.standard_normal(self.shape) for _ in range(self.latents)]
        edit_seed = int(rng.integers(2**31))
        self.configs = {
            (k, eta): diffinv.EditConfig(eta=eta, n_candidates=self.candidates, seed=edit_seed + k)
            for k in range(self.latents)
            for eta in self.etas
        }
        self.cycle = [(k, eta) for k in range(self.latents) for eta in self.etas]

    def call(self, spec):
        counter = diffinv.CallCounter(self.pred)
        result = diffinv.edit(
            self.schedule,
            counter,
            self.inputs[spec[0]],
            PromptId.SOURCE,
            PromptId.TARGET,
            self.configs[spec],
        )
        return result, counter.calls

    def check(self, spec, raw) -> dict:
        k, eta = spec
        result, calls = raw
        cfg = self.configs[spec]
        z_0 = self.inputs[k]
        expected_nfe = inversion_nfe(self.steps, cfg.fixed_point)
        require(result.report.nfe == expected_nfe, f"inversion NFE {result.report.nfe} != {expected_nfe}")
        rel = diffinv.relative_l2(result.reconstruction, z_0)
        require(rel <= FIXED_POINT_TOL, f"reconstruction {rel:.3e} > {FIXED_POINT_TOL:g}")
        require(len(result.candidates) == self.candidates, "wrong candidate count")
        for c in result.candidates:
            require(c.shape == z_0.shape and bool(np.all(np.isfinite(c))), "bad candidate")
        distinct = len({c.tobytes() for c in result.candidates})
        if eta == 0.0:
            require(distinct == 1, f"eta = 0 candidates differ ({distinct} distinct)")
        require(not any(math.isnan(s) for s in result.scores), "NaN candidate score")
        require(result.best_index == int(np.argmin(result.scores)), "best index is not the argmin")
        return {
            "op": f"eta{eta:g}-z{k}",
            "nfe": calls,
            "inversion_nfe": result.report.nfe,
            "rel_l2": rel,
            "distinct_candidates": distinct,
            "scores": list(result.scores),
            "best_index": result.best_index,
            **residual_fields(result.report),
        }

    def summary(self, records: list[dict]) -> dict:
        return {}


_NFE = re.compile(r"\bnfe=(\d+)")
_ROUND_TRIP = re.compile(r"\bround_trip_l2=(\S+)")


class CliD256:
    """In-process CLI invocations on 16x16 text latents written at setup.

    Cycles invert, reconstruct, edit and grid, half with the CLI's default
    generated predictor and half with a predictor spec that loads explicit
    text weight files, so predictor construction and tensor I/O are paid on
    every op.
    """

    name = "cli-d256"
    shape = (16, 16)
    commands = ("invert", "reconstruct", "edit", "grid")
    variants = ("generated", "loaded")
    latents = 2
    norms = {"null": 0.1, "source": 0.4, "target": 0.4}

    def __init__(self):
        self.grid_reference: dict[str, bytes] = {}
        self.api_preds: dict = {}
        self.api_results: dict = {}

    def setup(self, seed: int, workdir: Path) -> None:
        dim = int(np.prod(self.shape))
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.inputs = []
        for k in range(self.latents):
            z = rng.standard_normal(self.shape)
            diffinv.fileio.save_tensor(workdir / f"z{k}.txt", z)
            self.inputs.append(z)
        h, w = self.shape
        cy, cx = rng.uniform(0, h - 1), rng.uniform(0, w - 1)
        yy, xx = np.mgrid[0:h, 0:w]
        blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * (h / 4.0) ** 2))
        diffinv.fileio.save_tensor(workdir / "attention.txt", blob + 0.05 * rng.random(self.shape))
        spec_lines = ["kind = contractive", "scale = 0.1"]
        for prompt, norm in self.norms.items():
            weights = rng.standard_normal((dim, dim))
            weights *= norm / np.linalg.norm(weights, 2)
            diffinv.fileio.save_tensor(workdir / f"w_{prompt}.txt", weights)
            spec_lines.append(f"w_{prompt} = w_{prompt}.txt")
        self.spec_path = workdir / "predictor.txt"
        self.spec_path.write_text("\n".join(spec_lines) + "\n", encoding="utf-8")
        self.grid_seed = int(rng.integers(2**31))
        self.edit_seed = int(rng.integers(2**31))
        self.schedule = diffinv.build_schedule().subsample(20)
        self.cycle = [
            (variant, command, k)
            for k in range(self.latents)
            for variant in self.variants
            for command in self.commands
        ]
        self.argv = {spec: self._argv(*spec) for spec in self.cycle}

    def _output(self, variant, command, k) -> Path:
        suffix = {"reconstruct": ".bin", "grid": ".csv"}.get(command, ".txt")
        return self.workdir / f"out-{variant}-{command}-{k}{suffix}"

    def _argv(self, variant, command, k) -> list[str]:
        out = str(self._output(variant, command, k))
        z_in = str(self.workdir / f"z{k}.txt")
        if command == "grid":
            argv = ["grid", "--dim", str(int(np.prod(self.shape))), "--steps", "10",
                    "--omega", "1,7", "--method", "averaged,euler",
                    "--seed", str(self.grid_seed), "--out", out]
        elif command == "edit":
            argv = ["edit", "--in", z_in, "--out", out, "--steps", "20", "--eta", "0.3",
                    "--candidates", "4", "--attention", str(self.workdir / "attention.txt"),
                    "--seed", str(self.edit_seed + k)]
        else:
            argv = [command, "--in", z_in, "--out", out, "--steps", "20", "--method", "averaged"]
        if variant == "loaded":
            argv += ["--predictor", str(self.spec_path)]
        return argv

    def call(self, spec):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = diffinv.cli.main(self.argv[spec])
        return code, stdout.getvalue(), stderr.getvalue()

    def _api_z_t(self, variant, k):
        """The library API's inversion of latent k, which `invert` must write bit-exactly."""
        if (variant, k) not in self.api_results:
            if variant not in self.api_preds:
                self.api_preds[variant] = (
                    diffinv.load_predictor(self.spec_path)
                    if variant == "loaded"
                    else diffinv.ContractivePredictor.default(int(np.prod(self.shape)), seed=0)
                )
            z_t, _ = diffinv.invert_trajectory(
                self.schedule, self.api_preds[variant], self.inputs[k], PromptId.SOURCE, 1.0,
                method_config("averaged", 20),
            )
            self.api_results[variant, k] = z_t
        return self.api_results[variant, k]

    def check(self, spec, raw) -> dict:
        variant, command, k = spec
        code, stdout, stderr = raw
        require(code == 0, f"exit code {code}: {stderr.strip()}")
        path = self._output(variant, command, k)
        require(path.is_file(), f"{command} wrote no output")
        try:
            return self._check_output(variant, command, k, path, stdout)
        finally:
            # A later op must not pass on a file this one left behind.
            path.unlink()
            Path(str(path) + ".scores.csv").unlink(missing_ok=True)

    def _check_output(self, variant, command, k, path: Path, stdout: str) -> dict:
        blob = path.read_bytes()
        record = {"op": f"{variant}-{command}-z{k}", "nfe": None, "rel_l2": None,
                  "output_sha256": hashlib.sha256(blob).hexdigest()}
        if command == "grid":
            reference = self.grid_reference.setdefault(variant, blob)
            require(blob == reference, "grid CSV differs from the first grid op")
            rows = blob.decode("utf-8").splitlines()[1:]
            require(len(rows) == 4, f"grid wrote {len(rows)} rows, expected 4")
            record["nfe"] = sum(int(row.split(",")[5]) for row in rows)
            return record
        out = diffinv.fileio.load_tensor(path)
        require(out.shape == self.shape, f"{command} output has shape {out.shape}")
        if command == "edit":
            rows = Path(str(path) + ".scores.csv").read_text(encoding="utf-8").splitlines()[1:]
            scores = [float(row.split(",")[1]) for row in rows]
            require(len(scores) == 4, f"edit wrote {len(scores)} scores, expected 4")
            require(not any(math.isnan(s) for s in scores), "NaN candidate score")
            require(bool(np.all(np.isfinite(out))), "non-finite edit output")
            return record
        expected_nfe = inversion_nfe(20, method_config("averaged", 20))
        printed = _NFE.search(stdout)
        require(printed is not None and int(printed.group(1)) == expected_nfe,
                f"printed NFE {printed and printed.group(1)} != {expected_nfe}")
        record["nfe"] = expected_nfe
        if command == "invert":
            require(out.tobytes() == self._api_z_t(variant, k).tobytes(),
                    "CLI invert output is not bit-equal to the API result")
            printed = _ROUND_TRIP.search(stdout)
            require(printed is not None, "invert printed no round-trip error")
            record["rel_l2"] = float(printed.group(1))
        else:
            record["rel_l2"] = diffinv.relative_l2(out, self.inputs[k])
            require(record["rel_l2"] <= FIXED_POINT_TOL, f"reconstruction {record['rel_l2']:.3e}")
        return record

    def summary(self, records: list[dict]) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in (InvertD64, EditD1024, CliD256)}
