"""diffinv benchmark: one workload per run, closed loop, one op at a time.

    python3 perfbench/run.py --workload invert-d64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
Every op is checked against its oracle.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones from a separately traced run.  Detailed records go to
`perfbench/results/`: `<workload>.seed<n>.behaviour.json` (deterministic
fields only, byte-identical across runs of one seed and code),
`<workload>.seed<n>.timing.json` (times and provenance) and, when traced,
`<workload>.spans.npz` (every span).  See perfbench/README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Phase:
    """Op times of one measured phase, grouped by pass over the cycle."""

    def __init__(self):
        self.cycles: list[list[float]] = []
        self.op_ids: list[list[int]] = []

    def timed(self) -> list[list[float]]:
        """Every pass but the first, which warms caches, unless it is the only one."""
        return self.cycles[1:] or self.cycles

    def op_medians_s(self) -> list[float]:
        """Each op of the cycle, timed as its median over the timed passes.

        Every pass runs every op of the mix once, so the ops' medians are a
        stable picture of the mix: scatter from the machine is taken out per
        op before the percentiles are read across ops.
        """
        return [statistics.median(times) for times in zip(*self.timed())]

    def quantile_ms(self, q: float) -> float:
        import numpy as np

        return float(np.percentile(self.op_medians_s(), q)) * 1e3

    def ops_per_s(self) -> float:
        medians = self.op_medians_s()
        return len(medians) / sum(medians)

    def timed_ops(self) -> int:
        return sum(len(c) for c in self.timed())


class Runner:
    """Runs whole passes over a workload's cycle, timing and checking each op."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.next_op = 0
        self.first_records: list[dict] | None = None

    def phase(self, seconds: float, min_cycles: int) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        while len(phase.cycles) < min_cycles or time.perf_counter() - start < seconds:
            times, ids, records = [], [], []
            for spec in self.workload.cycle:
                ids.append(self.next_op)
                elapsed, record = self.op(spec)
                times.append(elapsed)
                records.append(record)
            phase.cycles.append(times)
            phase.op_ids.append(ids)
            if self.first_records is None:
                self.first_records = records
        return phase

    def op(self, spec):
        self.attempted += 1
        op_id, self.next_op = self.next_op, self.next_op + 1
        tracer = self.tracer
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.op, tracer.active = op_id, True
            try:
                raw = self.workload.call(spec)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.op, tracer.active = -1, False
            return elapsed, self.workload.check(spec, raw)
        except Exception:  # a failed op is counted and the run goes on
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"op {op_id} {spec!r} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return elapsed, None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "diffinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": nproc,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def behaviour_summary(workload, records: list[dict]) -> dict:
    from workloads import digits

    records = [r for r in records if r is not None]
    nfes = [r["nfe"] for r in records if r.get("nfe") is not None]
    rels = [r["rel_l2"] for r in records if r.get("rel_l2") is not None]
    return {
        "nfe_per_op": statistics.fmean(nfes) if nfes else 0.0,
        "accuracy_digits": statistics.median(digits(r) for r in rels) if rels else 0.0,
        **workload.summary(records),
    }


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def timed_run(args, workload_cls, workdir, prov, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workload_cls()
        workload.setup(args.seed, workdir)
        setups.append(time.perf_counter() - start)
    runner = Runner(workload)
    phase = runner.phase(args.seconds, min_cycles=2)
    behaviour = behaviour_summary(workload, runner.first_records)
    error_rate = runner.failed / runner.attempted
    metrics = {
        "op_ms_p50": (phase.quantile_ms(50), "ms"),
        "op_ms_p90": (phase.quantile_ms(90), "ms"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "nfe_per_op": (behaviour["nfe_per_op"], "calls"),
        "accuracy_digits": (behaviour["accuracy_digits"], "digits"),
        "ok_ratio": (1.0 - error_rate, "ratio"),
    }
    samples = {"timed_ops": phase.timed_ops(), "timed_passes": len(phase.timed()),
               "ops_per_pass": len(workload.cycle), "attempted": runner.attempted}
    stem = f"{args.workload}.seed{args.seed}"
    write_json(RESULTS / f"{stem}.behaviour.json", {
        "provenance": {**prov, "behaviour_ops": len(workload.cycle)},
        "summary": behaviour,
        "ops": runner.first_records,
    })
    write_json(RESULTS / f"{stem}.timing.json", {
        "provenance": {**prov, **samples},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "error_rate": error_rate,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "pass_op_s": phase.cycles,
    })
    print(f"samples: {json.dumps(samples)}; error_rate {error_rate:g}")
    return runner, metrics


def traced_run(args, workload_cls, workdir, prov):
    from tracer import TIMING_UNITS, Tracer, layer_metrics

    workload = workload_cls()
    workload.setup(args.seed, workdir)
    runner = Runner(workload)
    untraced = runner.phase(args.seconds / 2, min_cycles=2)

    tracer = Tracer()
    tracer.install()
    try:
        # Set up again under the tracer: this traces predictor construction
        # and hands the workload predictors wrapped in the timing proxy.
        tracer.active = True
        workload.setup(args.seed, workdir)
        tracer.active = False
        runner.tracer = tracer
        traced = runner.phase(args.seconds / 2, min_cycles=1)
    finally:
        tracer.active = False
        tracer.uninstall()

    op_ids = [i for ids in traced.op_ids for i in ids]
    metrics = layer_metrics(tracer, op_ids, traced.op_ids[0])
    counts = {k: v for k, (v, unit) in metrics.items() if unit not in TIMING_UNITS}
    traced_mean_ms = 1e3 * sum(map(sum, traced.cycles)) / len(op_ids)
    untraced_p50, traced_p50 = untraced.quantile_ms(50), traced.quantile_ms(50)
    metrics["predictor.time_share"] = (
        metrics["predictor.predict_busy_ms"][0] / traced_mean_ms, "ratio")
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    metrics["trace.overhead_ratio"] = ((traced_p50 - untraced_p50) / untraced_p50, "ratio")

    stem = f"{args.workload}.seed{args.seed}"
    write_json(RESULTS / f"{stem}.trace-behaviour.json", {
        "provenance": {**prov, "behaviour_ops": len(workload.cycle)},
        "summary": behaviour_summary(workload, runner.first_records),
        "layers": counts,
    })
    samples = {"untraced_ops": untraced.timed_ops(), "traced_ops": len(op_ids),
               "spans": len(tracer.name), "attempted": runner.attempted}
    write_json(RESULTS / f"{stem}.trace-timing.json", {
        "provenance": {**prov, **samples},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "untraced_op_ms_p50": untraced_p50,
        "traced_op_ms_p50": traced_p50,
    })
    tracer.save(RESULTS / f"{args.workload}.spans.npz")
    print(f"samples: {json.dumps(samples)}")
    return runner, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "diffinv" / "__init__.py").is_file():
        print(f"error: no diffinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import diffinv  # noqa: F401
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T0
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    prov = provenance(args, nproc)
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        if args.trace:
            runner, metrics = traced_run(args, WORKLOADS[args.workload], workdir, prov)
        else:
            runner, metrics = timed_run(args, WORKLOADS[args.workload], workdir, prov, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
