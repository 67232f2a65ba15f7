from pathlib import Path

import numpy as np
import pytest

from diffinv import ConstantPredictor, ContractivePredictor
from diffinv.bench import (
    CSV_HEADER,
    DEFAULT_ITERS,
    ExperimentGrid,
    GridRow,
    method_config,
    run_grid,
    write_grid_csv,
)


class TestMethodConfig:
    def test_euler_is_none(self):
        assert method_config("euler", 20) is None

    @pytest.mark.parametrize("method", ["euler", "plain"])
    @pytest.mark.parametrize("budget", [{"iters": 0}, {"iters": -2}, {"window": -5}])
    def test_bad_budget_rejected_for_every_method(self, method, budget):
        with pytest.raises(ValueError, match="must be >= 1"):
            method_config(method, 20, **budget)

    @pytest.mark.parametrize("method", ["plain", "averaged", "anderson"])
    def test_variants(self, method):
        cfg = method_config(method, 20)
        assert cfg.variant == method
        assert cfg.iters == DEFAULT_ITERS[20]

    def test_iteration_budget_per_step_count(self):
        assert method_config("plain", 10).iters == 11
        assert method_config("plain", 20).iters == 6
        assert method_config("plain", 50).iters == 5
        assert method_config("plain", 13).iters == 6  # fallback
        assert method_config("plain", 20, iters=9).iters == 9

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="^method must be one of "):
            method_config("newton", 20)


class TestRunGrid:
    def test_single_cell_zero_predictor(self):
        grid = ExperimentGrid(
            step_counts=(10,), omegas=(1.0,), methods=("averaged",), dim=8, seed=5
        )
        rows = run_grid(grid, ConstantPredictor(0.0))
        assert len(rows) == 1
        row = rows[0]
        assert row.method == "averaged"
        assert row.steps == 10
        assert row.omega == 1.0
        assert row.round_trip_relative_l2 <= 1e-12
        assert np.isfinite(row.psnr)

    def test_row_count_and_canonical_order(self):
        grid = ExperimentGrid(
            step_counts=(20, 10), omegas=(1.0, 0.0), methods=("euler", "averaged"),
            dim=8, seed=0,
        )
        rows = run_grid(grid, ContractivePredictor.default(grid.dim, 0))
        assert len(rows) == 8
        keys = [(r.method, r.steps, r.omega) for r in rows]
        assert keys == sorted(keys)

    def test_fixed_point_beats_euler_at_zero_guidance(self):
        grid = ExperimentGrid(
            step_counts=(10, 20), omegas=(0.0,), methods=("euler", "averaged"),
            dim=16, seed=3,
        )
        rows = run_grid(grid, ContractivePredictor.default(grid.dim, 0))
        by_key = {(r.method, r.steps): r.round_trip_relative_l2 for r in rows}
        for steps in (10, 20):
            assert by_key[("averaged", steps)] < by_key[("euler", steps)]

    def test_default_grid_averaged_beats_euler_in_every_steps_row(self):
        # paired-run property on the default axes with the default predictor
        grid = ExperimentGrid(methods=("euler", "averaged"))
        rows = run_grid(grid, ContractivePredictor.default(grid.dim, 0))
        by_key = {(r.method, r.steps, r.omega): r.round_trip_relative_l2 for r in rows}
        default = ExperimentGrid()
        for steps in default.step_counts:
            assert by_key[("averaged", steps, 0.0)] < by_key[("euler", steps, 0.0)]

    def test_nfe_matches_instrumented_counts(self):
        grid = ExperimentGrid(
            step_counts=(10,), omegas=(1.0,), methods=("euler", "plain"), dim=8, seed=1
        )
        rows = run_grid(grid, ContractivePredictor.default(grid.dim, 0))
        by_method = {r.method: r for r in rows}
        assert by_method["euler"].nfe == 2 * 10
        assert by_method["plain"].nfe == 2 * 10 * (DEFAULT_ITERS[10] + 1)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentGrid(step_counts=())
        with pytest.raises(ValueError, match="^method must be one of .*; got 'warp'$"):
            ExperimentGrid(methods=("euler", "warp"))
        with pytest.raises(ValueError, match=r"dim must be an integer, got 2\.5"):
            ExperimentGrid(dim=2.5)
        with pytest.raises(ValueError, match="dim must be an integer, got True"):
            ExperimentGrid(dim=True)
        with pytest.raises(ValueError, match=r"seed must be an integer, got 1\.5"):
            ExperimentGrid(seed=1.5)
        with pytest.raises(ValueError, match=r"iters must be an integer, got 2\.5"):
            ExperimentGrid(iters=2.5)
        with pytest.raises(ValueError, match=r"window must be an integer, got 1\.5"):
            ExperimentGrid(methods=("euler",), window=1.5)
        assert ExperimentGrid(dim=np.int64(8), seed=np.int64(1)).dim == 8

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"dim": 0}, "dim must be >= 1"),
            ({"dim": -3}, "dim must be >= 1"),
            ({"iters": 0}, "iters must be >= 1"),
            ({"window": 0}, "window must be >= 1"),
            ({"step_counts": (10, 0)}, "n_steps must be in"),
            ({"step_counts": (10, 2.5)}, "n_steps must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"step_counts": (10, 20, 10)}, "grid steps values must be distinct"),
            ({"omegas": (1.0, 1.0)}, "grid omega values must be distinct"),
            ({"omegas": (1.0, np.nan)}, "omega must be finite, got nan"),
            ({"omegas": (np.inf,)}, "omega must be finite, got inf"),
            ({"omegas": ("1",)}, "omega must be a real number, got '1'"),
            ({"methods": ("plain", "euler", "plain")}, "grid method values must be distinct"),
        ],
    )
    def test_every_cell_validated_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExperimentGrid(**fields)


class TestCsv:
    def test_header_and_formatting(self, tmp_path):
        rows = [
            GridRow("euler", 10, 0.0, 1.234567891234e-05, 87.65432109, 20, 12.5, 7),
        ]
        path = tmp_path / "g.csv"
        write_grid_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "euler,10,0,1.23456789e-05,87.6543211,20,0,7"

    def test_timing_flag_controls_wall_column(self, tmp_path):
        rows = [GridRow("euler", 10, 0.0, 1e-5, 80.0, 20, 12.5, 7)]
        path = tmp_path / "g.csv"
        write_grid_csv(rows, path, timing=True)
        assert ",12.5," in path.read_text()

    def test_byte_determinism(self, tmp_path):
        grid = ExperimentGrid(
            step_counts=(10,), omegas=(0.0, 1.0), methods=("euler", "averaged"),
            dim=8, seed=9,
        )
        pred = ContractivePredictor.default(grid.dim, 0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_grid_csv(run_grid(grid, pred), p1)
        write_grid_csv(run_grid(grid, pred), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_newline_discipline(self, tmp_path):
        rows = [GridRow("euler", 10, 0.0, 1e-5, 80.0, 20, 0.0, 7)]
        path = tmp_path / "g.csv"
        write_grid_csv(rows, path)
        blob = path.read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")


class TestBenchmarkOracle:
    """Benchmark ops pass each workload's own oracle.

    `invert-d64` spells Euler as `method_config("euler", s) is None`, every
    workload counts its inversion NFE in closed form and gates fixed-point
    reconstructions at 1e-4, and `cli-d256` requires the CLI's inversion to
    equal the API's bit for bit.  A solver change that breaks any of these
    fails here instead of turning benchmark ops into failures.
    """

    @pytest.fixture
    def workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        return workloads

    @pytest.mark.parametrize("name, n_ops", [("edit-d1024", 2), ("cli-d256", 8)])
    def test_first_ops_pass_their_oracle(self, workloads, tmp_path, name, n_ops):
        # edit-d1024: eta 0 and 0.3; cli-d256: every command with both predictors
        workload = workloads.WORKLOADS[name]()
        workload.setup(1, tmp_path)
        records = [workload.check(spec, workload.call(spec)) for spec in workload.cycle[:n_ops]]
        assert len({r["op"] for r in records}) == n_ops

    def test_invert_d64_cycle_passes_its_oracle(self, workloads, tmp_path):
        workload = workloads.InvertD64()
        workload.setup(1, tmp_path)
        records = [workload.check(spec, workload.call(spec)) for spec in workload.cycle]
        assert len(records) == 96
        euler = [r for r in records if r["op"].startswith("euler-")]
        assert len(euler) == 24
        assert all(r["iterations"] == 0 for r in euler)
