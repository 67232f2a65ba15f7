"""The behaviour-record comparison rebuilds both checkouts' records and lists the JSON paths that differ."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "behaviour_records.py"
_spec = importlib.util.spec_from_file_location("behaviour_records", SCRIPT)
records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(records)


def test_lists_each_differing_leaf_with_both_values():
    old = {"summary": {"nfe_per_op": 346.7, "digits": 8.6},
           "ops": [{"rel_l2": 2.14e-08, "op": "a"}, {"rel_l2": 1e-9, "op": "b"}]}
    new = {"summary": {"nfe_per_op": 346.7, "digits": 8.7},
           "ops": [{"rel_l2": 2.01e-08, "op": "a"}, {"rel_l2": 1e-9, "op": "b"}]}
    assert records.difference_lines(old, new) == [
        "  ops[0].rel_l2: 2.14e-08 -> 2.01e-08",
        "  summary.digits: 8.6 -> 8.7",
    ]


def test_absent_keys_and_items_and_json_spelling():
    old = {"a": [1, 2], "b": 1, "n": math.nan, "t": True}
    new = {"a": [1], "b": 1.0, "c": None, "n": math.nan, "t": 1}
    assert records.difference_lines(old, new) == [
        "  a[1]: 2 -> (absent)",
        "  b: 1 -> 1.0",
        "  c: (absent) -> null",
        "  t: true -> 1",
    ]


def test_equal_records_list_nothing():
    record = {"ops": [{"x": 1.5}], "summary": {"y": None}}
    assert records.difference_lines(record, {"ops": [{"x": 1.5}], "summary": {"y": None}}) == []


def test_at_most_max_paths_are_listed():
    old = {"ops": [{"v": i} for i in range(25)]}
    new = {"ops": [{"v": i + 1} for i in range(25)]}
    lines = records.difference_lines(old, new)
    assert len(lines) == records.MAX_PATHS + 1
    assert lines[0] == "  ops[0].v: 0 -> 1"
    assert lines[-1] == f"  ... and {25 - records.MAX_PATHS} more"


def _write_records(checkout, value):
    results = checkout / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for workload in records.WORKLOADS:
        for kind in ("behaviour", "trace-behaviour"):
            record = {"summary": {"v": value}, "provenance": {}}
            (results / f"{workload}.seed1.{kind}.json").write_text(json.dumps(record))


def test_base_comparison_rebuilds_both_checkouts(tmp_path, monkeypatch, capsys):
    """Records this checkout already holds are rebuilt, so stale ones cannot read `same`."""
    base, here = tmp_path / "base", tmp_path / "here"
    # Left over from older sources, and equal to what the base builds.
    _write_records(here, 1)
    built = []

    def build(checkout):
        built.append(checkout)
        _write_records(checkout, 1 if checkout == base else 2)

    monkeypatch.setattr(records, "build", build)
    monkeypatch.chdir(here)
    monkeypatch.setattr(sys, "argv", ["behaviour_records.py", "--base", str(base)])
    with pytest.raises(SystemExit) as exit_:
        records.main()
    out = capsys.readouterr().out
    assert built == [here, base] and exit_.value.code == 1
    assert out.count("differs") == 6 and "  summary.v: 1 -> 2" in out
