"""Tests of the benchmark's own logic: self-time arithmetic, the correctness
gate, span collection from pool workers, and the host-speed probe.

Run with: python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from recorder import Recorder, read_snapshots, self_times, summarize
from run import OpResult, host_probe, run_op, sequence_metrics

HERE = Path(__file__).resolve().parent


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0, 100] holds a [10, 30] and b [40, 70]; b holds c [45, 55]
    rec = Recorder(clock=fake_clock([0, 10, 30, 40, 45, 55, 70, 100]))
    outer = rec.begin(rec.name_id("outer"))
    a = rec.begin(rec.name_id("a"))
    rec.end(a)
    b = rec.begin(rec.name_id("b"))
    c = rec.begin(rec.name_id("c"))
    rec.end(c)
    rec.end(b)
    rec.end(outer)
    by_name = {rec.names[k]: ns for k, ns in self_times(rec.spans).items()}
    assert by_name == {"outer": 50, "a": 20, "b": 20, "c": 10}


def test_summarize_adds_repeated_names_and_processes():
    parent = {"names": ["step", "relax"], "spans": [[0, 0, 10, -1], [1, 2, 6, 0]], "counts": {"n": 1}}
    worker = {"names": ["relax"], "spans": [[0, 100, 103, -1]], "counts": {"n": 2}}
    self_s, total_s, counts = summarize([parent, worker])
    assert self_s == {"step": 6e-9, "relax": 7e-9}
    assert total_s == {"step": 10e-9, "relax": 7e-9}
    assert counts == {"n": 3}


def _writer(out_dir: Path, text: str, code: int = 0) -> list[str]:
    script = (
        "import pathlib, sys; p = pathlib.Path(sys.argv[1]); p.mkdir(parents=True, exist_ok=True); "
        "(p / 'out.csv').write_text(sys.argv[2]); sys.exit(int(sys.argv[3]))"
    )
    return [sys.executable, "-c", script, str(out_dir), text, str(code)]


def test_gate_counts_corrupted_missing_and_failing_outputs(tmp_path):
    out = tmp_path / "cmd"
    pinned = {"out.csv": hashlib.sha256(b"a,b\n1,2\n").hexdigest()}
    assert not run_op("ok", _writer(out, "a,b\n1,2\n"), out, pinned).failed
    corrupted = run_op("corrupt", _writer(out, "a,b\n1,3\n"), out, pinned)
    assert corrupted.failed and "out.csv" in corrupted.problems[0]
    assert run_op("crash", _writer(out, "a,b\n1,2\n", code=1), out, pinned).failed
    assert run_op("missing", [sys.executable, "-c", "pass"], out, pinned).failed
    extra = run_op("extra", _writer(out, "x\n"), out, {})
    assert extra.failed


def test_traced_pool_run_collects_worker_spans(tmp_path):
    spans = tmp_path / "spans"
    spans.mkdir()
    cells, reps, periods = 2, 2, 3
    argv = [
        sys.executable, str(HERE / "launch.py"), str(tmp_path / "marks.json"), str(spans), "--",
        "phase-grid", "--synth-nodes", "20", "--synth-density", "0.3", "--b-steps", str(cells),
        "--sigma-steps", "1", "--replications", str(reps), "--t-burn", "1",
        "--t-stat", str(periods - 1), "--threads", "2", "--out-dir", str(tmp_path / "out"),
    ]
    subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
    marks = json.loads((tmp_path / "marks.json").read_text())
    assert marks["import_done"] < marks["substrate_ready"] and marks["peak_rss_kb"] > 0
    snaps = read_snapshots(spans)
    assert len({s["pid"] for s in snaps}) >= 2  # the parent and at least one worker
    self_s, _, counts = summarize(snaps)
    assert counts["dynamics.periods"] == cells * reps * periods
    assert counts["experiments.pool_tasks"] == cells
    assert self_s["dynamics.step"] > 0 and self_s["experiments.pool_wait"] > 0


def test_host_probe_parts_add_up_to_its_wall_times():
    probe = host_probe()
    parts = ("start_s", "import_s", "python_loop_s", "kernel_s")
    assert all(probe[k] > 0 for k in parts)
    assert abs(sum(probe[k] for k in parts) - probe["probe_s"]) < 1e-9


def test_scaling_to_reference_host_divides_times_and_keeps_memory():
    ops = [
        OpResult("simulate", wall_s=2.4, setup_s=0.6, work=1800, rss_mb=70.0, sys_s=0.1, exit_code=0),
        OpResult("tail-fit", wall_s=0.6, setup_s=None, work=0, rss_mb=60.0, sys_s=0.1, exit_code=0),
    ]
    measured = sequence_metrics(ops)
    scaled = sequence_metrics(ops, host_factor=1.5)
    assert measured["setup_s"] == [0.6] and scaled["setup_s"] == [pytest.approx(0.4)]
    del measured["setup_s"], scaled["setup_s"]
    assert measured == pytest.approx({"wall_s": 3.0, "work_per_s": 1000.0, "peak_rss_mb": 70.0})
    assert scaled == pytest.approx({"wall_s": 2.0, "work_per_s": 1500.0, "peak_rss_mb": 70.0})
