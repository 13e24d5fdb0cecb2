"""hallsand benchmark runner.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI command sequence back to back until a sequence of
median length would end after S seconds (at least once; at least twice when
tracing), checks every CSV a command writes against the sha256 pinned in
bench/digests.json, and prints a human-readable report followed, as the last
line, by one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, medians over the
sequences, with the times scaled to the reference host speed (see
PROBE_REF_S). --trace 1 alternates untraced and traced sequences and reports
the per-layer metrics from the traced ones, plus the tracing overhead.
A full record, with the machine and build context, goes to
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from recorder import read_snapshots, summarize
from workloads import (
    ROOT,
    VARIANTS,
    WORKLOADS,
    BenchmarkError,
    Command,
    Workload,
    digests,
    input_key,
    prepare_inputs,
)

HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
COMMAND_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

# The host's speed drifts by up to 1.8x over minutes, on one CPU or both.
# host_probe runs on every CPU a workload may use, before every sequence
# and once after the last. A sequence's times are scaled by its host factor,
# the mean probe_s just before and after it over PROBE_REF_S, so they read as
# on a host where the probe takes PROBE_REF_S. Scaled this way, the sequences
# of a run vary independently of each other, while as measured they drift
# together. The probe runs no hallsand code, so a program change moves the
# scaled times by the same share as the measured ones.
PROBE_PROCESSES = 2  # every workload uses at most two CPUs
PROBE_LOOP, PROBE_PERIODS = 1_200_000, 3_000
PROBE_REF_S = 1.6  # a reference probe time; probe_s ranges 0.9 to 1.9 s on the reference host

# Per-layer metrics: (name, unit, how it is read from a traced sequence).
# "self:<span>" is the span's self time, "count:<counter>" a counter's total.
PER_LAYER = (
    ("cli.import_s", "s", "self:cli.import"),
    ("cli.emit_s", "s", "self:cli.emit"),
    ("cli.emit_rows", "count", "count:cli.emit_rows"),
    ("ingest.parse_io_table_s", "s", "self:ingest.parse_io_table"),
    ("ingest.parse_io_table_calls", "count", "count:ingest.parse_io_table_calls"),
    ("ingest.rows_read", "count", "count:ingest.rows_read"),
    ("ingest.list_years_s", "s", "self:ingest.list_years"),
    ("ingest.write_io_table_s", "s", "self:ingest.write_io_table"),
    ("ingest.synth_substrate_s", "s", "self:ingest.synth_substrate"),
    ("operators.build_operator_s", "s", "self:operators.build_operator"),
    ("operators.spectral_radius_s", "s", "self:operators.spectral_radius"),
    ("operators.spectral_radius_calls", "count", "count:operators.spectral_radius_calls"),
    ("exposure.compute_exposure_s", "s", "self:exposure.compute_exposure"),
    ("dynamics.step_s", "s", "self:dynamics.step"),
    ("dynamics.relax_s", "s", "self:dynamics.relax"),
    ("dynamics.periods", "count", "count:dynamics.periods"),
    ("dynamics.relax_rounds", "count", "count:dynamics.relax_rounds"),
    ("dynamics.topple_events", "count", "count:dynamics.topple_events"),
    ("dynamics.matvecs", "count", "matvecs"),
    ("dynamics.matvecs_per_s", "1/s", "matvecs_per_s"),
    ("dynamics.matvec_bytes_computed", "bytes", "count:dynamics.matvec_bytes_computed"),
    ("dynamics.init_state_s", "s", "self:dynamics.init_state"),
    ("dynamics.init_state_calls", "count", "count:dynamics.init_state_calls"),
    ("experiments.pool_tasks", "count", "count:experiments.pool_tasks"),
    ("experiments.pool_payload_bytes", "bytes", "count:experiments.pool_payload_bytes"),
    ("experiments.pool_wait_s", "s", "self:experiments.pool_wait"),
    ("proc.sys_s", "s", "sys_s"),
    ("experiments.run_scenario_s", "s", "self:experiments.run_scenario"),
    ("experiments.run_phase_grid_s", "s", "self:experiments.run_phase_grid"),
    ("experiments.make_cell_stats_s", "s", "self:experiments.make_cell_stats"),
    ("experiments.convergence_report_s", "s", "self:experiments.convergence_report"),
    ("tail.select_xmin_s", "s", "self:tail.select_xmin"),
    ("tail.ccdf_s", "s", "self:tail.ccdf"),
    ("tail.candidates", "count", "count:tail.candidates"),
    ("trace.overhead_pct", "%", "overhead"),
)


@dataclass
class OpResult:
    """One CLI command as run: an operation of the correctness gate."""

    label: str
    wall_s: float
    setup_s: float | None
    work: int
    rss_mb: float
    sys_s: float
    exit_code: int
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def run_op(label: str, argv: list[str], out_dir: Path, pinned: dict[str, str] | None,
           setup: str | None = None, work: int = 0, marks_path: Path | None = None) -> OpResult:
    """Run one command in its own session, time it, and check the CSVs it wrote.

    The op fails on a non-zero exit, or when the CSVs in out_dir differ from
    the pinned digests (changed, missing or extra files).
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    if marks_path is not None:
        marks_path.unlink(missing_ok=True)
    start = time.monotonic_ns()
    # stderr goes to a file: a pipe nobody reads while waiting can fill and block the child
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: stop the command's whole session before leaving
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}: {stderr.strip()[-300:]}")
    if pinned is not None:
        found = digests(out_dir) if out_dir.is_dir() else {}
        for name in sorted(set(pinned) | set(found)):
            if pinned.get(name) != found.get(name):
                problems.append(f"{name}: sha256 {found.get(name, 'missing')} != pinned {pinned.get(name, 'none')}")
    marks = {}
    if marks_path is not None and marks_path.exists():
        marks = json.loads(marks_path.read_text())
    setup_s = None
    if setup is not None:
        mark = {"substrate": "substrate_ready", "import": "import_done"}[setup]
        if mark in marks:
            setup_s = (marks[mark] - start) / 1e9
    # the child's own ru_maxrss also counts this process's peak from before exec
    rss_kb = marks.get("peak_rss_kb", usage.ru_maxrss)
    return OpResult(
        label=label,
        wall_s=(end - start) / 1e9,
        setup_s=setup_s,
        work=work,
        rss_mb=rss_kb / 1024.0,
        sys_s=usage.ru_stime,
        exit_code=proc.returncode,
        problems=problems,
    )


# One probe process: a fresh interpreter that imports numpy and scipy.sparse,
# as every command's set-up does, then runs a pure-Python loop and a loop of
# small sparse and numpy operations much like a cascade engine's period on a
# 200-node network. It prints the three times it took and the
# CLOCK_MONOTONIC time it ended, which is shared by all processes.
_PROBE_CODE = f"""
import time
t0 = time.perf_counter()
import numpy as np, scipy.sparse
t1 = time.perf_counter()
def loop():
    acc = 0
    for i in range({PROBE_LOOP}):
        acc += i * i
loop()
t2 = time.perf_counter()
def kernel():
    rng = np.random.default_rng(0)
    a = scipy.sparse.random(200, 200, density=0.1, random_state=1, format="csr") * 0.1
    s = np.zeros(200)
    hit = set()
    for _ in range({PROBE_PERIODS}):
        s = 0.9 * s + 0.2 * rng.random(200) + 0.05 * (a @ s)
        np.maximum(s, 0.0, out=s)
        over = s >= 1.0
        if np.count_nonzero(over):
            send = np.where(over, s - 0.5, 0.0)
            s[over] = 0.5
            s += a @ send
            hit.update(np.flatnonzero(over).tolist())
kernel()
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2, time.monotonic())
"""


def host_probe() -> dict[str, float]:
    """Fixed host-speed probe, timed between sequences; it runs no hallsand code.

    PROBE_PROCESSES fresh interpreters start together. probe_s, the sum of
    their wall times, is the run's host-speed unit (see PROBE_REF_S); the
    parts (interpreter start, import, loop, kernel) are summed over them too.
    """
    procs = []
    start = time.monotonic()
    try:
        for _ in range(PROBE_PROCESSES):
            procs.append(subprocess.Popen([sys.executable, "-c", _PROBE_CODE],
                                          stdout=subprocess.PIPE, text=True))
        parts = []
        for proc in procs:
            out, _ = proc.communicate(timeout=COMMAND_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchmarkError(f"host probe exited {proc.returncode}")
            parts.append([float(x) for x in out.split()])
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    import_s, loop_s, kernel_s = (sum(p[k] for p in parts) for k in range(3))
    probe_s = sum(p[3] - start for p in parts)
    return {"start_s": probe_s - import_s - loop_s - kernel_s, "import_s": import_s,
            "python_loop_s": loop_s, "kernel_s": kernel_s, "probe_s": probe_s}


def machine_context() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
        "src_sha256": digests_of_source(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def digests_of_source() -> str:
    """One sha256 over the package sources, naming the build when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_sequence(commands: list[Command], out_root: Path, pinned: dict[str, str] | None,
                 traced: bool) -> tuple[list[OpResult], dict | None]:
    """Run the workload's commands once; with traced, also merge their spans.

    pinned maps "<command label>/<csv path>" to sha256; None skips the check.
    """
    ops = []
    snapshots = []
    spans_dir = WORK_DIR / "spans"
    marks = WORK_DIR / "marks.json"
    for cmd in commands:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "launch.py"), str(marks),
                str(spans_dir) if traced else "-", "--", *cmd.args]
        prefix = cmd.label + "/"
        expected = None if pinned is None else {
            k[len(prefix):]: v for k, v in pinned.items() if k.startswith(prefix)
        }
        ops.append(run_op(cmd.label, argv, out_root / cmd.label, expected, cmd.setup, cmd.work, marks))
        if traced:
            snapshots.extend(read_snapshots(spans_dir))
    shutil.rmtree(spans_dir, ignore_errors=True)
    return ops, (trace_values(ops, snapshots) if traced else None)


def trace_values(ops: list[OpResult], snapshots: list[dict]) -> dict:
    self_s, total_s, counts = summarize(snapshots)
    matvecs = counts.get("dynamics.periods", 0) + counts.get("dynamics.relax_rounds", 0)
    step_s = total_s.get("dynamics.step", 0.0)
    derived = {
        "matvecs": matvecs,
        "matvecs_per_s": matvecs / step_s if step_s > 0 else 0.0,
        "sys_s": sum(op.sys_s for op in ops),
    }
    values = {}
    for name, _, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "self":
            values[name] = self_s.get(key, 0.0)
        elif kind == "count":
            values[name] = counts.get(key, 0)
        elif source in derived:
            values[name] = derived[source]
    values["missing"] = sorted(k.removeprefix("missing:") for k in counts if k.startswith("missing:"))
    values["self_s"] = self_s
    return values


def sequence_metrics(ops: list[OpResult], host_factor: float = 1.0) -> dict:
    """End-to-end values of one sequence, or fewer keys if a command failed.

    Times are divided by the sequence's host factor and rates multiplied by
    it (see PROBE_REF_S); memory is not scaled. setup_s is a list, one per
    set-up command.
    """
    out = {
        "wall_s": sum(op.wall_s for op in ops) / host_factor,
        "setup_s": [op.setup_s / host_factor for op in ops if op.setup_s is not None],
        "peak_rss_mb": max(op.rss_mb for op in ops),
    }
    worked = [op for op in ops if op.work > 0]
    if worked and all(op.setup_s is not None for op in worked):
        rate = sum(op.work for op in worked) / sum(op.wall_s - op.setup_s for op in worked)
        out["work_per_s"] = rate * host_factor
    return out


def end_to_end(sequences: list[tuple[list[OpResult], float]]) -> dict[str, float]:
    """Medians over (ops, host factor) sequences of every end-to-end metric."""
    samples = [sequence_metrics(ops, factor) for ops, factor in sequences]
    return {
        "wall_s": median_or_nan([s["wall_s"] for s in samples]),
        "setup_s": median_or_nan([x for s in samples for x in s["setup_s"]]),
        "work_per_s": median_or_nan([s["work_per_s"] for s in samples if "work_per_s" in s]),
        "peak_rss_mb": median_or_nan([s["peak_rss_mb"] for s in samples]),
    }


def median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind through the finally blocks that stop child processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "hallsand" / "cli.py").is_file():
        print(f"error: no hallsand source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        code = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


def run_workload(workload: Workload, seed: int, seconds: float, trace: int) -> int:
    variant = seed % VARIANTS
    try:
        pins = json.loads(DIGESTS.read_text())
        key = input_key(workload, variant)
        inputs = None
        if key is not None:
            inputs, _ = prepare_inputs(key, WORK_DIR, pins["inputs"][key])
        pinned = pins["outputs"][workload.name][str(variant)]
    except (BenchmarkError, OSError, KeyError, ValueError) as err:
        print(f"benchmark error: {err!r}", file=sys.stderr)
        return 3

    out_root = WORK_DIR / "runs" / workload.name
    commands = workload.commands(variant, inputs, out_root)
    context = machine_context()
    probes, sequences = [], []  # sequences: (ops, layer values or None), in run order
    begin = time.monotonic()
    while True:
        n_traced = sum(values is not None for _, values in sequences)
        tracing = bool(trace) and len(sequences) - n_traced > n_traced
        probes.append(host_probe())
        sequences.append(run_sequence(commands, out_root, pinned, tracing))
        walls = [sum(op.wall_s for op in ops) for ops, _ in sequences]
        enough = n_traced + tracing >= 1 if trace else True
        if enough and time.monotonic() - begin + statistics.median(walls) > seconds:
            break
    probes.append(host_probe())
    # a sequence's host factor: the mean of the probes just before and after it
    factors = [(a["probe_s"] + b["probe_s"]) / (2 * PROBE_REF_S) for a, b in zip(probes, probes[1:])]
    plain = [(ops, factor) for (ops, values), factor in zip(sequences, factors) if values is None]
    traced = [(ops, values, factor) for (ops, values), factor in zip(sequences, factors) if values is not None]
    ops_all = [op for ops, _ in sequences for op in ops]

    failed = [op for op in ops_all if op.failed]
    e2e = end_to_end(plain)
    raw = end_to_end([(ops, 1.0) for ops, _ in plain])

    print(f"workload {workload.name}  seed {seed} (input variant {variant})  "
          f"sequences {len(plain)} untraced, {len(traced)} traced")
    for op in failed:
        print(f"  FAILED {op.label}: {'; '.join(op.problems)}")
    print(f"  failed_share {len(failed)}/{len(ops_all)} = {len(failed) / len(ops_all):.4g}")
    print(f"  host factor   {' '.join(f'{f:.3f}' for f in factors)} (probe_s / {PROBE_REF_S} s)")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {e2e[name]:.6g} {unit}  (as measured: {raw[name]:.6g} {unit})")
    for part in probes[0]:
        print(f"  host probe    {part} {' '.join(f'{p[part]:.4f}' for p in probes)}")
    print(f"  context       {json.dumps(context)}")

    record = {"workload": workload.name, "seed": seed, "variant": variant,
              "seconds": seconds, "trace": trace, "context": context,
              "host_probe": probes, "host_factors": factors,
              "end_to_end": e2e, "end_to_end_as_measured": raw,
              "sequences": [[op.__dict__ for op in ops] for ops, _ in sequences],
              "traced": [values is not None for _, values in sequences]}
    if trace:
        layer = {}
        for name, unit, _ in PER_LAYER[:-1]:
            layer[name] = median_or_nan([t[name] for _, t, _ in traced])
        # both sides scaled by their host factors, so drift between them cancels
        traced_wall = end_to_end([(ops, factor) for ops, _, factor in traced])["wall_s"]
        layer["trace.overhead_pct"] = 100.0 * (traced_wall / e2e["wall_s"] - 1.0)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, value in layer.items():
            print(f"  {name:<34} {value:.6g} {units[name]}")
        missing = traced[-1][1]["missing"]
        if missing:
            print(f"  absent (not found in the package): {', '.join(missing)}")
        spans = traced[-1][1]["self_s"]
        print("  self time by span, last traced sequence:")
        for name in sorted(spans, key=spans.get, reverse=True):
            print(f"    {name:<32} {spans[name]:.4f} s")
        record["per_layer"] = layer
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in layer}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{workload.name}-seed{seed}-trace{trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"  record        {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(ops_all), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
