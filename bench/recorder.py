"""Outside-in span recorder for the hallsand benchmark.

The recorder wraps module-level functions of the installed package from the
benchmark's own files; the package source is not edited. Each span records
a name, a start, an end and the span that was open when it began. Spans stay
in memory and are written once, when the process ends. Pool workers are
forked, so they inherit the wrappers; each worker clears the spans it
inherited and writes its own file at exit.

Timestamps come from CLOCK_MONOTONIC (time.monotonic_ns), which on Linux is
one clock for every process, so spans from workers line up with the parent.
"""

from __future__ import annotations

import functools
import marshal
import multiprocessing.util
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path

# Functions that get a span, by module. The span is named after the module's
# last component and the function name without a leading underscore.
SPANNED = {
    "hallsand.ingest": ("parse_io_table", "list_years", "write_io_table", "synth_substrate"),
    "hallsand.operators": ("build_operator", "spectral_radius"),
    "hallsand.exposure": ("compute_exposure",),
    "hallsand.dynamics": ("init_state", "step", "relax"),
    "hallsand.experiments": (
        "prepare_substrate",
        "run_scenario",
        "run_phase_grid",
        "make_cell_stats",
        "convergence_report",
    ),
    "hallsand.tail": ("select_xmin", "ccdf"),
    "hallsand.cli": ("_emit",),
}


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self, clock=time.monotonic_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._clear()

    def _clear(self) -> None:
        self.spans: list[list[int]] = []  # [name_id, start_ns, end_ns, parent_index]
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name_id, self.clock(), 0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def snapshot(self) -> dict:
        for index in self._stack:  # spans still open when the process ends
            self.spans[index][2] = self.clock()
        return {
            "pid": os.getpid(),
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
        }

    def write(self, directory: str | Path) -> None:
        # marshal writes 300k spans in about 0.05 s where JSON takes 0.8 s
        with open(Path(directory) / f"spans-{os.getpid()}.marshal", "wb") as fh:
            marshal.dump(self.snapshot(), fh)

    def follow_forks(self, directory: str | Path) -> None:
        """Make each forked multiprocessing child start empty and write at exit."""

        def after_fork(rec: Recorder) -> None:
            rec._clear()
            multiprocessing.util.Finalize(None, rec.write, args=(directory,), exitpriority=10)

        multiprocessing.util.register_after_fork(self, after_fork)


def self_times(spans) -> dict[int, int]:
    """Self time per name: each span's duration minus its children's durations.

    Spans of one process run on one thread, so children never overlap and
    the sum of their durations is the part of the parent they cover.
    """
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[int, int] = defaultdict(int)
    for k, (name_id, start, end, _) in enumerate(spans):
        out[name_id] += end - start - covered[k]
    return dict(out)


def summarize(snapshots) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Merge per-process snapshots into self seconds, total seconds and counts by name."""
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for snap in snapshots:
        names = snap["names"]
        for name_id, ns in self_times(snap["spans"]).items():
            self_s[names[name_id]] += ns / 1e9
        for name_id, start, end, _ in snap["spans"]:
            total_s[names[name_id]] += (end - start) / 1e9
        for name, value in snap["counts"].items():
            counts[name] += value
    return dict(self_s), dict(total_s), dict(counts)


def read_snapshots(directory: str | Path) -> list[dict]:
    """Load the snapshots that Recorder.write left in directory."""
    snaps = []
    for path in sorted(Path(directory).glob("spans-*.marshal")):
        with open(path, "rb") as fh:
            snaps.append(marshal.load(fh))
    return snaps


def span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func.lstrip('_')}"


def traced(rec: Recorder, name: str, fn, on_return=None):
    """Wrap fn in a span; on_return(result, args) records counters after it."""
    name_id = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if on_return is not None:
            on_return(result, args)
        return result

    return wrapper


def counted(fn, on_return):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_return(result, args)
        return result

    return wrapper


def matvec_bytes(state) -> int:
    """Bytes one sparse matvec touches, computed: CSR arrays plus input and output vectors."""
    At = state.propagation_t
    return At.data.nbytes + At.indices.nbytes + At.indptr.nbytes + 2 * 8 * At.shape[0]


def payload_bytes(args) -> int:
    """Pickled size of one task's arguments: in-band bytes plus out-of-band array buffers."""
    buffers = []
    inband = pickle.dumps(args, protocol=5, buffer_callback=buffers.append)
    return len(inband) + sum(memoryview(b.raw()).nbytes for b in buffers)


def _counters(rec: Recorder) -> dict[tuple[str, str], object]:
    """Counter hooks keyed by (module, function); each runs after the call returns."""

    def step(record, args):
        rec.count("dynamics.periods")
        rec.count("dynamics.matvec_bytes_computed", (1 + record.relax_rounds) * matvec_bytes(args[0]))

    def relax(result, args):
        events, _, rounds = result
        rec.count("dynamics.topple_events", events)
        rec.count("dynamics.relax_rounds", rounds)

    return {
        ("hallsand.ingest", "parse_io_table"): lambda r, a: rec.count("ingest.parse_io_table_calls"),
        ("hallsand.ingest", "_read_rows"): lambda r, a: rec.count("ingest.rows_read", len(r)),
        ("hallsand.operators", "spectral_radius"): lambda r, a: rec.count("operators.spectral_radius_calls"),
        ("hallsand.dynamics", "init_state"): lambda r, a: rec.count("dynamics.init_state_calls"),
        ("hallsand.dynamics", "step"): step,
        ("hallsand.dynamics", "relax"): relax,
        ("hallsand.tail", "scan_xmin"): lambda r, a: rec.count("tail.candidates", len(r)),
        ("hallsand.cli", "_emit"): lambda r, a: rec.count("cli.emit_rows", len(a[3])),
    }


def _traced_executor(rec: Recorder, base):
    wait_id = rec.name_id("experiments.pool_wait")

    class TracedExecutor(base):
        """The package's executor, counting tasks and payload and timing the wait for results."""

        def map(self, fn, *iterables, **kwargs):
            columns = [list(it) for it in iterables]
            tasks = list(zip(*columns))
            rec.count("experiments.pool_tasks", len(tasks))
            rec.count("experiments.pool_payload_bytes", sum(payload_bytes(t) for t in tasks))
            index = rec.begin(wait_id)
            try:
                results = list(super().map(fn, *columns, **kwargs))
            finally:
                rec.end(index)
            return iter(results)

    return TracedExecutor


def install(rec: Recorder) -> list[str]:
    """Wrap the layer functions in every loaded hallsand module.

    Every module attribute bound to a wrapped function is rebound, so calls
    through `from .x import f` names are traced too. Returns the names of
    functions that were not found, so a report can say why a metric is absent.
    """
    counters = _counters(rec)
    replacements: dict[int, object] = {}
    missing = []
    targets = {(m, f) for m, funcs in SPANNED.items() for f in funcs} | set(counters)
    for module, func in sorted(targets):
        fn = getattr(sys.modules.get(module), func, None)
        if fn is None:
            missing.append(f"{module}.{func}")
            continue
        hook = counters.get((module, func))
        if func in SPANNED.get(module, ()):
            replacements[id(fn)] = traced(rec, span_name(module, func), fn, hook)
        else:
            replacements[id(fn)] = counted(fn, hook)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hallsand" or name.startswith("hallsand.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    experiments = sys.modules.get("hallsand.experiments")
    base = getattr(experiments, "ProcessPoolExecutor", None)
    if base is None:
        missing.append("hallsand.experiments.ProcessPoolExecutor")
    else:
        experiments.ProcessPoolExecutor = _traced_executor(rec, base)
    return missing
