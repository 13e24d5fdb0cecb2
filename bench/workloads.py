"""The benchmark's four workloads and their deterministic input generator.

A workload is a fixed sequence of hallsand CLI commands, each run in a fresh
interpreter, back to back, by one client (a closed loop). The workload seed
picks one of VARIANTS input variants (seed % VARIANTS); the output digests
of every variant are pinned in digests.json.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = 16

PRESETS = ("stable", "latent", "critical", "avalanche")
GRID_CELLS = 10 * 9  # the CLI's default phase grid
BIG_NODES, BIG_DENSITY = 2464, 0.5  # WIOD-sized, about 3.03M nonzeros
BIG_REPLICATIONS, BIG_T_BURN, BIG_T_STAT = 4, 10, 15
PRESET_REPLICATIONS = 25
GRID_REPLICATIONS = 2
INGEST_YEARS = (2013, 2014)
INGEST_DENSITY = 0.006175  # about 37k flows per year at 2464 nodes


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run as defined; no result is printed."""


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload.

    setup names the launcher mark that ends the command's set-up: "substrate"
    (prepare_substrate returned) or "import" (hallsand imported); None when the
    command is not a set-up sample. work is the units of work_per_s it does
    after set-up: replication-periods, or flow rows read; 0 for none.
    """

    label: str
    args: tuple[str, ...]
    setup: str | None
    work: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str | None  # key of the generated input set, if any
    commands: Callable[[int, Path | None, Path], list[Command]]


def master_seed(variant: int) -> str:
    return str(20140825 + variant)


def _n200_presets(variant: int, inputs: Path, out: Path) -> list[Command]:
    periods = len(PRESETS) * PRESET_REPLICATIONS * (50 + 150)
    series = [str(out / "simulate" / f"avalanches_{p}.csv") for p in PRESETS]
    return [
        Command(
            "simulate",
            ("simulate", "--flows", str(inputs / "flows.csv"), "--year", "2014",
             "--replications", str(PRESET_REPLICATIONS), "--threads", "1", "--master-seed", master_seed(variant),
             "--out-dir", str(out / "simulate")),
            "substrate",
            periods,
        ),
        Command("tail-fit", ("tail-fit", *series, "--out-dir", str(out / "tail-fit")), None, 0),
    ]


def _n200_grid(variant: int, inputs: Path, out: Path) -> list[Command]:
    periods = GRID_CELLS * GRID_REPLICATIONS * (50 + 150)
    return [
        Command(
            "phase-grid",
            ("phase-grid", "--flows", str(inputs / "flows.csv"), "--year", "2014",
             "--replications", str(GRID_REPLICATIONS), "--threads", "2", "--convergence",
             "--master-seed", master_seed(variant), "--out-dir", str(out / "phase-grid")),
            "substrate",
            periods,
        )
    ]


def _n2464_presets(variant: int, inputs: None, out: Path) -> list[Command]:
    periods = len(PRESETS) * BIG_REPLICATIONS * (BIG_T_BURN + BIG_T_STAT)
    return [
        Command(
            "simulate",
            ("simulate", "--synth-nodes", str(BIG_NODES), "--synth-density", str(BIG_DENSITY),
             "--synth-seed", "0", "--replications", str(BIG_REPLICATIONS),
             "--t-burn", str(BIG_T_BURN), "--t-stat", str(BIG_T_STAT), "--threads", "2",
             "--no-series", "--master-seed", master_seed(variant), "--out-dir", str(out / "simulate")),
            "substrate",
            periods,
        )
    ]


def _n2464_ingest(variant: int, inputs: Path, out: Path) -> list[Command]:
    flows = inputs / "flows.csv"
    with open(flows, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    return [
        Command("ingest", ("ingest", "--flows", str(flows), "--year", "2014",
                           "--out-dir", str(out / "ingest")), "import", rows),
        Command("network-panel", ("network-panel", "--flows", str(flows),
                                  "--out-dir", str(out / "network-panel")), "import", rows),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "n200-presets",
            "serial baseline: four presets at R=25 on the 200-node desk substrate, then tail-fit; "
            "Python overhead per period dominates and no pool runs",
            "n200",
            _n200_presets,
        ),
        Workload(
            "n200-grid",
            "default 10x9 phase grid at R=2 with 2 workers and convergence: the only cell-parallel "
            "pool path, make_cell_stats and convergence_report",
            "n200",
            _n200_grid,
        ),
        Workload(
            "n2464-presets",
            "four presets on an in-process 2464-node substrate with 3.03M nonzeros and 2 workers: "
            "matvec-bound periods and a 73 MB substrate pickled per pool task",
            None,
            _n2464_presets,
        ),
        Workload(
            "n2464-ingest",
            "ingest and network-panel of a two-year 2464-node CSV of 75k rows: row-by-row parse and "
            "write, one re-parse per year, three operators per year; the engine stays idle",
            "ingest",
            _n2464_ingest,
        ),
    )
}


def input_key(workload: Workload, variant: int) -> str | None:
    if workload.inputs == "ingest":
        return f"ingest-v{variant}"
    return workload.inputs


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every CSV under directory, keyed by path relative to it."""
    return {
        p.relative_to(directory).as_posix(): sha256(p) for p in sorted(directory.rglob("*.csv"))
    }


def _generate(key: str, directory: Path) -> None:
    """Write one input set with the package's own generator and writer."""
    sys.path.insert(0, str(ROOT / "src"))
    from hallsand.ingest import synth_substrate, write_io_table

    if key == "n200":
        # the acceptance tests' desk substrate
        table = synth_substrate(200, 0.1, 7, mean_leakage=0.22)
        write_io_table(table, directory / "flows.csv", directory / "row_use.csv")
        return
    variant = int(key.removeprefix("ingest-v"))
    parts = directory / "parts"
    parts.mkdir()
    for name in ("flows.csv", "row_use.csv"):
        (directory / name).unlink(missing_ok=True)
    for k, year in enumerate(INGEST_YEARS):
        table = synth_substrate(BIG_NODES, INGEST_DENSITY, 10_000 * variant + year, year=year)
        write_io_table(table, parts / "flows.csv", parts / "row_use.csv")
        for name in ("flows.csv", "row_use.csv"):
            with open(parts / name, "rb") as src, open(directory / name, "ab") as dst:
                if k > 0:
                    src.readline()  # one header per file
                shutil.copyfileobj(src, dst)
    shutil.rmtree(parts)


def prepare_inputs(key: str, work_dir: Path, pinned: dict[str, str] | None) -> tuple[Path, dict[str, str]]:
    """Return the input directory for key, generating it when absent or stale.

    With pinned digests, inputs that do not match them after generation are a
    BenchmarkError: the generator's output changed, not the program's speed.
    """
    directory = work_dir / "inputs" / key
    if pinned is not None and directory.is_dir() and digests(directory) == pinned:
        return directory, pinned
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    _generate(key, directory)
    found = digests(directory)
    if pinned is not None and found != pinned:
        raise BenchmarkError(
            f"generated inputs {key} do not match the digests pinned in digests.json; "
            "the input generator (synth_substrate or write_io_table) changed its output"
        )
    return directory, found
