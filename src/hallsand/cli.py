"""Command-line entry point for substrate ingestion, exposure analysis,
simulation runs, phase sweeps, and tail fitting.

Every command is deterministic given its inputs and master seed: reruns
overwrite their outputs with identical bytes. Exit codes: 0 success,
1 input or validation error, 2 runtime (engine) error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .dynamics import Params
from .exposure import DEFAULT_EPSILON, DEFAULT_FIELD, DEFAULT_FLOOR, compute_exposure
from .experiments import (
    DEFAULT_B_AXIS,
    DEFAULT_GRID_REPLICATIONS,
    DEFAULT_REPLICATIONS,
    DEFAULT_SIGMA_B_RATIO,
    DEFAULT_SIGMA_D_AXIS,
    DEFAULT_T_BURN,
    DEFAULT_T_STAT,
    PRESETS,
    Substrate,
    grid_scenarios,
    preset_scenarios,
    prepare_substrate,
    run_scenarios,
)
from .ingest import (
    DEFAULT_MEAN_LEAKAGE,
    DEFAULT_SYNTH_DENSITY,
    FlowPanel,
    TableError,
    parse_io_table,
    read_sizes,
    synth_substrate,
    write_io_table,
)
from .operators import OperatorKind, build_operator, leakage_profile
from .tail import DEFAULT_MIN_TAIL, TailError, ccdf, select_xmin

gc.freeze()  # imported modules live as long as the process: keep them out of every collection, the last one at exit too

_CELL_RE = re.compile(r"^([A-Za-z0-9_-]+):([0-9.eE+-]+):([0-9.eE+-]+)$")
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")


# Cell text by value type: repr keeps float cells round-trip exact, so
# reruns are byte-identical.
_TEXT = {float: repr, int: str, str: str, bool: lambda v: "true" if v else "false"}


def _cells(values: list) -> list[str]:
    kinds = set(map(type, values))
    if len(kinds) == 1:  # one formatter for the column
        return list(map(_TEXT[kinds.pop()], values))
    return [_TEXT[type(v)](v) for v in values]  # e.g. a float column with empty cells


def _emit(out_dir: Path, name: str, header: tuple[str, ...], columns: list, as_json: bool) -> Path:
    """Write a table, given as one array or sequence per header name, as CSV,
    and with as_json as a JSON list of row objects beside it. JSON has no NaN
    or infinity, so a non-finite float is null there. out_dir is made here,
    so a command that fails before its first write leaves none."""
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*map(_cells, values), strict=True))
    if as_json:
        finite = ([None if isinstance(v, float) and not math.isfinite(v) else v for v in c] for c in values)
        payload = [dict(zip(header, row)) for row in zip(*finite)]
        jpath = path.with_suffix(".json")
        with open(jpath, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return path


def _table(getters: dict, objs, **leading) -> tuple[tuple[str, ...], list]:
    """A table for _emit: the leading columns as given, then one column per
    header -> getter entry, read off each object."""
    columns = [[get(obj) for obj in objs] for get in getters.values()]
    return (*leading, *getters), [*leading.values(), *columns]


def _path(text: str) -> Path:
    """The type of every file and directory argument: an empty path, which a
    blank line after a flag in an argument file gives, is refused by name."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return Path(text)


def _add_substrate_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("substrate")
    g.add_argument("--flows", type=_path, help="long-format flows CSV")
    g.add_argument("--year", type=int, help="year to select from the flows file")
    g.add_argument("--row-use", type=_path, help="companion gross row-use CSV (default: sibling row_use.csv)")
    g.add_argument("--synth-nodes", type=int, help="generate a synthetic substrate with this many nodes")
    g.add_argument(
        "--synth-density",
        type=float,
        help=f"edge probability of a --synth-nodes substrate, {DEFAULT_SYNTH_DENSITY} if not given",
    )
    g.add_argument("--synth-seed", type=int, help="seed of a --synth-nodes substrate, 0 if not given")
    g.add_argument(
        "--synth-mean-leakage",
        type=float,
        help=f"mean leak share of a --synth-nodes substrate, {DEFAULT_MEAN_LEAKAGE} if not given",
    )


# the substrate flags that apply to only one kind of substrate, by dest; the
# synthetic ones default to None, so a given flag can be told from an absent one
_FLOWS_ONLY = ("year", "row_use")
_SYNTH_ONLY = {"synth_density": "density", "synth_seed": "seed", "synth_mean_leakage": "mean_leakage"}


def _refuse_given(args, dests, substrate: str) -> None:
    for dest in dests:
        if getattr(args, dest) is not None:
            raise TableError(f"--{dest.replace('_', '-')} does not apply to a {substrate} substrate")


def _load_table(args):
    if args.flows is not None and args.synth_nodes is not None:
        raise TableError("--flows and --synth-nodes are exclusive: pass one of them")
    if args.flows is not None:
        _refuse_given(args, _SYNTH_ONLY, "--flows")
        if args.year is None:
            raise TableError("--year is required with --flows")
        return parse_io_table(args.flows, args.year, row_use_path=args.row_use)
    if args.synth_nodes is not None:
        _refuse_given(args, _FLOWS_ONLY, "--synth-nodes")
        given = {name: getattr(args, dest) for dest, name in _SYNTH_ONLY.items()}
        return synth_substrate(args.synth_nodes, **{k: v for k, v in given.items() if v is not None})
    raise TableError("no substrate given: pass --flows with --year, or --synth-nodes")


def _load_substrate(args) -> Substrate:
    return prepare_substrate(
        _load_table(args),
        kind=args.operator,
        d_floor=args.d_floor,
        c_floor=args.c_floor,
    )


def _add_param_args(p: argparse.ArgumentParser) -> None:
    d = Params()
    g = p.add_argument_group("engine parameters (calibrated defaults)")
    g.add_argument("--delta", type=float, default=d.delta, help="per-period stress decay rate")
    g.add_argument("--alpha", type=float, default=d.alpha, help="idiosyncratic shock weight")
    g.add_argument("--beta", type=float, default=d.beta, help="network propagation weight")
    g.add_argument("--gamma", type=float, default=d.gamma, help="stress-loading weight")
    g.add_argument("--theta", type=float, default=d.theta, help="toppling threshold")
    g.add_argument("--epsilon", type=float, default=d.epsilon, help="denominator regularizer")
    g.add_argument("--sigma-x", type=float, default=d.sigma_x, help="shock scale (half-normal)")
    g.add_argument(
        "--redistribution-fraction",
        type=float,
        default=d.redistribution_fraction,
        help="share of toppled excess pushed to out-neighbors; the rest dissipates",
    )
    g.add_argument("--theta-reset", type=float, default=d.theta_reset, help="post-topple stress level")
    g.add_argument("--count-unique", action="store_true", help="count unique toppled nodes per period instead of toppling events")
    g.add_argument("--max-relax-rounds", type=int, default=d.max_relax_rounds, help="cascade round budget (default: 10n)")


def _params_from(args) -> Params:
    return Params(**{f.name: getattr(args, f.name) for f in fields(Params)})


def _add_exposure_args(p: argparse.ArgumentParser, *, field: bool = False, epsilon: bool = False) -> None:
    # the engine reads only I, D and C of a profile, so the field and the
    # loading's regularizer go only to the commands whose outputs they move
    g = p.add_argument_group("exposure")
    if field:
        g.add_argument("--field", type=float, default=DEFAULT_FIELD, help="field intensity B for static stress loading")
    g.add_argument("--d-floor", type=float, default=DEFAULT_FLOOR, help="redundancy floor")
    g.add_argument("--c-floor", type=float, default=DEFAULT_FLOOR, help="capacity floor")
    if epsilon:
        g.add_argument("--exposure-epsilon", type=float, default=DEFAULT_EPSILON, help="stress-loading denominator regularizer")


def _add_protocol_args(p: argparse.ArgumentParser, replications: int, unit: str) -> None:
    """The run protocol of simulate and phase-grid, with the library's default periods."""
    g = p.add_argument_group("run protocol")
    g.add_argument("--replications", type=int, default=replications, help=f"replications per {unit}")
    g.add_argument("--t-burn", type=int, default=DEFAULT_T_BURN, help="burn-in periods")
    g.add_argument("--t-stat", type=int, default=DEFAULT_T_STAT, help="post-burn periods kept")
    g.add_argument("--master-seed", type=int, default=0, help="root of the seed tree")
    g.add_argument("--sigma-b-ratio", type=float, default=DEFAULT_SIGMA_B_RATIO, help="field volatility as a share of B_bar")
    g.add_argument("--threads", type=int, default=None, help="worker processes (default: CPU count)")


def _protocol(args) -> dict[str, int]:
    """The run protocol flags as run_scenarios' keywords."""
    return {"T_burn": args.t_burn, "T_stat": args.t_stat, "replications": args.replications}


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", type=_path, default=Path("."), help="output directory")
    p.add_argument("--json", action="store_true", help="also write JSON mirrors")


def _add_operator_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--operator", type=OperatorKind, default="leak", help="propagation operator: share, leak, or max")


def cmd_ingest(args) -> int:
    if args.out_dir is not None and args.flows.exists():  # a missing input is named by the read
        # the copy holds one year: written over an input, it would lose the others.
        # Without --row-use, the flows file's sibling row_use.csv is read
        row_use = args.row_use or args.flows.with_name("row_use.csv")
        for source, name in ((args.flows, "flows.csv"), (row_use, "row_use.csv")):
            target = args.out_dir / name
            if target.exists() and source.exists() and target.samefile(source):
                raise ValueError(f"--out-dir {args.out_dir} would overwrite the input file {source}")
    table = parse_io_table(args.flows, args.year, row_use_path=args.row_use)
    print(
        f"year {table.year}: {table.n} nodes, {table.Z.nnz} flows, "
        f"total {table.total_flow():.6g}, mean leakage {leakage_profile(table).mean():.4f}"
    )
    if args.out_dir is not None:
        write_io_table(table, args.out_dir / "flows.csv", args.out_dir / "row_use.csv")
        print(f"wrote normalized copy to {args.out_dir}")
    return 0


def cmd_synth(args) -> int:
    table = synth_substrate(
        args.nodes, args.density, args.seed, year=args.year, mean_leakage=args.mean_leakage
    )
    write_io_table(table, args.out_dir / "flows.csv", args.out_dir / "row_use.csv")
    print(
        f"wrote {args.out_dir / 'flows.csv'}: {table.n} nodes, {table.Z.nnz} flows, "
        f"mean leakage {leakage_profile(table).mean():.4f}"
    )
    return 0


# panel.csv, one row per year's values: its spectral radii by operator kind,
# leak shares and H_rel
PANEL = {
    "year": lambda y: y.year,
    "rho_share": lambda y: y.rho[OperatorKind.ROW_SHARE],
    "rho_leak": lambda y: y.rho[OperatorKind.LEAKAGE_ADJUSTED],
    "rho_max": lambda y: y.rho[OperatorKind.MAX_ROW],
    "mean_leakage": lambda y: float(y.leak.mean()),
    "mean_Hrel": lambda y: float(y.H_rel.mean()),
    "p95_Hrel": lambda y: float(np.percentile(y.H_rel, 95)),
}


def cmd_network_panel(args) -> int:
    given = []  # the --years, checked before anything is read
    for text in args.years.split(",") if args.years is not None else ():
        try:
            year = int(text)
        except ValueError:
            raise ValueError(f"--years: bad year {text!r}") from None
        if year in given:
            raise TableError(f"--years names {year} twice")
        given.append(year)
    # one read of flows.csv and row_use.csv serves every year
    panel = FlowPanel(args.flows, row_use_path=args.row_use)
    wanted = given or panel.years()
    if not wanted:
        raise TableError(f"{args.flows}: no rows")
    years = []
    for year in wanted:
        table = panel.table(year)  # one table at a time; only its values are kept
        # H_rel does not depend on the scale of B, so the panel keeps the default field
        prof = compute_exposure(
            table, d_floor=args.d_floor, c_floor=args.c_floor, epsilon=args.exposure_epsilon
        )
        rho = {kind: build_operator(table, kind).spectral_radius for kind in OperatorKind}
        years.append(SimpleNamespace(year=year, rho=rho, leak=leakage_profile(table), H_rel=prof.H_rel))
    path = _emit(args.out_dir, "panel.csv", *_table(PANEL, years), args.json)
    print(f"wrote {path} ({len(years)} year(s))")
    return 0


# the array columns are ExposureProfile's attribute names; top_nodes.csv has
# a rank column, then these
EXPOSURE_HEADER = ("node", "country", "sector", "I", "HHI_out", "HHI_in", "D", "C", "R", "H", "H_rel")
TOP_NODES_HEADER = ("node", "country", "sector", "I", "R", "H_rel")


def cmd_exposure(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    table = _load_table(args)
    prof = compute_exposure(
        table,
        B=args.field,
        d_floor=args.d_floor,
        c_floor=args.c_floor,
        epsilon=args.exposure_epsilon,
    )
    # node k is row k of the table and of every profile array
    columns = {
        "node": np.arange(table.n),
        "country": np.array([nd.country for nd in table.nodes], dtype=object),
        "sector": np.array([nd.sector for nd in table.nodes], dtype=object),
        **{name: getattr(prof, name) for name in EXPOSURE_HEADER[3:]},
    }
    path = _emit(args.out_dir, "exposure.csv", EXPOSURE_HEADER, list(columns.values()), args.json)
    # by H_rel, descending; ties in ascending node index
    top = np.argsort(-prof.H_rel, kind="stable")[: args.top]
    ranked = [np.arange(1, top.size + 1), *(columns[name][top] for name in TOP_NODES_HEADER)]
    _emit(args.out_dir, "top_nodes.csv", ("rank", *TOP_NODES_HEADER), ranked, args.json)
    print(f"wrote {path} and top_nodes.csv (top {top.size})")
    return 0


# phase_grid.csv, and scenarios.csv after its scenario name: one CellStats per row
CELL_STATS = {
    "B_bar": lambda s: s.B_bar,
    "sigma_D": lambda s: s.sigma_D,
    "mean_S": lambda s: s.mean_S,
    "se_mean_S": lambda s: s.se_mean_S,
    "pr_nonzero": lambda s: s.pr_nonzero,
    "pr_ge5": lambda s: s.pr_ge[5],
    "pr_ge10": lambda s: s.pr_ge[10],
    "pr_ge20": lambda s: s.pr_ge[20],
    "p50": lambda s: s.p50,
    "p95": lambda s: s.p95,
    "p99": lambda s: s.p99,
    "max": lambda s: s.s_max,
    "regime": lambda s: s.regime.value,
}
AVALANCHE_HEADER = ("replication", "period", "S", "B_realised", "relax_rounds")


def _parse_cell(text: str) -> tuple[str, float, float]:
    m = _CELL_RE.match(text)
    try:
        if m is None:
            raise ValueError
        return m.group(1), float(m.group(2)), float(m.group(3))
    except ValueError:  # also a malformed number such as 1.2.3
        raise ValueError(f"bad --cell {text!r}; expected NAME:B_BAR:SIGMA_D") from None


def cmd_simulate(args) -> int:
    substrate = _load_substrate(args)
    params = _params_from(args)
    presets = [] if args.presets.strip().lower() == "none" else args.presets.split(",")
    specs = preset_scenarios(
        args.master_seed,
        names=[n.strip() for n in presets],
        cells=map(_parse_cell, args.cell or []),  # parsed after the preset names are checked
    )
    if not specs:
        raise ValueError("nothing to run: presets are 'none' and no --cell given")

    names, stats = [], []
    for result in run_scenarios(specs, substrate, params, args.sigma_b_ratio, args.threads, **_protocol(args)):
        names.append(result.name)
        stats.append(result.stats)
        if not args.no_series:
            R, T = result.series.shape
            series = [
                np.repeat(np.arange(R), T),
                np.tile(np.arange(args.t_burn, args.t_burn + T), R),
                *(a.ravel() for a in (result.series, result.B_realised, result.relax_rounds)),
            ]
            _emit(args.out_dir, f"avalanches_{result.name}.csv", AVALANCHE_HEADER, series, args.json)
    path = _emit(args.out_dir, "scenarios.csv", *_table(CELL_STATS, stats, scenario=names), args.json)
    print(f"wrote {path} ({len(names)} scenario(s))")
    return 0


# convergence.csv, one CellStats and its diagnostics per row; a ratio without a mean is empty
CONVERGENCE = {
    **{name: CELL_STATS[name] for name in ("B_bar", "sigma_D", "regime", "mean_S", "se_mean_S")},
    "se_over_mean": lambda s: "" if s.se_over_mean is None else s.se_over_mean,
    "se_pr_ge5": lambda s: s.se_pr_ge[5],
    "se_pr_ge10": lambda s: s.se_pr_ge[10],
    "se_pr_ge20": lambda s: s.se_pr_ge[20],
    "within_bounds": lambda s: s.within_bounds,
}


def _grid_axis(args, flag: str) -> tuple[float, ...]:
    """One phase-grid axis from --FLAG-min, --FLAG-max and --FLAG-steps."""
    lo, hi, steps = (getattr(args, f"{flag}_{end}") for end in ("min", "max", "steps"))
    if steps < 1:
        raise ValueError(f"--{flag}-steps must be at least 1, got {steps}")
    for end, value in (("min", lo), ("max", hi)):
        if not math.isfinite(value):
            raise ValueError(f"--{flag}-{end} must be finite, got {value}")
    values = tuple(float(v) for v in np.linspace(lo, hi, steps))
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"--{flag}-min {lo}, --{flag}-max {hi} and --{flag}-steps {steps} do not ascend strictly")
    return values


def cmd_phase_grid(args) -> int:
    B_values, sigmaD_values = _grid_axis(args, "b"), _grid_axis(args, "sigma")
    substrate = _load_substrate(args)
    params = _params_from(args)
    specs = grid_scenarios(B_values, sigmaD_values, args.master_seed)
    results = run_scenarios(specs, substrate, params, args.sigma_b_ratio, args.threads, **_protocol(args))
    cells = [result.stats for result in results]
    path = _emit(args.out_dir, "phase_grid.csv", *_table(CELL_STATS, cells), args.json)
    if args.convergence:
        _emit(args.out_dir, "convergence.csv", *_table(CONVERGENCE, cells), args.json)
    print(f"wrote {path} ({len(cells)} cells)")
    return 0


# tail_fits.csv after its series name, one TailFit per row
TAIL_FIT = {
    "x_min": lambda f: f.x_min,
    "n_tail": lambda f: f.n_tail,
    "alpha": lambda f: f.alpha,
    "ks": lambda f: f.ks_distance,
    "informative": lambda f: f.informative,
}


def _series_name(path: Path) -> str:
    m = re.match(r"^avalanches_(.+)$", path.stem)
    name = m.group(1) if m else path.stem
    if not _NAME_RE.match(name):
        raise TailError(f"cannot derive a clean series name from {path.name!r}")
    return name


def cmd_tail_fit(args) -> int:
    # the flags are checked before any file is read, in the order select_xmin checks them
    if args.min_tail < 2:
        raise TailError(f"--min-tail: min_tail must be >= 2, got {args.min_tail}")
    if args.x_min is not None and args.x_min < 1:
        raise TailError(f"--x-min: x_min must be >= 1, got {args.x_min}")
    paths = {}  # by series name
    for path in args.series:
        name = _series_name(path)
        if name in paths:  # its ccdf file and tail_fits.csv row would be written twice
            raise TailError(f"series name {name!r} given twice: {paths[name]} and {path}")
        paths[name] = path
    fits, tails = [], []  # every series is read and fitted before anything is written
    for path in paths.values():
        sizes = read_sizes(path)
        positive = sizes[sizes >= 1]
        if positive.size == 0:
            raise TailError(f"{path}: no positive cascade sizes to fit")
        try:
            fits.append(select_xmin(positive, min_tail=args.min_tail, x_min=args.x_min))
        except TailError as err:  # such as too few sizes at or above --x-min
            raise TailError(f"{path}: {err}") from None
        tails.append(positive)
    for name, positive in zip(paths, tails):
        _emit(args.out_dir, f"ccdf_{name}.csv", ("x", "prob"), list(ccdf(positive)), args.json)
    path = _emit(args.out_dir, "tail_fits.csv", *_table(TAIL_FIT, fits, regime=list(paths)), args.json)
    print(f"wrote {path} ({len(fits)} fit(s))")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallsand",
        fromfile_prefix_chars="@",
        description="Production-network instability engine: operators, stress exposure, cascade dynamics, phase sweeps, tail fits."
        " An @FILE argument is replaced by the tokens in FILE, one per line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=func)
        return p

    p = add("ingest", cmd_ingest, "validate a flows CSV and print a summary")
    p.add_argument("--flows", type=_path, required=True, help="long-format flows CSV")
    p.add_argument("--year", type=int, required=True, help="year to select")
    p.add_argument("--row-use", type=_path, help="companion gross row-use CSV")
    p.add_argument("--out-dir", type=_path, default=None, help="write a normalized copy here")

    p = add("synth", cmd_synth, "generate a synthetic substrate and write it to CSV")
    p.add_argument("--nodes", type=int, default=200, help="node count")
    p.add_argument("--density", type=float, default=DEFAULT_SYNTH_DENSITY, help="edge probability")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument(
        "--mean-leakage", type=float, default=DEFAULT_MEAN_LEAKAGE, help="mean leak share (calibrated default)"
    )
    p.add_argument("--year", type=int, default=2014, help="year stamp")
    p.add_argument("--out-dir", type=_path, default=Path("."), help="output directory")

    p = add("network-panel", cmd_network_panel, "spectral and leakage panel, one row per year")
    p.add_argument("--flows", type=_path, required=True, help="long-format flows CSV")
    p.add_argument("--row-use", type=_path, help="companion gross row-use CSV")
    p.add_argument("--years", help="comma-separated years (default: all in the file)")
    _add_exposure_args(p, epsilon=True)
    _add_output_args(p)

    p = add("exposure", cmd_exposure, "per-node stress exposure table and top-loaded nodes")
    _add_substrate_args(p)
    _add_exposure_args(p, field=True, epsilon=True)
    p.add_argument("--top", type=int, default=10, help="rows in top_nodes.csv")
    _add_output_args(p)

    p = add("simulate", cmd_simulate, "run preset or custom scenario cells")
    _add_substrate_args(p)
    _add_exposure_args(p)
    _add_param_args(p)
    _add_operator_arg(p)
    p.add_argument("--presets", default=",".join(PRESETS), help="comma-separated preset names, or 'none'")
    p.add_argument(
        "--cell",
        action="append",
        help="extra scenario NAME:B_BAR:SIGMA_D (repeatable)",
    )
    _add_protocol_args(p, DEFAULT_REPLICATIONS, "scenario")
    p.add_argument("--no-series", action="store_true", help="skip the per-period avalanche files")
    _add_output_args(p)

    p = add("phase-grid", cmd_phase_grid, "sweep field intensity by dispersion and classify regimes")
    _add_substrate_args(p)
    _add_exposure_args(p)
    _add_param_args(p)
    _add_operator_arg(p)
    b_min, b_max, b_steps = DEFAULT_B_AXIS
    sigma_min, sigma_max, sigma_steps = DEFAULT_SIGMA_D_AXIS
    p.add_argument("--b-min", type=float, default=b_min, help="lowest field level")
    p.add_argument("--b-max", type=float, default=b_max, help="highest field level")
    p.add_argument("--b-steps", type=int, default=b_steps, help="field levels")
    p.add_argument("--sigma-min", type=float, default=sigma_min, help="lowest dispersion")
    p.add_argument("--sigma-max", type=float, default=sigma_max, help="highest dispersion")
    p.add_argument("--sigma-steps", type=int, default=sigma_steps, help="dispersion values")
    _add_protocol_args(p, DEFAULT_GRID_REPLICATIONS, "cell")
    p.add_argument("--convergence", action="store_true", help="also write convergence.csv diagnostics")
    _add_output_args(p)

    p = add("tail-fit", cmd_tail_fit, "fit cascade-size tail exponents from avalanche series files")
    p.add_argument("series", type=_path, nargs="+", help="avalanche CSV files with an S column")
    p.add_argument("--x-min", type=int, default=None, help="fixed tail cutoff (default: scan)")
    p.add_argument("--min-tail", type=int, default=DEFAULT_MIN_TAIL, help="minimum tail samples for an informative fit")
    _add_output_args(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error such as an unreadable @FILE
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    try:
        return args.func(args) or 0
    except (ValueError, OSError) as err:  # TableError and TailError among them
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
