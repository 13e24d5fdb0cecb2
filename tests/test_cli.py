import ast
import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hallsand
from hallsand import cli, dynamics, experiments, ingest
from hallsand.cli import build_parser, main
from hallsand.dynamics import Params
from hallsand.experiments import (
    DEFAULT_GRID_REPLICATIONS,
    DEFAULT_REPLICATIONS,
    DEFAULT_SIGMA_B_RATIO,
    DEFAULT_T_BURN,
    DEFAULT_T_STAT,
)
from hallsand.exposure import DEFAULT_EPSILON, DEFAULT_FLOOR
from hallsand.ingest import DEFAULT_MEAN_LEAKAGE, DEFAULT_SYNTH_DENSITY
from hallsand.operators import OperatorKind
from hallsand.tail import DEFAULT_MIN_TAIL

from conftest import powerlaw_samples


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def substrate_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    code = main(
        [
            "synth",
            "--nodes", "60",
            "--density", "0.15",
            "--seed", "7",
            "--mean-leakage", "0.22",
            "--out-dir", str(d),
        ]
    )
    assert code == 0
    return d


def simulate_args(substrate_dir, out_dir, extra=()):
    return [
        "simulate",
        "--flows", str(substrate_dir / "flows.csv"),
        "--year", "2014",
        "--replications", "4",
        "--t-burn", "5",
        "--t-stat", "20",
        "--threads", "1",
        "--out-dir", str(out_dir),
        *extra,
    ]


def test_ingest_smoke(substrate_dir, capsys):
    code = main(["ingest", "--flows", str(substrate_dir / "flows.csv"), "--year", "2014"])
    assert code == 0
    out = capsys.readouterr().out
    assert "60 nodes" in out
    assert "mean leakage" in out


def test_ingest_missing_file_exit_1(tmp_path, capsys):
    code = main(["ingest", "--flows", str(tmp_path / "nope.csv"), "--year", "2014"])
    assert code == 1
    assert "nope.csv" in capsys.readouterr().err


def test_ingest_cell_beyond_the_csv_field_limit_exit_1(tmp_path, capsys):
    flows = tmp_path / "flows.csv"
    long = "X" * (csv.field_size_limit() + 1)
    flows.write_text(f"year,src_country,src_sector,dst_country,dst_sector,value\n2014,{long},AGR,DEU,MAN,3.0\n")
    assert main(["ingest", "--flows", str(flows), "--year", "2014"]) == 1
    assert f"{flows}: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row_use, column",
    [
        ("year,country,gross_use,sector\n2014,USA,5.0\n", "sector"),
        ("year,gross_use,sector,country\n2014,5.0,AGR\n", "country"),
    ],
)
def test_ingest_refuses_a_row_use_row_without_its_label(tmp_path, capsys, row_use, column):
    flows = tmp_path / "flows.csv"
    flows.write_text("year,src_country,src_sector,dst_country,dst_sector,value\n2014,USA,AGR,DEU,MAN,3.0\n")
    (tmp_path / "row_use.csv").write_text(row_use)
    code = main(["ingest", "--flows", str(flows), "--year", "2014"])
    assert code == 1
    assert capsys.readouterr().err.strip().endswith(f"row_use.csv row 2: missing {column}")


@pytest.mark.parametrize("layout", ["flows", "row-use", "sibling", "missing-flows"])
def test_ingest_refuses_an_out_dir_holding_its_input(tmp_path, capsys, layout):
    # d holds 2013 and 2014; a copy of 2014 written over d's files would lose 2013
    for year in ("2013", "2014"):
        argv = ["synth", "--nodes", "12", "--density", "0.5", "--year", year, "--out-dir", str(tmp_path / year)]
        assert main(argv) == 0
    d, e = tmp_path / "d", tmp_path / "e"
    d.mkdir()
    e.mkdir()
    for name in ("flows.csv", "row_use.csv"):
        first, second = ((tmp_path / year / name).read_text() for year in ("2013", "2014"))
        (d / name).write_text(first + second.split("\n", 1)[1])
    (e / "flows.csv").write_bytes((d / "flows.csv").read_bytes())
    (d / "wiod.csv").write_bytes((d / "flows.csv").read_bytes())
    flags, message = {
        "flows": (["--flows", d / "flows.csv"], f"--out-dir {d} would overwrite the input file {d / 'flows.csv'}"),
        "row-use": (
            ["--flows", e / "flows.csv", "--row-use", d / "row_use.csv"],
            f"--out-dir {d} would overwrite the input file {d / 'row_use.csv'}",
        ),
        # the sibling row_use.csv of a flows file under another name
        "sibling": (["--flows", d / "wiod.csv"], f"--out-dir {d} would overwrite the input file {d / 'row_use.csv'}"),
        "missing-flows": (["--flows", d / "absent.csv"], f"input file not found: {d / 'absent.csv'}"),
    }[layout]
    before = {q: q.read_bytes() for q in (*d.iterdir(), *e.iterdir())}
    assert main(["ingest", *map(str, flags), "--year", "2014", "--out-dir", str(d)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {q: q.read_bytes() for q in (*d.iterdir(), *e.iterdir())} == before


def test_ingest_out_dir_writes_the_named_year_only(tmp_path, capsys):
    # flows.csv and row_use.csv hold 2013 and 2014
    for year in ("2013", "2014"):
        argv = ["synth", "--nodes", "12", "--density", "0.5", "--year", year, "--out-dir", str(tmp_path / year)]
        assert main(argv) == 0
    src, out, want = tmp_path / "src", tmp_path / "out", tmp_path / "want"
    src.mkdir()
    for name in ("flows.csv", "row_use.csv"):
        first, second = ((tmp_path / year / name).read_text() for year in ("2013", "2014"))
        (src / name).write_text(first + second.split("\n", 1)[1])
    capsys.readouterr()
    assert main(["ingest", "--flows", str(src / "flows.csv"), "--year", "2014", "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote normalized copy to {out}\n")
    ingest.write_io_table(ingest.parse_io_table(src / "flows.csv", 2014), want / "flows.csv", want / "row_use.csv")
    for name in ("flows.csv", "row_use.csv"):
        assert (out / name).read_bytes() == (want / name).read_bytes()
        assert {row["year"] for row in read_rows(src / name)} == {"2013", "2014"}
        assert {row["year"] for row in read_rows(out / name)} == {"2014"}


def test_bad_flag_exit_1():
    assert main(["simulate", "--no-such-flag"]) == 1


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "phase-grid" in capsys.readouterr().out


def test_network_panel_columns(substrate_dir, tmp_path):
    out = tmp_path / "panel"
    code = main(
        ["network-panel", "--flows", str(substrate_dir / "flows.csv"), "--out-dir", str(out)]
    )
    assert code == 0
    rows = read_rows(out / "panel.csv")
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == ["year", "rho_share", "rho_leak", "rho_max", "mean_leakage", "mean_Hrel", "p95_Hrel"]
    assert float(row["rho_leak"]) <= float(row["rho_share"])


def test_network_panel_refuses_a_repeated_year(substrate_dir, tmp_path, capsys):
    out = tmp_path / "panel"
    argv = ["network-panel", "--flows", str(substrate_dir / "flows.csv"), "--years", "2014,2014"]
    assert main([*argv, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--years" in err and "2014" in err
    assert not out.exists()


def test_network_panel_refuses_a_bad_year_before_reading(tmp_path, capsys):
    out = tmp_path / "panel"
    for years, bad in (("2014,abc", "abc"), ("", ""), ("2014,", "")):
        argv = ["network-panel", "--flows", str(tmp_path / "absent.csv"), "--years", years]
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --years: bad year {bad!r}\n"
        assert not out.exists()


def test_network_panel_names_the_flows_file_one_way(tmp_path, monkeypatch, capsys):
    # the bad-year row is found by listing the years, or by reading the one year asked for
    (tmp_path / "t").mkdir()
    (tmp_path / "t" / "flows.csv").write_text(",".join(ingest.FLOWS_COLUMNS) + "\n2014,A,S,B,S,1.0\nxx,A,S,B,S,2.0\n")
    monkeypatch.chdir(tmp_path)
    for years in ([], ["--years", "2014"]):
        assert main(["network-panel", "--flows", "./t//flows.csv", *years, "--out-dir", "panel"]) == 1
        assert capsys.readouterr().err == "error: t/flows.csv row 3: bad year 'xx'\n"
    assert not (tmp_path / "panel").exists()


def test_network_panel_refuses_a_flows_file_with_no_rows(tmp_path, capsys):
    # blank lines are no rows; ingest refuses the same file with "no edges for year"
    flows = tmp_path / "flows.csv"
    flows.write_text(",".join(ingest.FLOWS_COLUMNS) + "\n\n")
    out = tmp_path / "panel"
    assert main(["network-panel", "--flows", str(flows), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flows}: no rows\n"
    assert not out.exists()


def test_exposure_outputs(substrate_dir, tmp_path):
    out = tmp_path / "expo"
    code = main(
        [
            "exposure",
            "--flows", str(substrate_dir / "flows.csv"),
            "--year", "2014",
            "--top", "5",
            "--out-dir", str(out),
            "--json",
        ]
    )
    assert code == 0
    rows = read_rows(out / "exposure.csv")
    assert len(rows) == 60
    assert list(rows[0]) == ["node", "country", "sector", "I", "HHI_out", "HHI_in", "D", "C", "R", "H", "H_rel"]
    assert sum(float(r["I"]) for r in rows) == pytest.approx(1.0)
    top = read_rows(out / "top_nodes.csv")
    assert len(top) == 5
    assert [int(r["rank"]) for r in top] == [1, 2, 3, 4, 5]
    hrel = [float(r["H_rel"]) for r in top]
    assert hrel == sorted(hrel, reverse=True)
    mirrored = json.loads((out / "exposure.json").read_text())
    assert len(mirrored) == 60
    assert mirrored[0]["node"] == 0


def test_simulate_outputs_and_rerun_bytes(substrate_dir, tmp_path):
    out = tmp_path / "sim"
    assert main(simulate_args(substrate_dir, out)) == 0
    rows = read_rows(out / "scenarios.csv")
    assert [r["scenario"] for r in rows] == ["stable", "latent", "critical", "avalanche"]
    assert all(
        r["regime"] in {"absorption", "latent_fragility", "critical_transition", "avalanche"}
        for r in rows
    )
    series = read_rows(out / "avalanches_critical.csv")
    assert list(series[0]) == ["replication", "period", "S", "B_realised", "relax_rounds"]
    assert len(series) == 4 * 20
    assert int(series[0]["period"]) == 5  # first post-burn period

    before = (out / "scenarios.csv").read_bytes()
    assert main(simulate_args(substrate_dir, out)) == 0
    assert (out / "scenarios.csv").read_bytes() == before


def test_simulate_parallel_bytes_match_serial(substrate_dir, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(simulate_args(substrate_dir, serial)) == 0
    args = simulate_args(substrate_dir, parallel)
    args[args.index("--threads") + 1] = "2"
    assert main(args) == 0
    assert (serial / "scenarios.csv").read_bytes() == (parallel / "scenarios.csv").read_bytes()
    assert (
        (serial / "avalanches_avalanche.csv").read_bytes()
        == (parallel / "avalanches_avalanche.csv").read_bytes()
    )


def test_simulate_bytes_without_scipys_private_kernels(substrate_dir, tmp_path, monkeypatch):
    # a scipy release without csr_row_index or csc_matvecs relaxes through
    # the public A[J].T @ E, and the outputs keep their bytes
    assert dynamics._KERNELS is not None
    kernels, public = tmp_path / "kernels", tmp_path / "public"
    assert main(simulate_args(substrate_dir, kernels)) == 0
    monkeypatch.setattr(dynamics, "_KERNELS", None)
    assert main(simulate_args(substrate_dir, public)) == 0
    names = sorted(p.name for p in kernels.iterdir())
    assert names == sorted(p.name for p in public.iterdir()) and len(names) == 5
    for name in names:
        assert (kernels / name).read_bytes() == (public / name).read_bytes()
    assert max(int(r["relax_rounds"]) for r in read_rows(public / "avalanches_avalanche.csv")) > 1


def test_simulate_count_unique_counts_each_toppled_node_once(substrate_dir, tmp_path):
    # the same draws and relaxations; a node that topples in several rounds
    # of a period counts once in S. A reset level near the threshold lets a
    # toppled node go over again in the same period.
    events, unique = tmp_path / "events", tmp_path / "unique"
    assert main(simulate_args(substrate_dir, events, ["--theta-reset", "0.9"])) == 0
    assert main(simulate_args(substrate_dir, unique, ["--theta-reset", "0.9", "--count-unique"])) == 0
    names = sorted(p.name for p in events.glob("avalanches_*.csv"))
    assert names == sorted(p.name for p in unique.glob("avalanches_*.csv")) and len(names) == 4
    fewer = 0
    for name in names:
        a, b = read_rows(events / name), read_rows(unique / name)
        assert len(a) == len(b) == 4 * 20
        for col in ("replication", "period", "B_realised", "relax_rounds"):
            assert [r[col] for r in a] == [r[col] for r in b]
        assert all(int(y["S"]) <= int(x["S"]) for x, y in zip(a, b))
        fewer += sum(int(y["S"]) < int(x["S"]) for x, y in zip(a, b))
    assert fewer > 0


def test_simulate_runs_all_scenarios_in_one_pool(substrate_dir, tmp_path, monkeypatch):
    built = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    args = simulate_args(substrate_dir, tmp_path / "pooled")
    args[args.index("--threads") + 1] = "2"
    assert main(args) == 0
    assert len(read_rows(tmp_path / "pooled" / "scenarios.csv")) == 4
    assert len(built) == 1


def test_simulate_warns_once_per_run_on_failed_contraction(substrate_dir, tmp_path):
    # the row-share operator has radius 1, so beta = 0.4 is over the bound delta / 1;
    # a fresh interpreter shows each warning as the command line would
    args = simulate_args(substrate_dir, tmp_path / "share", extra=["--operator", "share"])
    args[args.index("--threads") + 1] = "2"
    env = {**os.environ, "PYTHONPATH": str(Path(hallsand.__file__).parent.parent)}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from hallsand.cli import main; sys.exit(main(sys.argv[1:]))", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(read_rows(tmp_path / "share" / "scenarios.csv")) == 4
    warned = [line for line in proc.stderr.splitlines() if "contraction check failed" in line]
    assert len(warned) == 1, proc.stderr


def test_simulate_dead_substrate_all_zero(substrate_dir, tmp_path):
    out = tmp_path / "dead"
    code = main(
        simulate_args(
            substrate_dir,
            out,
            extra=["--alpha", "0", "--presets", "none", "--cell", "dead:0.0:0.7"],
        )
    )
    assert code == 0
    row = read_rows(out / "scenarios.csv")[0]
    assert row["scenario"] == "dead"
    assert float(row["mean_S"]) == 0.0
    assert float(row["pr_nonzero"]) == 0.0
    assert row["regime"] == "absorption"


@pytest.mark.filterwarnings("ignore:contraction check failed")
def test_simulate_engine_failure_exit_2(substrate_dir, tmp_path, capsys):
    code = main(
        simulate_args(
            substrate_dir,
            tmp_path / "hot",
            extra=[
                "--operator", "share",
                "--redistribution-fraction", "1.0",
                "--max-relax-rounds", "3",
                "--presets", "none",
                "--cell", "hot:6.0:2.0",
            ],
        )
    )
    assert code == 2
    assert "relaxation" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nocolons", "x:1.2.3:1.0"])
def test_simulate_bad_cell_spec_exit_1(substrate_dir, tmp_path, capsys, cell):
    code = main(
        simulate_args(substrate_dir, tmp_path / "x", extra=["--cell", cell])
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "--cell" in err and repr(cell) in err


def test_simulate_refuses_a_bad_preset_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    for presets, bad in (("stable,banana", "banana"), ("", ""), ("stable,,latent", "")):
        assert main(["simulate", "--synth-nodes", "10", "--presets", presets, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown preset {bad!r}; expected one of")
        assert not out.exists()


@pytest.mark.parametrize(
    "command,extra,name",
    [
        ("simulate", ["--alpha", "nan"], "alpha"),
        ("simulate", ["--gamma", "nan"], "gamma"),
        ("simulate", ["--sigma-x", "nan"], "sigma_x"),
        ("simulate", ["--epsilon", "nan"], "epsilon"),
        ("simulate", ["--beta", "inf"], "beta"),
        ("simulate", ["--sigma-b-ratio", "nan"], "sigma_b_ratio"),
        ("simulate", ["--presets", "none", "--cell", "x:1.0:1e999"], "sigma_D"),
        ("phase-grid", ["--b-max", "nan", "--b-steps", "2", "--sigma-steps", "2"], "--b-max must be finite, got nan"),
        ("phase-grid", ["--sigma-min", "inf", "--b-steps", "2", "--sigma-steps", "2"], "--sigma-min must be finite, got inf"),
        ("exposure", ["--field", "nan"], "field intensity B"),
        ("exposure", ["--exposure-epsilon", "nan"], "epsilon"),
    ],
    ids=[
        "alpha", "gamma", "sigma_x", "epsilon", "beta", "sigma_b_ratio",
        "cell", "b_max", "sigma_min", "field", "exposure_epsilon",
    ],
)
def test_non_finite_value_exit_1(substrate_dir, tmp_path, capsys, command, extra, name):
    out = tmp_path / "out"
    argv = [
        command,
        "--flows", str(substrate_dir / "flows.csv"),
        "--year", "2014",
        "--out-dir", str(out),
        *extra,
    ]
    if command != "exposure":
        argv += ["--replications", "2", "--t-burn", "1", "--t-stat", "2", "--threads", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "finite" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "command,extra,flags",
    [
        ("exposure", ["--top", "0"], ["--top"]),
        ("phase-grid", ["--b-steps", "0"], ["--b-steps"]),
        ("phase-grid", ["--b-min", "3", "--b-max", "1"], ["--b-min", "--b-max"]),
        ("phase-grid", ["--sigma-steps", "0"], ["--sigma-steps"]),
        ("phase-grid", ["--sigma-min", "3", "--sigma-max", "1"], ["--sigma-min", "--sigma-max"]),
    ],
    ids=["top", "b_steps", "b_descending", "sigma_steps", "sigma_descending"],
)
def test_bad_value_error_names_its_flag(substrate_dir, tmp_path, capsys, command, extra, flags):
    out = tmp_path / "out"
    argv = [command, "--flows", str(substrate_dir / "flows.csv"), "--year", "2014", "--out-dir", str(out)]
    assert main([*argv, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(flag in err for flag in flags), err
    assert not list(out.glob("*.csv"))


def test_phase_grid_shape_and_timing(substrate_dir, tmp_path):
    out = tmp_path / "grid"
    t0 = time.time()
    code = main(
        [
            "phase-grid",
            "--synth-nodes", "200",
            "--synth-density", "0.1",
            "--synth-seed", "7",
            "--synth-mean-leakage", "0.22",
            "--b-steps", "2",
            "--sigma-steps", "2",
            "--replications", "5",
            "--threads", "1",
            "--convergence",
            "--out-dir", str(out),
        ]
    )
    elapsed = time.time() - t0
    assert code == 0
    assert elapsed < 60.0
    rows = read_rows(out / "phase_grid.csv")
    assert len(rows) == 4
    labels = {r["regime"] for r in rows}
    assert labels <= {"absorption", "latent_fragility", "critical_transition", "avalanche"}
    diag = read_rows(out / "convergence.csv")
    assert len(diag) == 4
    assert set(diag[0]) == set(
        [
            "B_bar", "sigma_D", "regime", "mean_S", "se_mean_S",
            "se_over_mean", "se_pr_ge5", "se_pr_ge10", "se_pr_ge20", "within_bounds",
        ]
    )


def test_tail_fit_from_simulated_series(substrate_dir, tmp_path):
    sim = tmp_path / "sim"
    assert main(simulate_args(substrate_dir, sim)) == 0
    out = tmp_path / "tails"
    code = main(
        [
            "tail-fit",
            str(sim / "avalanches_avalanche.csv"),
            "--min-tail", "20",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out / "tail_fits.csv")
    assert len(rows) == 1
    assert rows[0]["regime"] == "avalanche"
    assert list(rows[0]) == ["regime", "x_min", "n_tail", "alpha", "ks", "informative"]
    pairs = read_rows(out / "ccdf_avalanche.csv")
    assert float(pairs[0]["prob"]) == 1.0


def test_tail_fit_synthetic_recovery(tmp_path):
    rng = np.random.default_rng(12)
    xs = powerlaw_samples(rng, 2.5, 9, 40_000)
    series = tmp_path / "avalanches_synthetic.csv"
    with open(series, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replication", "period", "S", "B_realised", "relax_rounds"])
        for k, s in enumerate(xs):
            writer.writerow([0, k, int(s), 1.0, 1])
    out = tmp_path / "tails"
    assert main(["tail-fit", str(series), "--x-min", "9", "--out-dir", str(out)]) == 0
    row = read_rows(out / "tail_fits.csv")[0]
    assert row["regime"] == "synthetic"
    assert abs(float(row["alpha"]) - 2.5) < 0.05
    assert row["informative"] == "true"


def test_tail_fit_constant_series_uninformative(tmp_path):
    series = tmp_path / "avalanches_flat.csv"
    with open(series, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replication", "period", "S", "B_realised", "relax_rounds"])
        for k in range(200):
            writer.writerow([0, k, 1, 1.0, 1])
    out = tmp_path / "tails"
    assert main(["tail-fit", str(series), "--out-dir", str(out)]) == 0
    row = read_rows(out / "tail_fits.csv")[0]
    assert row["informative"] == "false"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["exposure", "--flows", "{d}/empty.csv"], "--year is required with --flows"),
        (["exposure"], "no substrate given: pass --flows with --year, or --synth-nodes"),
        (["simulate", "--synth-nodes", "10", "--presets", "none"], "nothing to run: presets are 'none' and no --cell given"),
        (["tail-fit", "{d}/avalanches_a b.csv"], "cannot derive a clean series name from 'avalanches_a b.csv'"),
        (["tail-fit", "{d}/avalanches_zero.csv"], "{d}/avalanches_zero.csv: no positive cascade sizes to fit"),
        (["tail-fit", "{d}/empty.csv"], "{d}/empty.csv: empty file, expected header S"),
        (
            ["exposure", "--flows", "{d}/empty.csv", "--year", "2014"],
            "{d}/empty.csv: empty file, expected header year,src_country,src_sector,dst_country,dst_sector,value",
        ),
        (["simulate", "--synth-nodes", "10", "--d-floor", "0"], "d_floor must be in (0, 1), got 0.0"),
        (["exposure", "--synth-nodes", "10", "--c-floor", "1.5"], "c_floor must be in (0, 1), got 1.5"),
    ],
    ids=[
        "year-missing", "no-substrate", "nothing-to-run", "series-name", "no-positive-size", "empty-series",
        "empty-flows", "d_floor", "c_floor",
    ],
)
def test_refusal_exit_1_writes_nothing(tmp_path, capsys, argv, message):
    (tmp_path / "empty.csv").write_bytes(b"")
    (tmp_path / "avalanches_zero.csv").write_text("replication,period,S\n0,0,0\n0,1,0\n")
    (tmp_path / "avalanches_a b.csv").write_text("S\n1\n")
    out = tmp_path / "out"
    assert main([*(a.format(d=tmp_path) for a in argv), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(d=tmp_path)}\n"
    assert not out.exists()


def test_tail_fit_refuses_a_repeated_series_name(tmp_path, capsys):
    paths = [tmp_path / d / "avalanches_x.csv" for d in ("a", "b")]
    for k, path in enumerate(paths):
        path.parent.mkdir()
        path.write_text("replication,period,S\n" + "".join(f"0,{t},{t % 7 + k}\n" for t in range(50)))
    out = tmp_path / "tails"
    assert main(["tail-fit", *map(str, paths), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'x'" in err and str(paths[0]) in err and str(paths[1]) in err
    assert not out.exists()


def test_tail_fit_empty_exit_1(tmp_path, capsys):
    series = tmp_path / "avalanches_void.csv"
    series.write_text("replication,period,S,B_realised,relax_rounds\n")
    assert main(["tail-fit", str(series), "--out-dir", str(tmp_path)]) == 1
    assert "no rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sizes,extra,nulls",
    [(range(1, 40), ["--x-min", "3"], ["ks"]), ([0, 0, 5], [], ["alpha", "ks"])],
    ids=["fixed-cutoff", "single-sample"],
)
def test_tail_fit_json_writes_null_where_the_csv_has_nan(tmp_path, sizes, extra, nulls):
    series = tmp_path / "avalanches_x.csv"
    series.write_text("replication,period,S\n" + "".join(f"0,{t},{s}\n" for t, s in enumerate(sizes)))
    out = tmp_path / "out"
    assert main(["tail-fit", str(series), *extra, "--json", "--out-dir", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    (fit,) = json.loads((out / "tail_fits.json").read_text(), parse_constant=refuse)
    (row,) = read_rows(out / "tail_fits.csv")
    assert [k for k, v in fit.items() if v is None] == nulls
    assert all(row[k] == "nan" for k in nulls)


@pytest.mark.parametrize("min_tail", ["0", "-1"])
def test_tail_fit_checks_min_tail_at_a_fixed_cutoff_too(tmp_path, capsys, min_tail):
    series = tmp_path / "avalanches_x.csv"
    series.write_text("replication,period,S\n" + "".join(f"0,{t},{t % 7 + 1}\n" for t in range(50)))
    errors = []
    for fixed in ([], ["--x-min", "1"]):
        args = ["tail-fit", str(series), "--min-tail", min_tail, *fixed, "--out-dir", str(tmp_path / "out")]
        assert main(args) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert f"min_tail must be >= 2, got {min_tail}" in errors[1]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--x-min", "0"], "--x-min: x_min must be >= 1, got 0"),
        (["--min-tail", "1"], "--min-tail: min_tail must be >= 2, got 1"),
        (["--min-tail", "1", "--x-min", "0"], "--min-tail: min_tail must be >= 2, got 1"),
    ],
)
@pytest.mark.parametrize("exists", [True, False], ids=["series", "missing-series"])
def test_tail_fit_bad_flag_is_named_before_any_file_is_read(tmp_path, capsys, flags, message, exists):
    # the flag's error names the flag, not the first series file, and wins
    # over a series file that is missing
    series = tmp_path / "avalanches_d.csv"
    if exists:
        series.write_text("replication,period,S\n" + "".join(f"0,{t},{t % 7 + 1}\n" for t in range(50)))
    out = tmp_path / "out"
    assert main(["tail-fit", str(series), *flags, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_tail_fit_cell_beyond_the_csv_field_limit_exit_1(tmp_path, capsys):
    # a good series ahead of the bad one: nothing is written, not even out/
    good = tmp_path / "avalanches_good.csv"
    good.write_text("replication,period,S\n0,0,3\n0,1,4\n")
    series = tmp_path / "avalanches_long.csv"
    series.write_text(f"replication,period,S\n0,0,3\n0,1,{'7' * (csv.field_size_limit() + 1)}\n")
    assert main(["tail-fit", str(good), str(series), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{series}: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tail_fit_x_min_above_a_series_names_its_file(tmp_path, capsys):
    # only the second series has no size at or above the cutoff
    paths = [tmp_path / "avalanches_a.csv", tmp_path / "avalanches_b.csv"]
    for path, top in zip(paths, (20, 11)):
        path.write_text("replication,period,S\n" + "".join(f"0,{t},{t % top + 1}\n" for t in range(60)))
    out = tmp_path / "out"
    assert main(["tail-fit", *map(str, paths), "--x-min", "12", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {paths[1]}: only 0 sample(s) at or above x_min=12\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["2.7", "nan", "inf", "1e19", "9007199254740993.0"])
def test_tail_fit_non_integer_size_exit_1(tmp_path, capsys, bad):
    series = tmp_path / "avalanches_frac.csv"
    series.write_text(f"replication,period,S,B_realised,relax_rounds\n0,0,3,1.0,1\n0,1,{bad},1.0,1\n")
    assert main(["tail-fit", str(series), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "avalanches_frac.csv row 3" in err
    assert repr(bad) in err


@pytest.mark.parametrize(
    "body,message",
    [("3\n-2\n5\n4\n", "row 3: negative S value '-2'"), ("3\n0\n-1e3\nx\n", "row 4: negative S value '-1e3'"),
     ("3\nx\n-2\n", "row 3: bad S value 'x', not a 64-bit integer")],
    ids=["negative", "negative-before-bad", "bad-before-negative"],
)
def test_tail_fit_refuses_a_negative_size(tmp_path, capsys, body, message):
    # a negative size is refused, not dropped as a zero size is; of several
    # bad rows the first in the file is named, whatever its fault
    series = tmp_path / "avalanches_neg.csv"
    series.write_text("S\n" + body)
    out = tmp_path / "out"
    assert main(["tail-fit", str(series), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {series} {message}\n"
    assert not out.exists()


def test_cli_imports_no_private_name_from_the_package():
    # every rule the commands use has a public owner in its module, so a
    # rework of a private helper stays inside that module
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "hallsand")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize(
    "body,bad",
    [("0,0,3,1.0,1\n\n0,1,2,1.0,1\n\n0,2\n", "None"), ("0,0,3,1.0,1\n\n\n0,1,2,1.0,1\n0,2,nan,1,1\n", "'nan'")],
    ids=["short-row", "nan"],
)
def test_tail_fit_row_number_skips_blank_lines(tmp_path, capsys, body, bad):
    # a BOM, blank lines between rows, and a short row whose S cell is missing;
    # blank lines are skipped as rows, and the bad row is named by its line, 6,
    # as csv.DictReader counts it for flows.csv
    series = tmp_path / "avalanches_gappy.csv"
    series.write_text("\ufeffreplication,period,S,B_realised,relax_rounds\n" + body, encoding="utf-8")
    assert main(["tail-fit", str(series), "--out-dir", str(tmp_path)]) == 1
    assert f"avalanches_gappy.csv row 6: bad S value {bad}, not a 64-bit integer" in capsys.readouterr().err


def test_tail_fit_writes_sizes_past_2_to_the_53_exactly(tmp_path):
    # a float64 holds neither size; each must reach ccdf_big.csv as written
    series = tmp_path / "avalanches_big.csv"
    series.write_text("replication,period,S\n0,0,9007199254740993\n0,1,9007199254740995\n")
    out = tmp_path / "out"
    assert main(["tail-fit", str(series), "--out-dir", str(out)]) == 0
    assert [r["x"] for r in read_rows(out / "ccdf_big.csv")] == ["9007199254740993", "9007199254740995"]
    # the two sizes have one float log, so the scanned exponent is infinite
    (row,) = read_rows(out / "tail_fits.csv")
    assert (row["x_min"], row["n_tail"], row["alpha"], row["ks"]) == ("9007199254740993", "2", "inf", "0.5")
    assert row["informative"] == "false"


def args_file(path, *tokens):
    """Write an argument file, one token per line, and return its @ argument."""
    path.write_text("".join(f"{token}\n" for token in tokens))
    return f"@{path}"


def test_config_defaults_and_flag_precedence(substrate_dir, tmp_path):
    # argument files compose, and a flag after them wins
    cfg_out = tmp_path / "fromcfg"
    common = args_file(tmp_path / "common.args", "--out-dir", cfg_out)
    run = args_file(
        tmp_path / "simulate.args",
        "--replications", 2, "--t-burn", 2, "--t-stat", 8, "--presets", "stable", "--threads", 1,
    )
    substrate = ["--flows", str(substrate_dir / "flows.csv"), "--year", "2014"]
    assert main(["simulate", common, run, *substrate]) == 0
    rows = read_rows(cfg_out / "scenarios.csv")
    assert [r["scenario"] for r in rows] == ["stable"]
    assert len(read_rows(cfg_out / "avalanches_stable.csv")) == 2 * 8

    flag_out = tmp_path / "fromflag"
    code = main(["simulate", common, run, *substrate, "--out-dir", str(flag_out), "--replications", "3"])
    assert code == 0
    assert len(read_rows(flag_out / "avalanches_stable.csv")) == 3 * 8


def test_argument_file_writes_the_bytes_of_the_typed_flags(tmp_path):
    flags = [
        "--presets", "stable", "--cell", "mine:0.9:1.7", "--replications", "2",
        "--t-burn", "2", "--t-stat", "8", "--threads", "1", "--json",
    ]
    written = []
    for name, argv in (("typed", flags), ("file", [args_file(tmp_path / "run.args", *flags)])):
        out = tmp_path / name
        assert main(["simulate", "--synth-nodes", "20", *argv, "--out-dir", str(out)]) == 0
        written.append({q.name: q.read_bytes() for q in out.iterdir()})
    assert len(written[0]) == 6
    assert written[0] == written[1]


def test_operator_spellings_reach_their_kind(tmp_path, monkeypatch):
    class Reached(Exception):
        pass

    def capture(table, kind, **kwargs):
        raise Reached(kind)

    monkeypatch.setattr(cli, "prepare_substrate", capture)
    assert [kind.value for kind in OperatorKind] == ["share", "leak", "max"]
    runs = [([], OperatorKind.LEAKAGE_ADJUSTED)]  # the default
    for kind in OperatorKind:
        cfg = args_file(tmp_path / f"{kind.value}.args", "--operator", kind.value)
        runs += [(["--operator", kind.value], kind), ([cfg], kind)]
    for tail, kind in runs:
        with pytest.raises(Reached) as caught:
            main(["simulate", "--synth-nodes", "10", *tail])
        assert caught.value.args == (kind,)


@pytest.mark.parametrize("name", ["LEAK", "max_row", "banana"])
def test_operator_other_spellings_exit_1(capsys, name):
    assert main(["simulate", "--synth-nodes", "10", "--operator", name]) == 1
    assert f"argument --operator: invalid OperatorKind value: {name!r}" in capsys.readouterr().err


def test_operator_other_spelling_in_a_config_exit_1(tmp_path, capsys):
    cfg = args_file(tmp_path / "operator.args", "--operator", "max_row")
    assert main(["simulate", "--synth-nodes", "10", cfg]) == 1
    assert capsys.readouterr().err.endswith("error: argument --operator: invalid OperatorKind value: 'max_row'\n")


def test_config_unknown_key_exit_1(tmp_path, capsys):
    cfg = args_file(tmp_path / "bad.args", "--bogus-key", 1)
    code = main(["simulate", "--synth-nodes", "10", cfg])
    assert code == 1
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --bogus-key 1\n")


@pytest.mark.parametrize(
    "tokens,message",
    [
        (["--replications", "2.5"], "argument --replications: invalid int value: '2.5'"),
        (["--json", "1"], "unrecognized arguments: 1"),
        (["--no-series", "false"], "unrecognized arguments: false"),
        (["--presets", "stable", "latent"], "unrecognized arguments: latent"),
        (["--json", ""], "unrecognized arguments: "),
        (["--replications 3"], "unrecognized arguments: --replications 3"),
        (["--out-dir", ""], "argument --out-dir: empty path"),
    ],
    ids=[
        "float-for-int", "int-for-switch", "string-for-switch", "list-for-single",
        "blank-line", "flag-and-value-on-one-line", "blank-line-after-out-dir",
    ],
)
def test_config_wrongly_typed_value_exit_1(substrate_dir, tmp_path, monkeypatch, capsys, tokens, message):
    monkeypatch.chdir(tmp_path)
    command, *flags = simulate_args(substrate_dir, tmp_path / "out")
    # a value is checked where it stands, even where a later flag overrides it
    assert main([command, args_file(tmp_path / "typed.args", *tokens), *flags]) == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert [q.name for q in tmp_path.iterdir()] == ["typed.args"]


@pytest.mark.parametrize(
    "tokens",
    [["--cell", "mine:0.9:1.7"], ["--cell=mine:0.9:1.7"]],
    ids=["two-lines", "equals"],
)
def test_config_cell_runs(substrate_dir, tmp_path, tokens):
    cfg = args_file(tmp_path / "cells.args", *tokens, "--presets", "none")
    command, *flags = simulate_args(substrate_dir, tmp_path / "out")
    assert main([command, cfg, *flags]) == 0
    assert [r["scenario"] for r in read_rows(tmp_path / "out" / "scenarios.csv")] == ["mine"]
    assert len(read_rows(tmp_path / "out" / "avalanches_mine.csv")) == 4 * 20

    # the file's cells come before those typed after it
    command, *flags = simulate_args(substrate_dir, tmp_path / "both", ["--cell", "yours:0.5:1.0"])
    assert main([command, cfg, *flags]) == 0
    assert [r["scenario"] for r in read_rows(tmp_path / "both" / "scenarios.csv")] == ["mine", "yours"]


@pytest.mark.parametrize(
    "text,command,message",
    [
        (None, ["exposure"], "[Errno 2] No such file or directory: '{cfg}'"),
        ("@{cfg}.absent\n", ["exposure"], "[Errno 2] No such file or directory: '{cfg}.absent'"),
        ("nosuchcmd\n", [], "argument command: invalid choice: 'nosuchcmd'"),
        ("", ["exposure"], None),
        ("exposure\n", [], None),
    ],
    ids=["missing", "missing-nested", "unknown-command", "empty-file", "command-only"],
)
def test_config_file_shape(tmp_path, capsys, text, command, message):
    # an empty file runs as if it were not there; a file may hold the command itself
    cfg = tmp_path / "run.args"
    if text is not None:
        cfg.write_text(text.format(cfg=cfg))
    out = tmp_path / "out"
    code = main([f"@{cfg}", *command, "--synth-nodes", "10", "--out-dir", str(out)])
    err = capsys.readouterr().err
    if message is None:
        assert (code, err) == (0, "")
        assert (out / "exposure.csv").exists()
    else:
        assert code == 1
        assert "hallsand: error: " + message.format(cfg=cfg) in err
        assert not out.exists()


def test_abbreviated_flags_in_a_file_act_as_typed(tmp_path, capsys):
    typed = ["--nod", "12", "--dens", "0.5"]
    for argv in (typed, [args_file(tmp_path / "abbrev.args", *typed)]):
        out = tmp_path / f"out{len(argv)}"
        assert main(["synth", *argv, "--out-dir", str(out)]) == 0
        assert "12 nodes" in capsys.readouterr().out
    # an abbreviation that fits two flags is refused in both
    for argv in (["--t", "1"], [args_file(tmp_path / "ambiguous.args", "--t", 1)]):
        assert main(["simulate", "--synth-nodes", "10", *argv]) == 1
        assert "error: ambiguous option: --t could match" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--synth-nodes", "10", "--delta", "1.5"],
        ["simulate", "--synth-nodes", "10", "--threads", "0"],
        ["simulate", "--synth-nodes", "10", "--replications", "0"],
        ["simulate", "--synth-nodes", "10", "--sigma-b-ratio", "-1"],
        ["synth", "--nodes", "12"],  # a node without flows
    ],
    ids=["delta", "threads", "replications", "sigma_b_ratio", "synth-no-flows"],
)
def test_exit_1_leaves_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "out" / "nested"
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["exposure", "--synth-nodes", "10", "--flows", ""], "--flows"),
        (["exposure", "--synth-nodes", "10", "--out-dir", ""], "--out-dir"),
        (["ingest", "--flows", "FLOWS", "--year", "2014", "--row-use", ""], "--row-use"),
        (["network-panel", "--flows", ""], "--flows"),
        (["tail-fit", ""], "series"),
    ],
    ids=["exposure-flows", "exposure-out-dir", "ingest-row-use", "network-panel-flows", "tail-fit-series"],
)
def test_empty_path_is_refused_by_name(substrate_dir, tmp_path, monkeypatch, capsys, argv, flag):
    # an empty path is not the working directory, and is not taken for an absent flag
    monkeypatch.chdir(tmp_path)
    argv = [str(substrate_dir / "flows.csv") if a == "FLOWS" else a for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: empty path\n")
    assert not list(tmp_path.iterdir())


def test_threads_is_the_one_worker_count_setting(tmp_path, monkeypatch):
    # without --threads a run takes one worker per CPU, whatever the environment holds
    argv = ["simulate", "--synth-nodes", "20", "--presets", "stable", "--replications", "2", "--t-burn", "2", "--t-stat", "8"]
    written = []
    for name in ("plain", "junk"):
        if name == "junk":
            monkeypatch.setenv("HALLSAND_THREADS", "junk")
        out = tmp_path / name
        assert main([*argv, "--out-dir", str(out)]) == 0
        written.append({q.name: q.read_bytes() for q in out.iterdir()})
    assert len(written[0]) == 2
    assert written[0] == written[1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sigma_b_ratio_overflowing_a_cells_volatility_exit_1(tmp_path, capsys, threads):
    # 1e300 * 1e10 is past the float range: refused before any run, naming the cell
    out = tmp_path / "out"
    argv = [
        "simulate", "--synth-nodes", "10", "--presets", "none", "--cell", "big:1e10:1",
        "--sigma-b-ratio", "1e300", "--replications", "2", "--t-burn", "0", "--t-stat", "1",
        "--threads", threads, "--out-dir", str(out),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario 'big': sigma_b_ratio=1e+300 ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["simulate", "--presets", "none", "--cell", "x:-1:1"],
            "error: scenario 'x': B_bar must be finite and non-negative, got -1.0\n",
        ),
        (
            ["phase-grid", "--sigma-min", "0", "--b-steps", "2", "--sigma-steps", "2"],
            "error: scenario 'cell_0_0': sigma_D must be finite and positive, got 0.0\n",
        ),
    ],
    ids=["cell", "grid"],
)
def test_bad_scenario_is_refused_by_name(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    protocol = ["--replications", "2", "--t-burn", "0", "--t-stat", "1", "--threads", "1"]
    assert main([*argv, "--synth-nodes", "10", *protocol, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_synth_node_without_flows_exit_1(tmp_path, capsys):
    # 10 of these 30 nodes have no flows, which the flows format cannot carry
    out = tmp_path / "sparse"
    assert main(["synth", "--nodes", "30", "--density", "0.02", "--seed", "1", "--out-dir", str(out)]) == 1
    assert "AAA_ALL" in capsys.readouterr().err
    assert not (out / "flows.csv").exists()
    assert not (out / "row_use.csv").exists()


@pytest.mark.parametrize(
    "command,extra",
    [
        ("exposure", []),
        ("simulate", ["--presets", "stable", "--replications", "1", "--threads", "1"]),
        ("phase-grid", ["--b-steps", "1", "--sigma-steps", "1", "--replications", "1", "--threads", "1"]),
    ],
    ids=["exposure", "simulate", "phase-grid"],
)
def test_flows_with_synth_nodes_exit_1(substrate_dir, tmp_path, capsys, command, extra):
    out = tmp_path / "out"
    argv = [
        command,
        "--flows", str(substrate_dir / "flows.csv"),
        "--year", "2014",
        "--synth-nodes", "10",
        "--out-dir", str(out),
        *extra,
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--flows" in err and "--synth-nodes" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "flag,value,substrate",
    [
        ("--year", "1999", "--synth-nodes"),
        ("--row-use", "nope.csv", "--synth-nodes"),
        ("--synth-density", "0.9", "--flows"),
        ("--synth-seed", "3", "--flows"),
        ("--synth-mean-leakage", "0.2", "--flows"),
    ],
)
def test_substrate_flag_of_the_other_substrate_exit_1(substrate_dir, tmp_path, capsys, flag, value, substrate):
    if substrate == "--flows":
        argv = ["--flows", str(substrate_dir / "flows.csv"), "--year", "2014"]
    else:
        argv = ["--synth-nodes", "20"]
    assert main(["exposure", *argv, flag, value, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {flag} does not apply to a {substrate} substrate\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "extra,message",
    [([], "n must be in [2, 17576], got 0"), (["--year", "2014"], "--year does not apply to a --synth-nodes substrate")],
    ids=["alone", "with-year"],
)
def test_synth_nodes_0_is_a_synthetic_substrate(tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    assert main(["exposure", "--synth-nodes", "0", *extra, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_flags_left_out_take_the_library_defaults(tmp_path):
    given = tmp_path / "given"
    argv = ["exposure", "--synth-nodes", "20"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    library = ["--synth-density", str(DEFAULT_SYNTH_DENSITY), "--synth-seed", "0",
               "--synth-mean-leakage", str(DEFAULT_MEAN_LEAKAGE)]
    assert main([*argv, *library, "--out-dir", str(given)]) == 0
    for name in ("exposure.csv", "top_nodes.csv"):
        assert (tmp_path / name).read_bytes() == (given / name).read_bytes()


@pytest.mark.parametrize(
    "command,flag",
    [
        ("simulate", "--field"),
        ("simulate", "--exposure-epsilon"),
        ("simulate", "--synth-year"),
        ("phase-grid", "--field"),
        ("phase-grid", "--exposure-epsilon"),
        ("phase-grid", "--synth-year"),
        ("exposure", "--synth-year"),
        ("network-panel", "--field"),
    ],
)
def test_flag_that_reaches_no_output_is_rejected(substrate_dir, tmp_path, capsys, command, flag):
    argv = [command, "--flows", str(substrate_dir / "flows.csv"), "--out-dir", str(tmp_path)]
    if command != "network-panel":
        argv += ["--year", "2014"]
    assert main([*argv, flag, "1999"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    required = {"network-panel": ["--flows", "flows.csv"], "tail-fit": ["avalanches.csv"]}
    commands = {
        command: parser.parse_args([command, *required.get(command, [])])
        for command in ("network-panel", "exposure", "simulate", "phase-grid", "tail-fit")
    }
    for command, replications, pinned in (
        ("simulate", DEFAULT_REPLICATIONS, 100),
        ("phase-grid", DEFAULT_GRID_REPLICATIONS, 50),
    ):
        args = commands[command]
        for f in fields(Params):
            assert getattr(args, f.name) == f.default, (command, f.name)
        assert args.replications == replications == pinned
        assert args.t_burn == DEFAULT_T_BURN == 50
        assert args.t_stat == DEFAULT_T_STAT == 150
        assert args.sigma_b_ratio == DEFAULT_SIGMA_B_RATIO
    for command in ("network-panel", "exposure", "simulate", "phase-grid"):
        assert commands[command].d_floor == DEFAULT_FLOOR
        assert commands[command].c_floor == DEFAULT_FLOOR
    for command in ("network-panel", "exposure"):
        assert commands[command].exposure_epsilon == DEFAULT_EPSILON
    assert commands["tail-fit"].min_tail == DEFAULT_MIN_TAIL


def test_phase_grid_default_axes_are_the_default_grid(monkeypatch):
    class Captured(Exception):
        pass

    def capture(specs, *args, **kwargs):
        raise Captured(specs, kwargs)

    monkeypatch.setattr(cli, "run_scenarios", capture)
    with pytest.raises(Captured) as caught:
        main(["phase-grid", "--synth-nodes", "10", "--master-seed", "9"])
    specs, protocol = caught.value.args
    # 10 field levels on [0.25, 2.0] by 9 dispersion values on [0.5, 2.5], 50 replications each
    B_values = tuple(float(b) for b in np.linspace(0.25, 2.0, 10))
    sigmaD_values = tuple(float(s) for s in np.linspace(0.5, 2.5, 9))
    assert specs == experiments.grid_scenarios(B_values, sigmaD_values, 9)
    assert protocol == {"T_burn": 50, "T_stat": 150, "replications": 50}
    assert len(specs) == 90
    assert (specs[0].B_bar, specs[0].sigma_D, specs[-1].B_bar, specs[-1].sigma_D) == (0.25, 0.5, 2.0, 2.5)


def test_network_panel_reads_each_input_once(tmp_path, monkeypatch):
    data = tmp_path / "two-years"
    data.mkdir()
    for year in (2013, 2014):
        table = ingest.synth_substrate(30, 0.2, year, year=year)
        ingest.write_io_table(table, data / f"flows-{year}.csv", data / f"row_use-{year}.csv")
    for name in ("flows", "row_use"):
        first, second = (
            (data / f"{name}-{year}.csv").read_text().splitlines(keepends=True) for year in (2013, 2014)
        )
        (data / f"{name}.csv").write_text("".join(first + second[1:]))

    opened = {}
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened[Path(file).name] = opened.get(Path(file).name, 0) + 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(ingest, "open", counting_open, raising=False)
    out = tmp_path / "panel"
    code = main(["network-panel", "--flows", str(data / "flows.csv"), "--out-dir", str(out)])
    assert code == 0
    assert [row["year"] for row in read_rows(out / "panel.csv")] == ["2013", "2014"]
    assert opened == {"flows.csv": 1, "row_use.csv": 1}


@pytest.mark.parametrize(
    "dense,label",
    [
        ([[0, 1e308, 1e308], [1, 0, 2], [3, 1, 0]], "A_s"),  # a row total
        ([[0, 0, 1e308], [0, 0, 1e308], [1, 0, 0]], "C_s"),  # a column total
        ([[0, 1e308, 0], [0, 0, 1e308], [1, 0, 0]], "B_s"),  # the grand total only
    ],
    ids=["row", "column", "grand"],
)
@pytest.mark.parametrize("command", ["exposure", "network-panel"])
def test_flows_that_sum_past_the_float_range_exit_1(tmp_path, capsys, command, dense, label):
    # each flow is finite, so the parser takes it; the table refuses the total
    rows = [f"2014,{'ABC'[i]},s,{'ABC'[j]},s,{v!r}" for i, row in enumerate(dense) for j, v in enumerate(row) if v]
    flows = tmp_path / "flows.csv"
    flows.write_text("\n".join(["year,src_country,src_sector,dst_country,dst_sector,value", *rows, ""]))
    argv = [command, "--flows", str(flows), "--out-dir", str(tmp_path / "out")]
    assert main(argv + (["--year", "2014"] if command == "exposure" else [])) == 1
    assert f"node {label}: " in capsys.readouterr().err


def old_fmt(value) -> str:
    """The per-value cell formatter the column-wise writer replaced, kept as its reference."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def old_emit(path, header, rows, as_json):
    """The row-by-row CSV and JSON writer, kept as the column-wise writer's reference."""
    rows = list(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([old_fmt(v) for v in row])
    if as_json:
        # JSON has no NaN or infinity: the mirror writes null where the CSV has nan
        rows = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row] for row in rows]
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=2)
            fh.write("\n")


def test_column_writer_matches_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    sizes = [5, 0, 7]  # a replication may keep no periods
    S = [rng.integers(0, 40, k) for k in sizes]
    B = [rng.random(k) * 10.0 ** rng.integers(-300, 300, k) for k in sizes]
    rounds = [rng.integers(0, 9, k) for k in sizes]
    series_rows = [
        (rep, 4 + t, int(s[t]), float(b[t]), int(r[t]))
        for rep, (s, b, r) in enumerate(zip(S, B, rounds))
        for t in range(s.size)
    ]
    series_columns = [
        np.repeat(np.arange(len(sizes)), sizes),
        np.concatenate([np.arange(4, 4 + k) for k in sizes]),
        *map(np.concatenate, (S, B, rounds)),
    ]
    labels = ["plain", "a,b", 'say "x"', "two\nlines", ""]
    exposure_rows = [(k, label, "s1", float(k) / 3, -0.0, 1e-310) for k, label in enumerate(labels)]
    exposure_columns = [
        np.arange(len(labels)),
        labels,
        ["s1"] * len(labels),
        np.arange(len(labels)) / 3,
        np.full(len(labels), -0.0),
        [1e-310] * len(labels),
    ]
    # convergence.csv: an empty se_over_mean cell, text and switch columns
    diag_rows = [(0.25, "absorption", "", True), (1.5, "avalanche", 0.031, False), (2.0, "latent", float("nan"), False)]
    tables = {
        "avalanches_x.csv": (cli.AVALANCHE_HEADER, series_rows, series_columns),
        "exposure.csv": (("node", "country", "sector", "I", "H", "R"), exposure_rows, exposure_columns),
        "convergence.csv": (("B_bar", "regime", "se_over_mean", "ok"), diag_rows, list(zip(*diag_rows))),
        "empty.csv": (("x", "prob"), [], []),
    }
    for as_json in (False, True):
        for name, (header, rows, columns) in tables.items():
            want, got = tmp_path / f"want{as_json}", tmp_path / f"got{as_json}"
            want.mkdir(exist_ok=True)
            got.mkdir(exist_ok=True)
            old_emit(want / name, header, rows, as_json)
            assert cli._emit(got, name, header, columns, as_json) == got / name
            assert (got / name).read_bytes() == (want / name).read_bytes(), name
            mirror = Path(name).with_suffix(".json")
            assert (got / mirror).exists() == as_json
            if as_json:
                assert (got / mirror).read_bytes() == (want / mirror).read_bytes(), name


def test_import_loads_csgraph_only_for_a_matrix_not_strongly_connected():
    # the engine modules, scipy.sparse among them, load eagerly. csgraph, and the
    # scipy.linalg it pulls in, load only when a spectral radius meets a matrix
    # that is not strongly connected.
    env = {**os.environ, "PYTHONPATH": str(Path(hallsand.__file__).parent.parent)}
    code = "\n".join([
        "import sys, hallsand.cli",
        "from hallsand.experiments import prepare_substrate",
        "from hallsand.ingest import synth_substrate",
        "from hallsand.operators import spectral_radius",
        "from scipy import sparse",
        "def loaded(): return [m in sys.modules for m in ('scipy.sparse.csgraph', 'scipy.linalg')]",
        "print('scipy.sparse' in sys.modules, *loaded())",
        "sub = prepare_substrate(synth_substrate(30, 0.5, 4))",
        "print(sub.operator.spectral_radius > 0, *loaded())",
        "print(spectral_radius(sparse.csr_matrix([[1.0, 1.0], [0.0, 0.5]])), *loaded())",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True False False", "True False False", "1.0 True True"]


def test_cli_import_freezes_the_import_heap_and_the_package_import_does_not():
    # a library import leaves its caller's GC state alone; the CLI freezes what the
    # imports made, and a cycle made after that is still collected
    env = {**os.environ, "PYTHONPATH": str(Path(hallsand.__file__).parent.parent)}
    code = "\n".join([
        "import gc, weakref",
        "enabled = gc.isenabled()",
        "import hallsand",
        "print(gc.get_freeze_count() == 0, gc.isenabled() == enabled)",
        "import hallsand.cli",
        "print(gc.get_freeze_count() > 0, gc.isenabled())",
        "class Node: pass",
        "node = Node(); node.self = node; ref = weakref.ref(node); del node",
        "gc.collect()",
        "print(ref() is None)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True True", "True True", "True"]
