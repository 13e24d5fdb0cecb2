"""Every CLI table's bytes, pinned by sha256.

One short run of each command that writes tables (simulate with presets, a
custom cell, series and JSON; phase-grid with convergence and JSON;
exposure and network-panel with JSON; tail-fit by scan and at a fixed
x_min) on small synthetic substrates at --threads 1. The digests were
recorded from the same runs before the CLI's tables were rebuilt from
header -> getter maps, so any change to a cell's text, a column's order or
a JSON mirror fails here. tail-xmin/tail_fits.csv was recorded again when
the fixed-cutoff fit took the scan's sum of logs, which moved the last bits
of its alpha column. One more simulate run, of one preset and the
custom cell alone, must write those two scenarios' series byte for byte,
so a scenario's seed does not depend on which other scenarios run.

The substrates are strongly connected under every operator, so the
spectral radii in panel.csv come from whole-matrix power iteration.
"""

import hashlib

from hallsand.cli import main
from hallsand.ingest import parse_io_table
from hallsand.operators import OperatorKind, _cyclic_components, build_operator

DIGESTS = {
    "exposure/exposure.csv": "d6f0f7976df8ee2d4f1af13874e61a8b74cf3540164e874902c7a85cefbb2b22",
    "exposure/exposure.json": "cfa16e0b82492c2739884a664507b944f2db0fc2cd91aef18c366d3e1e0a1c5a",
    "exposure/top_nodes.csv": "b4c61926a5c3f23a750c6d0bf03fc7a8ecdb04feb546e6379fefba48fcd88f41",
    "exposure/top_nodes.json": "6e9d8cc86b7522102fe27f32efa1f8fa67f0d508b29106a0f5180dcf5a0461c2",
    "network-panel/panel.csv": "eadd704e964063ebcd3a126f37216cf876a07c24c8b7bf2020d21e10068e9fbd",
    "network-panel/panel.json": "bb86d2443b730d801b418a11cab0dbd78fae03578d9a0a9cd3b3c14a9fb9d541",
    "phase-grid/convergence.csv": "2a471016d48d99c8af6b8d638090a500b4bbb384e509323b2c3ab0f8cde5c338",
    "phase-grid/convergence.json": "56cc649595dccc80e87e80225d08902a2cdfdf13bb87bd4dbadfb5a57d7d6513",
    "phase-grid/phase_grid.csv": "fa98de652e49884c21ff0656e791d9656e41e5ef3d7d6d05bbbf0ec1c8f19cc9",
    "phase-grid/phase_grid.json": "4ec61a25a29d38a4705300907d4bdd28467e60e7ec2052049234a2e11e848383",
    "simulate/avalanches_avalanche.csv": "2311d7573bdda60f079e7d70c4c28344c2f3979ea64313aa3120ead62916a420",
    "simulate/avalanches_avalanche.json": "ca4baf2dc3048175944f2f4644b1c359262779f1cb965aa70a3819d05927112f",
    "simulate/avalanches_critical.csv": "1ee76d69861e6f30cf02850a2f2949efceadac79eb89377280e15dc7241f8f58",
    "simulate/avalanches_critical.json": "df1aa4949eaa922cb20acd8cfa367429acedb0799513758790c2ec546899a650",
    "simulate/avalanches_latent.csv": "397f5d78e439da33ffb15315d7e1285c882dd48ad7e8d1dd21d51ac14b982119",
    "simulate/avalanches_latent.json": "3cf0cc36f5f86ce61778dea352ed633165d753754e81d84d58a52ef33bd99b1d",
    "simulate/avalanches_mine.csv": "e1d38b199a25872f5339c07c7b066799dc9a58fdda359c7f571057fd15037215",
    "simulate/avalanches_mine.json": "44346c3f43fd636f92296e65fd06f2ff92b72b7a53e8399539774ab43e29da9d",
    "simulate/avalanches_stable.csv": "7b79ab07aee6bc06a2491fbc9e1f3a695fdf408be577f5efc53ee1732cc8a7c2",
    "simulate/avalanches_stable.json": "c0c2e4e4b4d5e94c2b3d628d2468343ed7fb81626e295f0a350d5e4bbc760d2e",
    "simulate/scenarios.csv": "518400e9bc89c7705c263fad768f6b2952de0a57b921eba6b70fa07bc0b3160f",
    "simulate/scenarios.json": "03dd9b147a9d525a1c3adf4cf29a8ce3210d012838762ea3c1d0cd2052759c14",
    "tail-scan/ccdf_avalanche.csv": "9af342c7616f228d1e1aca53364794f9939d1b3c599978ee7decfa231d984138",
    "tail-scan/ccdf_avalanche.json": "821989b872c89cf9380b418c4476d5ce14bb38ef28fa446fa1201ecf8a8c102e",
    "tail-scan/ccdf_critical.csv": "020d9e24f9e36e477532e4e870ca6ad3d807d4892138e54200db96f322f30da9",
    "tail-scan/ccdf_critical.json": "9e533f829b3837e4ceb62c8c65846ba29f3d32b210d4bd4ffae4027c270e01e9",
    "tail-scan/ccdf_mine.csv": "2dc762746894359eaa876615204f2271b9f2863943050044b50090ce8e0f85c5",
    "tail-scan/ccdf_mine.json": "8c7c68be2d5fbdba7159ab6381eb61478cb2bab270035857388656540ba61988",
    "tail-scan/tail_fits.csv": "137a8c38466ce1900a947bdd4c7cd99f74638e9bdf1c81360fe7701af1c835a4",
    "tail-scan/tail_fits.json": "1ad6e0b7f94b8e235bba5db378e822061fc5094f98c90096218fec53aa855b50",
    "tail-xmin/ccdf_avalanche.csv": "9af342c7616f228d1e1aca53364794f9939d1b3c599978ee7decfa231d984138",
    "tail-xmin/ccdf_critical.csv": "020d9e24f9e36e477532e4e870ca6ad3d807d4892138e54200db96f322f30da9",
    "tail-xmin/ccdf_mine.csv": "2dc762746894359eaa876615204f2271b9f2863943050044b50090ce8e0f85c5",
    "tail-xmin/tail_fits.csv": "d29e0584e55b7dd150c13fe0200526cb00adf1f328803eb231240913c26db045",
}


def _synth(out_dir, year, seed):
    args = ["synth", "--nodes", "24", "--density", "0.3", "--seed", str(seed), "--year", str(year)]
    assert main([*args, "--out-dir", str(out_dir)]) == 0


def _concat(paths, target):
    """Join CSVs that share a header line."""
    lines = []
    for k, path in enumerate(paths):
        text = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.extend(text if k == 0 else text[1:])
    target.write_text("".join(lines), encoding="utf-8")


def _run_all(root):
    data = root / "data"
    _synth(root / "y2013", 2013, 4)
    _synth(data, 2014, 3)
    flows, row_use = data / "flows.csv", data / "row_use.csv"
    panel = root / "panel_data"
    panel.mkdir()
    for name in ("flows.csv", "row_use.csv"):
        _concat([root / "y2013" / name, data / name], panel / name)
    for year in (2013, 2014):
        table = parse_io_table(panel / "flows.csv", year, row_use_path=panel / "row_use.csv")
        for kind in OperatorKind:
            components = _cyclic_components(build_operator(table, kind).matrix)
            assert [c.size for c in components] == [table.n], (year, kind)

    substrate = ["--flows", str(flows), "--year", "2014", "--row-use", str(row_use)]
    protocol = ["--replications", "4", "--t-burn", "10", "--t-stat", "40", "--threads", "1"]
    out = root / "out"
    runs = [
        ["simulate", *substrate, *protocol, "--cell", "mine:0.9:1.7", "--json", "--out-dir", str(out / "simulate")],
        [
            "phase-grid", *substrate,
            "--b-min", "0", "--b-steps", "3", "--sigma-steps", "2", "--theta", "2",
            "--replications", "3", "--t-burn", "10", "--t-stat", "30", "--threads", "1",
            "--convergence", "--json", "--out-dir", str(out / "phase-grid"),
        ],
        ["exposure", *substrate, "--top", "5", "--json", "--out-dir", str(out / "exposure")],
        # outside out: compared with the full simulate run's files by the test
        ["simulate", *substrate, *protocol, "--presets", "avalanche", "--cell", "mine:0.9:1.7",
         "--out-dir", str(root / "subset")],
        [
            "network-panel", "--flows", str(panel / "flows.csv"), "--row-use", str(panel / "row_use.csv"),
            "--json", "--out-dir", str(out / "network-panel"),
        ],
    ]
    series = [str(out / "simulate" / f"avalanches_{name}.csv") for name in ("critical", "avalanche", "mine")]
    runs += [
        ["tail-fit", *series, "--json", "--out-dir", str(out / "tail-scan")],
        ["tail-fit", *series, "--x-min", "2", "--out-dir", str(out / "tail-xmin")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    return {
        path.relative_to(out).as_posix(): _digest(path)
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_table_byte_matches_the_recorded_digest(tmp_path):
    assert _run_all(tmp_path) == DIGESTS
    subset = tmp_path / "subset"
    assert sorted(p.name for p in subset.iterdir()) == [
        "avalanches_avalanche.csv", "avalanches_mine.csv", "scenarios.csv",
    ]
    for name in ("avalanche", "mine"):
        assert _digest(subset / f"avalanches_{name}.csv") == DIGESTS[f"simulate/avalanches_{name}.csv"]
