"""Record bench/digests.json: sha256 of every generated input and output CSV.

Usage: python3 bench/pin.py [WORKLOAD ...]

Run this only on the commit whose outputs are the reference, and only when
the benchmark's workloads change. It runs each named workload (default:
all) once per input variant, and every command must exit 0. The digests of
workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, WORK_DIR, run_sequence
from workloads import VARIANTS, WORKLOADS, digests, input_key, prepare_inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="workloads to re-record (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s) {sorted(unknown)}; expected {sorted(WORKLOADS)}")
    pins = {"variants": VARIANTS, "inputs": {}, "outputs": {}}
    if args.workloads and DIGESTS.exists():
        pins = json.loads(DIGESTS.read_text())
    for workload in WORKLOADS.values():
        if args.workloads and workload.name not in args.workloads:
            continue
        pins["outputs"][workload.name] = {}
        for variant in range(VARIANTS):
            key = input_key(workload, variant)
            inputs = None
            if key is not None:
                inputs, pins["inputs"][key] = prepare_inputs(key, WORK_DIR, None)
            out_root = WORK_DIR / "runs" / workload.name
            ops, _ = run_sequence(workload.commands(variant, inputs, out_root), out_root, None, False)
            bad = [op for op in ops if op.failed]
            if bad:
                print(f"{workload.name} variant {variant}: {bad[0].label} failed: {bad[0].problems}")
                return 1
            found = {}
            for op in ops:
                found.update({f"{op.label}/{k}": v for k, v in digests(out_root / op.label).items()})
            pins["outputs"][workload.name][str(variant)] = found
            print(f"{workload.name} variant {variant}: {len(found)} CSVs, "
                  f"{sum(op.wall_s for op in ops):.2f} s", flush=True)
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
