"""Run one hallsand CLI command from source, as the console script would.

Usage: python3 bench/launch.py MARKS_JSON SPANS_DIR|- -- <hallsand arguments>

The checkout is not installed, so this imports the package from src/ and
calls hallsand.cli:main, the console script's entry point. It writes
CLOCK_MONOTONIC marks to MARKS_JSON: when the import finished and when the
substrate was ready (prepare_substrate returned), and the peak resident
memory of the process tree. With a SPANS_DIR it also
traces the layers and writes spans there, one file per process.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kb() -> int:
    """Peak RSS of this process since exec, or of its largest reaped worker.

    ru_maxrss of this process would also count its parent's peak from before
    exec, so the process's own part is read from VmHWM.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv: list[str]) -> int:
    marks_path, spans_dir, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py MARKS_JSON SPANS_DIR|- -- <hallsand arguments>")
    sys.path.insert(0, str(ROOT / "src"))
    rec = None
    if spans_dir != "-":
        from recorder import Recorder, install

        rec = Recorder()
        import_span = rec.begin(rec.name_id("cli.import"))
    import hallsand.cli as cli

    marks = {"import_done": time.monotonic_ns()}
    if rec is not None:
        rec.end(import_span)
        missing = install(rec)
        for name in missing:
            rec.count(f"missing:{name}")
        rec.follow_forks(spans_dir)

    prepare = cli.prepare_substrate

    @functools.wraps(prepare)
    def prepare_marked(*args, **kwargs):
        substrate = prepare(*args, **kwargs)
        marks.setdefault("substrate_ready", time.monotonic_ns())
        return substrate

    cli.prepare_substrate = prepare_marked
    try:
        if rec is None:
            return cli.main(cli_args)
        main_span = rec.begin(rec.name_id("cli.main"))
        try:
            return cli.main(cli_args)
        finally:
            rec.end(main_span)
    finally:
        marks["peak_rss_kb"] = peak_rss_kb()
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)
        if rec is not None:
            rec.write(spans_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
