"""Exit code and SHA-256 of stdout and stderr for every benchmark request.

    python3 tools/request_digests.py --seed N [--src DIR] > digests.jsonl

The requests of every workload (few-lines, many-lines, verify) are built
with ``bench/inputs.build`` for ``--seed`` in one temporary directory,
which is also the working directory, so every argv names its input by
file name alone.  Each request runs in-process through
``charkit.cli.main`` twice, as built (JSON) and with ``--format table``,
in that order, and prints one JSON line: workload, request id, format,
argv, exit code and the SHA-256 of its stdout and of its stderr.  Nothing
under ``bench/`` is written, bytecode caches included.

charkit is imported from ``--src`` (default: this checkout's ``src``), so
one copy of this script digests any checkout: two checkouts give the same
bytes on every request exactly when their digest files are equal, e.g.

    python3 tools/request_digests.py --seed 42 --src ../parent/src > old
    python3 tools/request_digests.py --seed 42 > new
    diff old new
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = {"json": [], "table": ["--format", "table"]}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process request; an escaped
    exception exits -1 with its traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding charkit")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import inputs

    from charkit import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for workload in inputs.WORKLOADS:
                for request in inputs.build(workload, args.seed, Path(".")):
                    for name, extra in FORMATS.items():
                        code, out, err = _run(cli, request.argv + extra)
                        print(json.dumps({
                            "workload": workload, "rid": request.rid, "format": name,
                            "argv": request.argv, "exit": code,
                            "stdout": _sha256(out), "stderr": _sha256(err),
                        }), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
