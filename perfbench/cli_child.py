"""Traced stand-in for ``python -m purity_witness.cli`` (traced runs only).

Usage: cli_child.py SPANS_JSON CLI_ARGS...

Writes the spans of the command, and the ``perf_counter()`` reading right
after ``purity_witness.cli`` is imported, to SPANS_JSON for the parent to
merge.  On Linux that clock is shared across processes, so the parent takes
the command's start-up as that reading minus its own just before the spawn.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from purity_witness import cli  # noqa: E402

t_imported = perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    spans = [
        [tracer.names[n], s, e, p]
        for n, s, e, p in zip(a["name"].tolist(), a["start"].tolist(), a["end"].tolist(), a["parent"].tolist())
    ]
    spans_path.write_text(json.dumps({"t_imported": t_imported, "spans": spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
