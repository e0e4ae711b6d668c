"""Run one skdesign CLI command in this fresh interpreter, traced or not.

    python perfbench/child.py [--spans PATH] -- <skdesign arguments>

Imports skdesign.cli, optionally installs the tracer, calls cli.main
with stdout captured, and prints one JSON line: exit code, captured
stdout, the wall time of cli.main and, when traced, the span summary plus
the verdict counts of every run_search call.
The caller sets PYTHONPATH so that skdesign is importable.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", help="trace, and write the spans to this TSV file")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import skdesign.cli

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(keep=("search.run_search",))
        tracer.install()
    captured = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = skdesign.cli.main(argv)
    main_s = time.perf_counter() - t0

    doc = {"exit": code, "stdout": captured.getvalue(), "main_s": main_s}
    if tracer is not None:
        tracer.uninstall()
        doc["summary"] = tracer.summary()
        doc["verdicts"] = [dict(r.verdict_counts) for r in tracer.kept["search.run_search"]]
        tracer.write_tsv(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
