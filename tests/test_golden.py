"""Byte-for-byte comparison of CLI output against recorded documents.

Each case runs `skdesign.cli.main` in process and compares its stdout with
`tests/golden/<name>.txt`.  The recorded files pin the output of refactors
that must not change behaviour; a deliberate output change re-records them
with

    PYTHONPATH=src python tests/test_golden.py [name ...]

(all cases, or only the named ones) and says why in CHANGES.md.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from skdesign.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "search-default-audit": ["search", "--format", "json", "--audit"],
    "search-len4-audit": ["search", "--max-len", "4", "--format", "json", "--audit"],
    "search-len4-audit-nodom": [
        "search", "--max-len", "4", "--format", "json", "--audit", "--no-domination",
    ],
    "search-len4-audit-table": ["search", "--max-len", "4", "--audit"],
    "search-c3-f5-audit": [
        "search", "--channels", "3", "--out-channels", "5", "--audit", "--format", "json",
    ],
    "search-c16-f32-audit": [
        "search", "--channels", "16", "--out-channels", "32", "--audit", "--format", "json",
    ],
    "search-c4-len4-audit-nodom": [
        "search", "--channels", "4", "--max-len", "4", "--no-domination", "--audit",
        "--format", "json",
    ],
    "search-len3-alpha": [
        "search", "--max-len", "3", "--no-bottleneck", "--channels", "32", "--alpha", "2",
        "--format", "json",
    ],
    "analyze-dw-pw": ["analyze", "dw+pw", "--c", "100", "--f", "100", "--format", "json"],
    "analyze-dw-pw-table": ["analyze", "dw+pw", "--c", "100", "--f", "100"],
    "analyze-gc-pwg": ["analyze", "gc+pwg", "--c", "36", "--f", "36", "--format", "json"],
    "analyze-gc-pwg-table": ["analyze", "gc+pwg", "--c", "36", "--f", "36"],
    "analyze-gc-pwg-groups": [
        "analyze", "gc+pwg", "--c", "64", "--f", "64", "--groups", "16,4", "--format", "json",
    ],
    "analyze-pw-dw-pw": ["analyze", "pw+dw+pw", "--c", "64", "--f", "64", "--format", "json"],
    "analyze-pw-dw-pw-table": ["analyze", "pw+dw+pw", "--c", "64", "--f", "64"],
    "analyze-pwg-dw-pwg": ["analyze", "pwg+dw+pwg", "--c", "64", "--f", "64", "--format", "json"],
    "analyze-pwg-dw-pwg-shufflenet": [
        "analyze", "pwg+dw+pwg", "--c", "64", "--f", "64", "--groups", "4,4",
    ],
    "size-dw-pw": [
        "size", "--family", "dw+pw", "--width", "280", "--blocks", "2", "--no-projections",
        "--format", "json",
    ],
    "size-dw-pw-table": [
        "size", "--family", "dw+pw", "--width", "280", "--blocks", "2", "--no-projections",
    ],
    "width-pwg-dw-pwg": [
        "width", "--family", "pwg+dw+pwg", "--groups", "4,4", "--budget", "11300000",
        "--format", "json",
    ],
    "width-pwg-dw-pwg-table": [
        "width", "--family", "pwg+dw+pwg", "--groups", "4,4", "--budget", "11300000",
    ],
    "verify-c8-len2": ["verify", "--c-max", "8", "--len-max", "2", "--format", "json"],
    "verify-default": ["verify", "--format", "json"],
    "graph-standard": ["graph", "standard", "--channels", "4"],
    "graph-dw-pw": ["graph", "dw+pw", "--channels", "4", "--format", "json"],
    "graph-gc-pwg": ["graph", "gc+pwg", "--channels", "4", "--groups", "2,2"],
    "graph-pw-dw-pw": ["graph", "pw+dw+pw", "--channels", "4", "--format", "json"],
    "graph-pwg-dw-pwg": [
        "graph", "pwg+dw+pwg", "--channels", "8", "--groups", "2,2", "--format", "json",
    ],
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = _run(CASES[name])
    assert code == EXIT_OK
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        code, out = _run(CASES[name])
        if code != EXIT_OK:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.txt").write_text(out)
        print(f"recorded {name}")
