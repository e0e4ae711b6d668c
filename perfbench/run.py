"""skdesign benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; skdesign is imported from ./src.

Workloads (closed loops, one client, one op in flight):

  search-default  `python -m skdesign.cli search --format json` at its
                  defaults, each call in a fresh interpreter
  verify-default  `python -m skdesign.cli verify --format json` at its
                  defaults, each call in a fresh interpreter
  sizing-queries  seeded model_params / solve_width / greatest_width /
                  optimal_group_numbers calls in this process

With --trace 0 the run measures for --seconds and reports the end-to-end
metrics.  With --trace 1 it runs a fixed amount of work once untraced and
once under the tracer (spans go to .perfbench-out/) and reports the
per-layer metrics.  sizing-queries reports its op timings scaled by the
speed of the host, measured with a fixed loop between ops (see CAL_*).  Every op's output is checked outside the timed region.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

VERDICTS = ("valid", "inferior-no-growth", "inferior-early-full", "insufficient-field", "spatial-mismatch")

# Metrics of a layer the workload does not touch read 0.
PER_LAYER = {
    "infofield.propagate_calls": "count",
    "infofield.propagate_s": "s",
    "infofield.field_of_calls": "count",
    "infofield.field_of_s": "s",
    "search.self_s": "s",
    "search.domination_s": "s",
    "search.propagate_per_candidate": "ratio",
    "search.candidates_enumerated": "count",
    "search.candidates_valid": "count",
    "search.valid_ratio": "ratio",
    "search.families": "count",
    "search.families_after_domination": "count",
    **{f"search.verdict.{v}": "count" for v in VERDICTS},
    "cli.overhead_s": "s",
    "cli.import_s": "s",
    "verify.infofield_s": "s",
    "verify.theorem1_s": "s",
    "verify.self_s": "s",
    "verify.cases_checked": "count",
    "oracles.reachable_calls": "count",
    "oracles.reachable_s": "s",
    "oracles.best_permutation_calls": "count",
    "oracles.grid_min_calls": "count",
    "oracles.grid_min_s": "s",
    "sizer.model_params_calls": "count",
    "sizer.model_params_s": "s",
    "sizer.probes_per_solve": "ratio",
    "sizer.solve_width_wrong": "count",
    "efficiency.greatest_width_s": "s",
    "efficiency.widths_scanned_per_query": "ratio",
    "efficiency.greatest_width_wrong": "count",
    "kernels.param_count_calls": "count",
    "trace.overhead_s": "s",
}

EXPECTED_FAMILIES = {"dw+pw", "gc+pwg", "pw+dw+pw", "pwg+dw+pwg"}
SETUP_SAMPLES = 15
SIZING_TRACE_QUERIES = 320  # four decks of the sizing query stream
# about one run second per deck at the commit that added the benchmark,
# its answer checks included
SIZING_DECKS_PER_S = 1.0

SETUP_CODE = (
    "import time; t = time.perf_counter(); import skdesign.cli as cli; "
    "i = time.perf_counter() - t; cli.build_parser(); print(i, flush=True)"
)


# Host speed.  On a shared host the speed of pure-Python code drifts by up
# to 20 % over seconds and minutes, and the drift moves most loops alike.
# So sizing-queries times a fixed loop of the benchmark's own after every
# CAL_SIZING_EVERY ops and reports its op timings scaled to a host on
# which that loop takes CAL_REF_S: a timing is divided, and a rate
# multiplied, by the run's median loop time over CAL_REF_S.  The raw
# timings are printed too.  A CLI op runs for seconds in a child process,
# where no such loop can interleave with it, so CLI timings and setup_s
# are reported raw.
CAL_LOOPS = 50_000
CAL_REF_S = 0.013
CAL_SIZING_EVERY = 20


def time_cal_loop() -> float:
    """Seconds one CAL_LOOPS loop of integer arithmetic and small
    allocations takes; it touches no skdesign code."""
    t0 = time.perf_counter()
    acc, slots = 0, {}
    for i in range(CAL_LOOPS):
        acc += i * i % 7
        slots[i & 511] = (i, [acc])
    return time.perf_counter() - t0


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a child that died)."""


def measure_setup(n: int) -> tuple[list[float], list[float]]:
    """Seconds from spawn until skdesign.cli is imported and its parser is
    built, and the import time alone, over n fresh interpreters.  One
    unmeasured spawn first writes the bytecode cache."""
    setup, imports = [], []
    for i in range(n + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=ENV,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate()
        if proc.returncode != 0 or not line.strip():
            raise BenchError(f"cannot import skdesign.cli from {SRC}: {err.strip()[-500:]}")
        if i:
            setup.append(elapsed)
            imports.append(float(line))
    return setup, imports


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


# --- CLI workloads -------------------------------------------------------

def run_cli_op(argv: list[str]) -> tuple[float, int, int, str]:
    """(wall seconds, peak RSS in KiB, exit code, stdout) of one fresh
    `python -m skdesign.cli` process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "skdesign.cli", *argv], cwd=ROOT, env=ENV,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, out


def run_child(argv: list[str], spans: Path | None = None) -> dict:
    """One CLI command through perfbench/child.py, traced when spans is set."""
    cmd = [sys.executable, str(Path(__file__).with_name("child.py"))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd + ["--", *argv], cwd=ROOT, env=ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"child {argv} died: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def primitive_word_count(alphabet: int, max_len: int) -> int:
    """Strings up to max_len that are not a shorter string repeated
    (Moebius inversion over the period)."""
    def mobius(n: int) -> int:
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result

    return sum(
        mobius(d) * alphabet ** (n // d)
        for n in range(1, max_len + 1)
        for d in range(1, n + 1)
        if n % d == 0
    )


def check_search(code: int, text: str, domination: bool = True) -> str | None:
    """Invariants of a default-size search that any correct build keeps."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(text)
        s = doc["stage_counts"]
        names = {f["name"] for f in doc["families"]}
        if s["sequences_raw"] != sum(4 ** n for n in range(1, 7)):
            return f"sequences_raw {s['sequences_raw']}"
        if s["sequences_after_composition"] != primitive_word_count(4, 6):
            return f"sequences_after_composition {s['sequences_after_composition']}"
        if not (s["sequences_raw"] >= s["sequences_after_composition"]
                and s["candidates_enumerated"] >= s["candidates_valid"] >= s["families"]
                >= s["families_after_domination"] == len(names) > 0):
            return f"stage counts not monotone: {s}"
        if domination and names != EXPECTED_FAMILIES:
            return f"surviving families {sorted(names)}"
        if not domination and s["families_after_domination"] != s["families"]:
            return "families removed with domination off"
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable search output: {err!r}"
    return None


def check_verify(code: int, text: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        checks = json.loads(text)["checks"]
        ok = all(checks[k]["passed"] and checks[k]["checked"] > 0 for k in ("theorem1", "infofield"))
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable verify output: {err!r}"
    return None if ok else "a verify suite failed"


CLI_WORKLOADS = {
    "search-default": (["search", "--format", "json"], check_search),
    "verify-default": (["verify", "--format", "json"], check_verify),
}


def cli_e2e(workload: str, seconds: float) -> dict:
    """Closed loop of fresh CLI processes.  A new op starts only while the
    run, extended by the median op so far, fits in `seconds`."""
    argv, check = CLI_WORKLOADS[workload]
    walls, rss, problems = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        wall, maxrss, code, out = run_cli_op(argv)
        walls.append(wall)
        rss.append(maxrss)
        problems.append(check(code, out))
    return {
        "walls": walls,
        "slowdown": None,
        "peak_rss_kib": max(rss),
        "failures": [p for p in problems if p],
        "short": 0,
    }


def summary_metrics(s: dict) -> dict:
    """Per-layer metrics that come straight from a span summary."""
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    main, rs = s["cli.main"], s["search.run_search"]
    t1, vi = s["verify.verify_theorem1"], s["verify.verify_infofield"]
    sw, gw = s["sizer.solve_width"], s["efficiency.greatest_width"]
    return {
        "infofield.propagate_calls": s["infofield.propagate"]["calls"],
        "infofield.propagate_s": s["infofield.propagate"]["total_s"],
        "infofield.field_of_calls": s["infofield.field_of"]["calls"],
        "infofield.field_of_s": s["infofield.field_of"]["total_s"],
        "search.self_s": rs["total_s"] - rs["child_s"].get("infofield", 0.0),
        "cli.overhead_s": main["total_s"] - main["child_s"].get("search", 0.0) - main["child_s"].get("verify", 0.0),
        "verify.theorem1_s": t1["total_s"],
        "verify.infofield_s": vi["total_s"],
        "verify.self_s": t1["self_s"] + vi["self_s"],
        "oracles.reachable_calls": s["oracles.reachable_channel_triple"]["calls"],
        "oracles.reachable_s": s["oracles.reachable_channel_triple"]["total_s"],
        "oracles.best_permutation_calls": s["oracles.best_permutation_channel_count"]["calls"],
        "oracles.grid_min_calls": s["oracles.divisor_grid_min"]["calls"],
        "oracles.grid_min_s": s["oracles.divisor_grid_min"]["total_s"],
        "sizer.model_params_calls": s["sizer.model_params"]["calls"],
        "sizer.model_params_s": s["sizer.model_params"]["total_s"],
        "sizer.probes_per_solve": ratio(sw["child_calls"].get("sizer.model_params", 0), sw["calls"]),
        "efficiency.greatest_width_s": gw["total_s"],
        "efficiency.widths_scanned_per_query": ratio(
            gw["child_calls"].get("oracles.divisor_grid_min", 0)
            + gw["child_calls"].get("efficiency.family_params", 0),
            gw["calls"],
        ),
        "kernels.param_count_calls": s["kernels.param_count"]["calls"],
    }


def save_summary(workload: str, summary: dict) -> dict:
    """Write the span summary next to the spans; return self time by layer."""
    from tracer import layer_self_s

    by_layer = layer_self_s(summary)
    with open(OUT / f"{workload}.summary.json", "w") as fh:
        json.dump({"spans": summary, "layer_self_s": by_layer}, fh, indent=1, sort_keys=True)
    return by_layer


def cli_trace(workload: str) -> dict:
    """One untraced and one traced op in fresh interpreters, plus, for
    search, an untraced --no-domination op right after the untraced one."""
    argv, check = CLI_WORKLOADS[workload]
    search = workload == "search-default"
    OUT.mkdir(exist_ok=True)
    plain = run_child(argv)
    runs = [(plain, check)]
    if search:
        nodom = run_child(argv + ["--no-domination"])
        runs.append((nodom, lambda code, out: check_search(code, out, domination=False)))
    traced = run_child(argv, spans=OUT / f"{workload}.spans.tsv.gz")
    runs.append((traced, check))
    metrics = summary_metrics(traced["summary"])
    metrics["trace.overhead_s"] = traced["main_s"] - plain["main_s"]
    doc = json.loads(traced["stdout"]) if traced["exit"] == 0 else {}
    if search:
        metrics["search.domination_s"] = plain["main_s"] - nodom["main_s"]
        counts = doc.get("stage_counts", {})
        enumerated = counts.get("candidates_enumerated", 0)
        for key in ("candidates_enumerated", "candidates_valid", "families", "families_after_domination"):
            metrics[f"search.{key}"] = counts.get(key, 0)
        if enumerated:
            metrics["search.valid_ratio"] = counts.get("candidates_valid", 0) / enumerated
            metrics["search.propagate_per_candidate"] = metrics["infofield.propagate_calls"] / enumerated
        verdicts = traced["verdicts"][0] if traced["verdicts"] else {}
        for v in VERDICTS:
            metrics[f"search.verdict.{v}"] = verdicts.get(v, 0)
    else:
        metrics["verify.cases_checked"] = sum(c["checked"] for c in doc.get("checks", {}).values())
    return {
        "metrics": metrics,
        "attempted": len(runs),
        "failures": [p for p in (chk(r["exit"], r["stdout"]) for r, chk in runs) if p],
        "short": 0,
        "layer_self_s": save_summary(workload, traced["summary"]),
    }


# --- sizing workload ------------------------------------------------------

def sizing_e2e(seed: int, seconds: float) -> dict:
    """Closed loop over a fixed number of decks of the seed's query stream,
    SIZING_DECKS_PER_S for each of `seconds`.  The op count does not depend
    on the host's speed, so the same seed gives the same ops and the same
    failures on every run.  Each answer is checked right after its op and
    then dropped, so the peak RSS does not grow with the number of ops."""
    import resource

    import sizing

    n = max(1, round(seconds * SIZING_DECKS_PER_S)) * len(sizing.DECK)
    walls, cal = array("d"), [time_cal_loop()]
    failures, short = [], 0
    for i, q in enumerate(itertools.islice(sizing.queries(seed), n), 1):
        result, wall = sizing.call(q)
        walls.append(wall)
        if i % CAL_SIZING_EVERY == 0:
            cal.append(time_cal_loop())
        f = sizing.check(q, result)
        if f and f.short:
            short += 1
        elif f:
            failures.append(f.detail)
    return {
        "walls": walls,
        "slowdown": (statistics.median(cal) / CAL_REF_S, len(cal)),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "failures": failures,
        "short": short,
    }


def sizing_trace(seed: int) -> dict:
    """The first SIZING_TRACE_QUERIES queries of the seed, untraced then
    traced, in this process."""
    import sizing
    from tracer import Tracer

    queries = list(itertools.islice(sizing.queries(seed), SIZING_TRACE_QUERIES))
    t0 = time.perf_counter()
    plain = [sizing.call(q)[0] for q in queries]
    plain_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        traced = [sizing.call(q)[0] for q in queries]
    finally:
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_tsv(OUT / "sizing-queries.spans.tsv.gz")
    summary = tracer.summary()

    metrics = summary_metrics(summary)
    metrics["trace.overhead_s"] = traced_s - plain_s
    failures = []
    for results, traced_pass in ((plain, False), (traced, True)):
        for q, r in zip(queries, results):
            f = sizing.check(q, r)
            if f:
                failures.append(f)
                if traced_pass and q[0] in ("solve_width", "greatest_width"):
                    key = "sizer.solve_width_wrong" if q[0] == "solve_width" else "efficiency.greatest_width_wrong"
                    metrics[key] = metrics.get(key, 0) + 1
    return {
        "metrics": metrics,
        "attempted": 2 * len(queries),
        "failures": [f.detail for f in failures if not f.short],
        "short": sum(f.short for f in failures),
        "layer_self_s": save_summary("sizing-queries", summary),
    }


# --- entry point -------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*CLI_WORKLOADS, "sizing-queries"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "skdesign" / "cli.py").is_file():
        print(f"error: no skdesign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sizing_workload = args.workload == "sizing-queries"
    try:
        setup, imports = measure_setup(SETUP_SAMPLES)
        if args.trace:
            run = sizing_trace(args.seed) if sizing_workload else cli_trace(args.workload)
            values = {**run["metrics"], "cli.import_s": statistics.median(imports)}
            attempted, units, notes = run["attempted"], PER_LAYER, {}
        else:
            run = sizing_e2e(args.seed, args.seconds) if sizing_workload else cli_e2e(args.workload, args.seconds)
            walls = run["walls"]
            attempted, units = len(walls), END_TO_END
            p50_ms, rate = statistics.median(walls) * 1e3, attempted / sum(walls)
            slow, cal_n = run["slowdown"] or (1.0, 0)
            values = {
                "setup_s": statistics.median(setup),
                "op_p50_ms": p50_ms / slow,
                "ops_per_s": rate * slow,
                "peak_rss_mb": run["peak_rss_kib"] / 1024,
            }
            n = f"n={attempted} ops"
            scaled = f"; host loop x{slow:.3f} (n={cal_n}), raw " if cal_n else None
            notes = {
                "setup_s": f"median, n={len(setup)} fresh interpreters",
                "op_p50_ms": n + (f"{scaled}{p50_ms:.6g}" if scaled else ""),
                "ops_per_s": f"{n} in {sum(walls):.1f} s of op time" + (f"{scaled}{rate:.6g}" if scaled else ""),
                "peak_rss_mb": "this process" if sizing_workload else "max over op processes",
            }
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    failures, short = run["failures"], run["short"]
    failed = len(failures) + short
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<36} {values.get(name, 0):>16.6g} {unit:<6} {notes.get(name, '')}")
    # printed, not in the JSON: a CLI run has too few ops for a steady p99,
    # and failed_ratio is 0 on the CLI workloads
    if not args.trace:
        beyond = attempted - int(0.99 * attempted)
        print(f"  {'op_p99_ms':<36} {p99(walls) * 1e3:>16.6g} {'ms':<6} "
              f"n={attempted} ops, {beyond} at or beyond p99")
    print(f"  {'failed_ratio':<36} {failed / attempted:>16.6g} {'ratio':<6} "
          f"{failed}/{attempted} ops, {short} of them short width answers (known defects)")
    if args.trace:
        print(f"  self time by layer (s), spans in {OUT.name}/:")
        for layer, secs in sorted(run["layer_self_s"].items()):
            print(f"    {layer:<34} {secs:>16.6g}")
    for detail in failures[:10]:
        print(f"  FAILED: {detail}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
