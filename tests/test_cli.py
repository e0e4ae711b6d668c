import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from naive import _group_numbers, group_pair_scan
from skdesign.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    dot_lines,
    main,
)
from skdesign.efficiency import Family
from skdesign.kernels import Kernel, Kind, LayerSpec
from skdesign.oracles import _input_groups, shuffle_after

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_max_len_two_lists_both_pairs(capsys):
    code, out, _ = run(capsys, "search", "--max-len", "2")
    assert code == EXIT_OK
    assert "dw+pw" in out and "gc+pwg" in out
    assert "pw+dw+pw" not in out


def test_search_json_is_deterministic(capsys):
    code, out1, _ = run(capsys, "search", "--max-len", "3", "--format", "json", "--audit")
    assert code == EXIT_OK
    code, out2, _ = run(capsys, "search", "--max-len", "3", "--format", "json", "--audit")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema_version"] == 1
    assert doc["stage_counts"]["sequences_raw"] == 84


def test_search_usage_error_on_zero_length(capsys):
    code, _, err = run(capsys, "search", "--max-len", "0")
    assert code == EXIT_USAGE
    assert "positive" in err


def test_analyze_gc_pwg(capsys):
    code, out, _ = run(capsys, "analyze", "gc+pwg", "--c", "36", "--f", "36")
    assert code == EXIT_OK
    assert "(M=18, N=2)" in out
    assert "1/9" in out


def test_analyze_dw_pw_ratio(capsys):
    code, out, _ = run(capsys, "analyze", "dw+pw", "--c", "100", "--f", "100")
    assert code == EXIT_OK
    assert "109/900" in out
    assert "MobileNet" in out


def test_analyze_pwg_sandwich_continuous_m(capsys):
    code, out, _ = run(
        capsys, "analyze", "pwg+dw+pwg", "--c", "64", "--f", "64", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["optimal_groups"]["continuous"]["M"] == pytest.approx(4.0)


def test_analyze_answers_past_the_grid_cap(capsys):
    # the divisor-grid oracle refuses more than 4,096 channels; analyze does not use it
    code, out, err = run(
        capsys, "analyze", "gc+pwg", "--c", "8192", "--f", "8192", "--format", "json"
    )
    assert code == EXIT_OK, err
    opt = json.loads(out)["optimal_groups"]
    value, minimizers = group_pair_scan(Family.GC_PWG, 8192, 8192)
    assert (opt["discrete_params"], opt["discrete"]) == (value, [list(p) for p in minimizers])
    assert (value, minimizers) == (4_456_448, ((256, 32),))


def test_analyze_validation_error(capsys):
    code, _, err = run(capsys, "analyze", "gc+pwg", "--c", "36", "--f", "36", "--groups", "8,8")
    assert code == EXIT_VALIDATION
    assert "validation error" in err


def test_size_table_and_json_carry_same_totals(capsys):
    argv = ["size", "--family", "dw+pw", "--width", "280", "--blocks", "2", "--no-projections"]
    code, table, _ = run(capsys, *argv)
    assert code == EXIT_OK
    code, as_json, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(as_json)
    total = doc["report"]["total_params"]
    assert f"{total:,}" in table


def test_size_divisibility_error(capsys):
    code, _, err = run(
        capsys, "size", "--family", "gc+pwg", "--groups", "4,4", "--width", "63"
    )
    assert code == EXIT_VALIDATION
    assert "stage" in err


def test_width_reports_budgeted_width(capsys):
    code, out, _ = run(
        capsys,
        "width", "--family", "pwg+dw+pwg", "--groups", "4,4",
        "--budget", "11300000", "--blocks", "2", "--no-projections",
    )
    assert code == EXIT_OK
    assert "576" in out


def test_width_under_budget(capsys):
    code, _, err = run(capsys, "width", "--family", "standard", "--budget", "10")
    assert code == EXIT_VALIDATION
    assert "budget" in err


@pytest.mark.parametrize(
    "budget, message",
    [
        ("100000", "budget 100000 is below the smallest feasible model "
                   "(176168 parameters at width 8)"),
        # no width up to the budget is feasible
        ("5", "budget 5 is below the smallest feasible model"),
    ],
)
def test_width_under_budget_names_the_smallest_model(capsys, budget, message):
    argv = ["width", "--family", "gc+pwg", "--groups", "4,2", "--budget", budget]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == f"validation error: {message}\n"


def test_size_divisibility_error_names_the_layer(capsys):
    code, out, err = run(
        capsys, "size", "--family", "pwg+dw+pwg", "--groups", "4,4", "--width", "20"
    )
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == (
        "validation error: stage 1, block 1: layer 1 (pwg(4), 20 -> 5): "
        "group number 4 does not divide out_channels 5\n"
    )


def test_verify_passes_on_small_grids(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem1", "--infofield", "--c-max", "8", "--len-max", "2"
    )
    assert code == EXIT_OK
    assert out.count("PASS") == 2


def test_verify_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--theorem1", "--c-max", "0")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["search", "--channels", "x"], "--channels", "x"),
        (["search", "--max-len", "0"], "--max-len", "0"),
        (["analyze", "gc+pwg", "--c", "36", "--f", "36", "--groups", "a,b"], "--groups", "a,b"),
        (["analyze", "gc+pwg", "--c", "36", "--f", "36", "--groups", "4,4,4"], "--groups", "4,4,4"),
    ],
)
def test_malformed_numbers_are_usage_errors_that_name_the_flag(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"argument {flag}: expected" in err
    assert f"got {value}" in err
    assert "_positive_int" not in err and "_groups_arg" not in err


def test_graph_emits_colored_dot(capsys):
    code, out, _ = run(capsys, "graph", "dw+pw", "--channels", "4")
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert "color=green" in out  # spatial dependency edges
    assert "color=blue" in out  # channel dependency edges


def test_graph_standard_is_complete_bipartite(capsys):
    code, out, _ = run(capsys, "graph", "standard", "--channels", "4")
    assert code == EXIT_OK
    assert out.count("->") == 16


def test_graph_grouped_design_needs_groups(capsys):
    code, _, err = run(capsys, "graph", "pwg+dw+pwg", "--channels", "4")
    assert code == EXIT_VALIDATION
    code, out, _ = run(capsys, "graph", "pwg+dw+pwg", "--channels", "4", "--groups", "2,2")
    assert code == EXIT_OK
    assert "color=green" in out


def test_graph_divisibility_error_names_the_layer(capsys):
    code, out, err = run(capsys, "graph", "gc+pwg", "--channels", "1", "--groups", "2,2")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == (
        "validation error: layer 1 (gc(2), 1 -> 1): "
        "group number 2 does not divide in_channels 1\n"
    )


def test_search_alpha_sets_output_width(capsys):
    code, out, _ = run(
        capsys, "search", "--max-len", "2", "--channels", "32", "--alpha", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["config"]["out_channels"] == 64


def test_search_alpha_rejects_fractional_width(capsys):
    code, _, err = run(capsys, "search", "--max-len", "2", "--channels", "3", "--alpha", "1/2")
    assert code == EXIT_VALIDATION
    assert "alpha" in err


def test_search_out_channels_and_alpha_together_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "search", "--max-len", "2", "--out-channels", "8", "--alpha", "2",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "not allowed with argument" in err


@pytest.mark.parametrize("alpha", ["1/0", "two"])
def test_search_alpha_that_is_no_ratio_is_a_usage_error(capsys, alpha):
    code, out, err = run(capsys, "search", "--max-len", "2", "--alpha", alpha)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--alpha" in err


def test_graph_edges_are_the_reads_through_the_interleave():
    for c in (4, 8, 12):
        legal = [
            LayerSpec(Kernel(kind, g), c, c)
            for kind in Kind
            for g in _group_numbers(kind, c, c)
        ]
        for n in (1, 2):
            for design in itertools.product(legal, repeat=n):
                expected = set()
                for li, layer in enumerate(design):
                    if li:
                        perm = shuffle_after(design[li - 1])
                    else:
                        perm = tuple(range(layer.in_channels))
                    for ch, reads in enumerate(_input_groups(layer)):
                        expected.update((li, perm[src], ch) for src in reads)
                dot = "\n".join(dot_lines(design, "design"))
                edges = re.findall(r"t(\d+)_c(\d+) -> t\d+_c(\d+)", dot)
                assert {tuple(map(int, e)) for e in edges} == expected, design


def _readme_commands():
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        line.split("|", 1)[0].strip()
        for line in block.splitlines()
        if line.strip() and not line.startswith("#")
    ]


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_line_examples_exit_zero(capsys, command):
    argv = shlex.split(command)
    assert argv[0] == "skdesign"
    code, _, err = run(capsys, *argv[1:])
    assert code == EXIT_OK, err


def test_graph_json_carries_the_same_dot(capsys):
    code, table, _ = run(capsys, "graph", "gc+pwg", "--channels", "4", "--groups", "2,2")
    assert code == EXIT_OK
    code, as_json, _ = run(
        capsys, "graph", "gc+pwg", "--channels", "4", "--groups", "2,2",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(as_json)["dot"] + "\n" == table


@pytest.mark.parametrize("family", ["dw+pw", "pw+dw+pw"])
def test_analyze_rejects_groups_on_family_without_grouped_kernel(capsys, family):
    code, out, err = run(capsys, "analyze", family, "--c", "64", "--f", "64", "--groups", "4,4")
    assert code == EXIT_VALIDATION
    assert "carries no group numbers" in err
    assert out == ""


def test_analyze_and_size_name_the_bottleneck_width_fault_alike(capsys):
    code, out, err = run(capsys, "analyze", "pw+dw+pw", "--c", "64", "--f", "62")
    assert code == EXIT_VALIDATION
    assert "bottleneck families require 4 | F" in err
    assert out == ""
    code, _, err = run(capsys, "size", "--family", "pw+dw+pw", "--width", "62")
    assert code == EXIT_VALIDATION
    assert "bottleneck families require 4 | F" in err


def test_graph_rejects_groups_on_design_without_grouped_kernel(capsys):
    code, out, err = run(capsys, "graph", "dw+pw", "--groups", "2,2")
    assert code == EXIT_VALIDATION
    assert "carries no group numbers" in err
    assert out == ""


@pytest.mark.parametrize(
    "design, groups, commands",
    [
        ("gc+pwg", [], ("size", "width", "graph")),
        ("dw+pw", ["--groups", "2,2"], ("size", "width", "graph", "analyze")),
        ("standard", ["--groups", "2,2"], ("size", "width", "graph")),
    ],
)
def test_each_group_number_fault_has_one_message(capsys, design, groups, commands):
    # missing or extra group numbers: every command that builds the design
    # prints the same line
    argv = {
        "size": ["size", "--family", design, "--width", "64"],
        "width": ["width", "--family", design, "--budget", "10000000"],
        "graph": ["graph", design],
        "analyze": ["analyze", design, "--c", "64", "--f", "64"],
    }
    fault = "carries no group numbers" if groups else "needs group numbers (M, N)"
    for command in commands:
        code, out, err = run(capsys, *argv[command], *groups)
        assert (code, out) == (EXIT_VALIDATION, ""), command
        assert err == f"validation error: {design} {fault}\n", command


@pytest.mark.parametrize("c_max", ["2", "3"])
def test_verify_rejects_c_max_below_the_first_case(capsys, c_max):
    for suite in ([], ["--theorem1"], ["--infofield"]):
        code, out, err = run(capsys, "verify", *suite, "--c-max", c_max)
        assert code == EXIT_VALIDATION
        assert "C = 4" in err
        assert "PASS" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--max-len", "3", "--format", "json"],
        ["verify", "--c-max", "8", "--len-max", "2", "--format", "json"],
    ],
)
def test_json_output_does_not_depend_on_the_hash_seed(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "skdesign.cli", *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])


def test_importing_the_cli_does_not_load_the_sizer():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, skdesign.cli; print('skdesign.sizer' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def _loaded_modules(code, *argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    return set(proc.stderr.split())


@pytest.mark.parametrize(
    "argv, needed, unloaded",
    [
        (["search", "--max-len", "1"], "skdesign.search",
         {"dataclasses", "fractions", "inspect", "skdesign.oracles", "skdesign.sizer",
          "skdesign.verify"}),
        (["verify", "--c-max", "4", "--len-max", "1"], "skdesign.oracles",
         {"dataclasses", "fractions", "inspect", "skdesign.search", "skdesign.sizer"}),
        # efficiency prices group pairs itself; `ratio` loads the exact rationals
        (["analyze", "gc+pwg", "--c", "36", "--f", "36"], "fractions",
         {"dataclasses", "inspect", "skdesign.oracles", "skdesign.search", "skdesign.verify"}),
        (["size", "--family", "dw+pw", "--width", "64"], "skdesign.sizer",
         {"dataclasses", "inspect", "skdesign.search", "skdesign.verify"}),
        (["width", "--family", "pwg+dw+pwg", "--groups", "4,4", "--budget", "11300000"],
         "skdesign.sizer", {"dataclasses", "inspect", "skdesign.search", "skdesign.verify"}),
        (["graph", "dw+pw"], "skdesign.oracles",
         {"dataclasses", "inspect", "skdesign.search", "skdesign.verify"}),
    ],
)
def test_search_and_verify_load_only_what_they_run(argv, needed, unloaded):
    # against a bare interpreter's modules, so that what `site` loads on a
    # host does not count
    show = "import sys; print(*sys.modules, file=sys.stderr)"
    bare = _loaded_modules(show)
    run_it = "import sys; from skdesign.cli import main; assert main(sys.argv[1:]) == 0; " + show
    added = _loaded_modules(run_it, *argv) - bare
    assert needed in added
    assert not added & unloaded, sorted(added & unloaded)


@pytest.mark.parametrize(
    "argv",
    [
        ["size", "--family", "{}", "--width", "64", "--format", "json"],
        ["width", "--family", "{}", "--budget", "2000000", "--format", "json"],
        ["graph", "{}", "--format", "json"],
    ],
)
@pytest.mark.parametrize("name", ["STANDARD", "Dw+Pw", "PW+DW+PW"])
def test_design_names_match_in_any_case_and_print_in_lowercase(capsys, argv, name):
    code, shouted, err = run(capsys, *(a.format(name) for a in argv))
    assert code == EXIT_OK, err
    code, lower, _ = run(capsys, *(a.format(name.lower()) for a in argv))
    assert code == EXIT_OK
    assert shouted == lower
    assert name not in shouted and name.lower() in shouted


@pytest.mark.parametrize("command", ["size", "width"])
def test_unknown_block_lists_every_design_name(capsys, command):
    limit = "--width" if command == "size" else "--budget"
    code, out, err = run(capsys, command, "--family", "dw+dw", limit, "64")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "expected one of: dw+pw, gc+pwg, pw+dw+pw, pwg+dw+pwg, standard" in err


def test_star_import_binds_every_exported_name():
    import skdesign

    namespace: dict = {}
    exec("from skdesign import *", namespace)
    for name in skdesign.__all__:
        assert namespace[name] is getattr(skdesign, name), name


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    src = str(Path(__file__).resolve().parent.parent / "src")
    # several MB of DOT, far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "skdesign.cli", "graph", "pw+dw+pw", "--channels", "300"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b'digraph "pw_dw_pw" {\n'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_graph_prints_its_table_as_it_is_made():
    # 25 MB of DOT: joined whole before printing, it peaked at about 110 MB.
    # A small parent reads the peak through os.wait4, as perfbench does: a
    # child's ru_maxrss starts at the size of the process that spawned it
    measure = (
        "import os, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'skdesign.cli', *sys.argv[1:]]\n"
        "proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "proc.returncode = os.waitstatus_to_exitcode(status)\n"
        "print(proc.returncode, usage.ru_maxrss)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", measure, "graph", "pw+dw+pw", "--channels", "600"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    code, peak_kib = map(int, proc.stdout.split())
    assert code == EXIT_OK
    assert peak_kib < 30 * 1024
