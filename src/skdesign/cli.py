"""Command-line front end: search, analyze, size, width, verify, graph.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 oracle
disagreement, 141 (128 + SIGPIPE) when the reader closes the output early,
as `| head` does.  Every command accepts --format {table,json}; json documents
are deterministic (sorted keys, versioned schema) so diffs are meaningful
in CI.  Exact rationals are printed verbatim alongside a 6-significant-
figure decimal rendering.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

from . import __version__
from .kernels import ValidationError

if TYPE_CHECKING:  # search and verify load none of these
    from fractions import Fraction

    from . import sizer

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ORACLE = 3
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fraction_doc(x: Fraction) -> dict[str, Any]:
    return {"exact": f"{x.numerator}/{x.denominator}", "decimal": float(f"{float(x):.6g}")}


def _fmt_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator} ({float(x):.6g})"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _ratio_arg(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a ratio such as 1/2, got {text}") from None


def _groups_arg(text: str) -> tuple[int, int]:
    try:
        m, n = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two group numbers such as 4,4, got {text}"
        ) from None
    return m, n


def _emit(doc: dict[str, Any], lines: Iterable[str], fmt: str) -> None:
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, **doc}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        lines = iter(lines)
        # 1,024 lines a write: a print per line made large graphs 1.5x slower, 2x under -u
        while batch := list(itertools.islice(lines, 1024)):
            print("\n".join(batch))


def _cmd_search(args: argparse.Namespace) -> int:
    from . import search
    from .efficiency import known_architectures

    out_channels = args.out_channels or args.channels
    if args.alpha is not None:
        scaled = args.alpha * args.channels
        if scaled.denominator != 1 or scaled < 1:
            raise ValidationError(
                f"alpha {args.alpha} does not yield a whole output width "
                f"at {args.channels} channels"
            )
        out_channels = int(scaled)
    config = search.SearchConfig(
        max_length=args.max_len,
        reference_channels=args.channels,
        reference_out_channels=out_channels,
        enable_bottleneck_variants=not args.no_bottleneck,
        enable_domination_filter=not args.no_domination,
    )
    result = search.run_search(config)
    known = [known_architectures(f.name, f.cheapest.group_numbers) for f in result.families]
    doc: dict[str, Any] = {
        "command": "search",
        "config": {
            "max_length": config.max_length,
            "channels": config.reference_channels,
            "out_channels": config.reference_out_channels,
            "bottleneck_variants": config.enable_bottleneck_variants,
            "domination_filter": config.enable_domination_filter,
        },
        "families": [
            {
                "name": fam.name,
                "bottleneck": fam.bottleneck,
                "witnesses": fam.witness_count,
                "min_params_at_reference": fam.min_params(),
                "example_witness": fam.cheapest.describe(),
                "known_architectures": names,
            }
            for fam, names in zip(result.families, known)
        ],
        "stage_counts": dict(result.stage_counts),
        "removed": [
            {"name": r.name, "rule": r.rule, "detail": r.detail}
            for r in result.removed
        ],
    }
    lines = [f"surviving design families ({len(result.families)}):"]
    for fam, names in zip(result.families, known):
        tag = " [bottleneck]" if fam.bottleneck else ""
        suffix = f"  (matches: {', '.join(names)})" if names else ""
        lines.append(
            f"  {fam.name}{tag}  witnesses={fam.witness_count} "
            f"min_params={fam.min_params()}{suffix}"
        )
    if args.audit:
        lines.append("pipeline audit:")
        for name, count in result.stage_counts:
            lines.append(f"  {name}: {count}")
        for r in result.removed:
            lines.append(f"  removed {r.name}: {r.rule} ({r.detail})")
    else:
        doc.pop("removed")
    _emit(doc, lines, args.format)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    from . import efficiency

    family = efficiency.Family.parse(args.family)
    c, f = args.c, args.f
    doc: dict[str, Any] = {
        "command": "analyze",
        "config": {"family": family.value, "C": c, "F": f},
    }
    lines = [f"family {family.value} at C={c}, F={f}"]
    groups = args.groups
    if family.has_group_freedom:
        opt = efficiency.optimal_group_numbers(family, c, f)
        doc["optimal_groups"] = {
            "continuous": {"M": opt.continuous[0], "N": opt.continuous[1]},
            "condition": opt.continuous_condition,
            "discrete": [list(p) for p in opt.discrete],
            "discrete_params": opt.discrete_params,
            "continuous_bound_params": opt.continuous_bound_params,
            "relative_gap": opt.gap,
        }
        lines.append(
            f"  continuous optimum: M={opt.continuous[0]:.6g}, N={opt.continuous[1]:.6g} "
            f"({opt.continuous_condition})"
        )
        lines.append(
            f"  discrete optimum: {', '.join(f'(M={m}, N={n})' for m, n in opt.discrete)} "
            f"at {opt.discrete_params} parameters "
            f"(continuous bound {opt.continuous_bound_params:.6g}, gap {opt.gap:.3%})"
        )
        if groups is None:
            groups = opt.discrete[0]
    r = efficiency.ratio(family, c, f, groups)
    doc["ratio"] = _fraction_doc(r)
    lines.append(f"  parameter ratio vs standard 3x3: {_fmt_fraction(r)}")
    if groups is not None:
        # the intermediate width, as the family's width plan builds it
        k = efficiency.layers_for(family, c, f, groups)[0].out_channels
        ok = efficiency.theorem1_condition(k, groups[0], groups[1])
        doc["groups"] = {"M": groups[0], "N": groups[1], "theorem1_product_condition": ok}
        lines.append(
            f"  groups M={groups[0]}, N={groups[1]}: M*N "
            f"{'=' if ok else '!='} intermediate channels {k}"
        )
    known = efficiency.known_architectures(family.value, groups)
    doc["known_architectures"] = known
    if known:
        lines.append(f"  coincides with: {', '.join(known)}")
    _emit(doc, lines, args.format)
    return EXIT_OK


def _block_from_args(args: argparse.Namespace) -> sizer.BlockSpec:
    from . import sizer

    return sizer.BlockSpec(args.family, args.groups)


def _conventions_from_args(args: argparse.Namespace) -> sizer.Conventions:
    from . import sizer

    return sizer.Conventions(
        include_projections=not args.no_projections,
        include_batchnorm=args.include_bn,
        include_bias=args.include_bias,
    )


def _report_doc(report: sizer.SizingReport) -> dict[str, Any]:
    return {
        "width": report.width,
        "depth": report.depth,
        "total_params": report.total_params,
        "total_macs": report.total_macs,
        "breakdown": dict(report.breakdown()),
        "conventions": report.conventions.describe(),
        "block": report.block,
    }


def _report_lines(report: sizer.SizingReport) -> list[str]:
    lines = [
        f"block {report.block}, width {report.width}, depth {report.depth}",
        f"  total parameters: {report.total_params:,} "
        f"({report.total_params / 1e6:.6g}M)",
        f"  total MACs: {report.total_macs:,}",
        f"  conventions: {report.conventions.describe()}",
    ]
    for name, value in report.breakdown():
        lines.append(f"    {name}: {value:,}")
    return lines


def _cmd_size(args: argparse.Namespace) -> int:
    from . import sizer

    layout = sizer.NetworkLayout(
        width=args.width,
        blocks_per_stage=args.blocks,
        conventions=_conventions_from_args(args),
    )
    report = sizer.model_params(layout, _block_from_args(args))
    _emit({"command": "size", "report": _report_doc(report)}, _report_lines(report), args.format)
    return EXIT_OK


def _cmd_width(args: argparse.Namespace) -> int:
    from . import sizer

    report = sizer.solve_width(
        args.budget,
        _block_from_args(args),
        blocks_per_stage=args.blocks,
        conventions=_conventions_from_args(args),
    )
    lines = [f"largest width within budget {args.budget:,}: {report.width}"]
    lines += _report_lines(report)
    _emit({"command": "width", "budget": args.budget, "report": _report_doc(report)}, lines, args.format)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_infofield, verify_theorem1

    suites = {
        "theorem1": lambda: verify_theorem1(c_max=args.c_max),
        "infofield": lambda: verify_infofield(c_max=args.c_max, len_max=args.len_max),
    }
    # no suite flag runs them all
    names = [name for name in suites if getattr(args, name)] or list(suites)
    results = [suites[name]() for name in names]
    doc = {"command": "verify", "checks": {n: r.as_doc() for n, r in zip(names, results)}}
    _emit(doc, [res.render() for res in results], args.format)
    return EXIT_OK if all(res.passed for res in results) else EXIT_ORACLE


def _cmd_graph(args: argparse.Namespace) -> int:
    from .efficiency import plan_layers, resolve_design

    c = args.channels
    # the layout that every other command prices, at C = F
    layers = plan_layers(*resolve_design(args.design, args.groups), c, c)
    design = args.design.lower()  # a name that resolved
    # the table is printed as it is made: it grows with the square of the width
    lines = dot_lines(layers, name=design)
    doc = {
        "command": "graph",
        "config": {"design": design, "channels": c, "groups": list(args.groups or ())},
    }
    if args.format == "json":
        doc["dot"] = "\n".join(lines)
    _emit(doc, lines, args.format)
    return EXIT_OK


def dot_lines(layers, name: str) -> Iterator[str]:
    """DOT drawing of channel connectivity at one spatial slice, line by line.

    One node per (layer, channel); edges into each output channel from the
    input channels it reads, each named as the previous layer's output that
    the graph oracle's `shuffle_after` passes on to it, in ascending order.
    Edges of spatial kernels are green (they also carry spatial context),
    1x1 edges are blue.
    """
    from .oracles import _input_groups, shuffle_after

    safe = name.replace("+", "_")
    yield from (f'digraph "{safe}" {{', "  rankdir=LR;", "  node [shape=circle, fontsize=10];")
    # one column per layer input, then the last layer's output
    widths = [layer.in_channels for layer in layers] + [layers[-1].out_channels]
    for col, n in enumerate(widths):
        yield f"  subgraph cluster_{col} {{"
        label = "input" if col == 0 else f"after {layers[col - 1].kernel}"
        yield f'    label="{label}";'
        for ch in range(n):
            yield f'    t{col}_c{ch} [label="{ch}"];'
        yield "  }"
    for li, layer in enumerate(layers):
        color = "green" if layer.kernel.kind.is_spatial else "blue"
        names = shuffle_after(layers[li - 1]) if li else range(layer.in_channels)
        for ch, reads in enumerate(_input_groups(layer)):
            for src in sorted(names[c] for c in reads):
                yield f"  t{li}_c{src} -> t{li + 1}_c{ch} [color={color}];"
    yield "}"


def build_parser() -> _Parser:
    parser = _Parser(prog="skdesign", description=__doc__)
    parser.add_argument("--version", action="version", version=f"skdesign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json"), default="table")
    block = argparse.ArgumentParser(add_help=False)
    block.add_argument("--family", required=True)
    block.add_argument("--blocks", type=_positive_int, default=8)
    block.add_argument("--groups", type=_groups_arg, default=None)
    block.add_argument("--include-bn", action="store_true")
    block.add_argument("--include-bias", action="store_true")
    block.add_argument("--no-projections", action="store_true")

    p = sub.add_parser("search", parents=[fmt], help="run the pruning pipeline")
    p.add_argument("--max-len", type=_positive_int, default=6)
    p.add_argument("--channels", type=_positive_int, default=64)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--out-channels", type=_positive_int, default=None)
    out.add_argument("--alpha", type=_ratio_arg, default=None, help="output/input width ratio")
    p.add_argument("--no-bottleneck", action="store_true")
    p.add_argument("--no-domination", action="store_true")
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("analyze", parents=[fmt], help="closed-form efficiency of one family")
    p.add_argument("family")
    p.add_argument("--c", type=_positive_int, required=True)
    p.add_argument("--f", type=_positive_int, required=True)
    p.add_argument("--groups", type=_groups_arg, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "size", parents=[fmt, block], help="whole-model parameter/MAC accounting"
    )
    p.add_argument("--width", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_size)

    p = sub.add_parser(
        "width", parents=[fmt, block], help="largest width under a parameter budget"
    )
    p.add_argument("--budget", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("verify", parents=[fmt], help="run the brute-force oracle suites")
    p.add_argument("--theorem1", action="store_true")
    p.add_argument("--infofield", action="store_true")
    p.add_argument("--c-max", type=_positive_int, default=64)
    p.add_argument("--len-max", type=_positive_int, default=4)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("graph", parents=[fmt], help="emit a DOT connectivity drawing")
    p.add_argument("design")
    p.add_argument("--channels", type=_positive_int, default=4)
    p.add_argument("--groups", type=_groups_arg, default=None)
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
