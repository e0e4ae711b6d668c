"""Span recorder that wraps skdesign's public functions from outside.

Each call into a wrapped function records one span: its name, start, end
and the span that was open when it began (its parent).  Spans are kept in
flat arrays, because a traced default search makes about 600k
`propagate` calls, and are written out as gzipped TSV when the run ends.

Self time is derived from the spans: a span's duration minus the
durations of its direct children (calls are sequential, so children never
overlap).  A layer is the module prefix of a span name.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# span name -> (module, attribute) of the public function it wraps.  Every
# loaded skdesign module that bound the same function object by name is
# patched as well, so calls made through `from .x import f` are seen.
WRAPPED = {
    "cli.main": ("skdesign.cli", "main"),
    "search.run_search": ("skdesign.search", "run_search"),
    "infofield.propagate": ("skdesign.infofield", "propagate"),
    "infofield.field_of": ("skdesign.infofield", "field_of"),
    "verify.verify_theorem1": ("skdesign.verify", "verify_theorem1"),
    "verify.verify_infofield": ("skdesign.verify", "verify_infofield"),
    "oracles.reachable_channel_triple": ("skdesign.oracles", "reachable_channel_triple"),
    "oracles.best_permutation_channel_count": ("skdesign.oracles", "best_permutation_channel_count"),
    "oracles.divisor_grid_min": ("skdesign.oracles", "divisor_grid_min"),
    "efficiency.greatest_width": ("skdesign.efficiency", "greatest_width"),
    "efficiency.optimal_group_numbers": ("skdesign.efficiency", "optimal_group_numbers"),
    "efficiency.family_params": ("skdesign.efficiency", "family_params"),
    "sizer.model_params": ("skdesign.sizer", "model_params"),
    "sizer.solve_width": ("skdesign.sizer", "solve_width"),
    "kernels.param_count": ("skdesign.kernels", "param_count"),
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans for the functions in WRAPPED while installed."""

    def __init__(self, keep: tuple[str, ...] = ()) -> None:
        self.names = list(WRAPPED)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.kept: dict[str, list] = {n: [] for n in keep}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Patch every wrapped function; skdesign.verify is imported if needed."""
        import importlib

        for module_name, _ in WRAPPED.values():
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n == "skdesign" or n.startswith("skdesign.")]
        for nid, (module_name, attr) in enumerate(WRAPPED.values()):
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(nid, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, nid: int, fn):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        kept = self.kept.get(self.names[nid])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and time and calls
        of its direct children, by child layer and by child name."""
        out = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                "child_s": defaultdict(float), "child_calls": defaultdict(int)}
            for n in self.names
        }
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            row = out[name]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur
            p = self.parent[i]
            if p >= 0:
                prow = out[self.names[self.name[p]]]
                prow["self_s"] -= dur
                prow["child_s"][layer_of(name)] += dur
                prow["child_calls"][name] += 1
        for row in out.values():
            row["child_s"] = dict(row["child_s"])
            row["child_calls"] = dict(row["child_calls"])
        return out

    def write_tsv(self, path) -> None:
        """Spans as gzipped TSV: id, name, start, end, parent id (-1 for none)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


def layer_self_s(summary: dict[str, dict]) -> dict[str, float]:
    """Self time summed by layer."""
    out: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        out[layer_of(name)] += row["self_s"]
    return dict(out)
