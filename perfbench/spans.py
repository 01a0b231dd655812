"""Spans around the public layer functions of `fishburn`, installed from outside.

`Tracer.install` replaces each layer function with a wrapper that records
a span (layer, parent span, start, end) in flat in-memory arrays.  The
wrapper is put in place of every module attribute that names the
original, so names that `cli` or `bijections` imported with
`from .objects import ...` are covered too; `__post_init__` and class
constructors are patched on the class.  `uninstall` restores every
original.  Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

ROOT_SPAN = "bench"

LAYERS = (
    "cli.main",
    "objects.parse_sequence",
    "objects.parse_permutation",
    "objects.parse_poset",
    "objects.parse_involution",
    "objects.format_sequence",
    "objects.format_permutation",
    "objects.format_poset",
    "objects.format_involution",
    "objects.poset_from_relations",
    "objects.poset_to_relations",
    "objects.AscentSequence.__post_init__",
    "objects.ModifiedAscentSequence.__post_init__",
    "objects.Permutation.__post_init__",
    "objects.Poset.__post_init__",
    "objects.ChordInvolution.__post_init__",
    "bijections.sequence_to_perm",
    "bijections.perm_to_sequence",
    "bijections.to_modified",
    "bijections.from_modified",
    "bijections.sequence_to_poset",
    "bijections.poset_to_sequence",
    "bijections.poset_to_involution",
    "bijections.involution_to_poset",
    "bijections.dual",
    "statistics.stats_of_sequence",
    "statistics.stats_of_perm",
    "statistics.stats_of_poset",
    "patterns.parse_pattern",
    "patterns.find_occurrence",
    "series.p_series",
    "series.CountTable",
    "series.verify_functional_equation",
    "series.F_n_polynomial",
    "series.verify_S_identity",
    "series.verify_kernel_solution",
    "verify.run_suite",
)


class Tracer:
    def __init__(self):
        self.names = (ROOT_SPAN,) + LAYERS
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def root(self, fn):
        """Wrap a benchmark step so its own time shows as the root span."""
        return self._wrap(0, fn)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "fishburn" or name.startswith("fishburn.")]
        for name_id, name in enumerate(self.names[1:], start=1):
            module_name, *path = name.split(".")
            owner = importlib.import_module("fishburn." + module_name)
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            target = getattr(owner, attr)
            if isinstance(target, type):
                owner, attr = target, "__init__"
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name_id, original))
                continue
            wrapper = self._wrap(name_id, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, key, target, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time in seconds) over all recorded spans."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += d
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for name_id, d, c in zip(self.ids, durations, child):
            calls[name_id] += 1
            own[name_id] += d - c
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, stem: Path) -> None:
        """Spans to `<stem>.bin` (int32 ids, int32 parents, float64 starts, ends)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as out:
            for column in (self.ids, self.parents, self.starts, self.ends):
                column.tofile(out)
        header = {"names": self.names, "spans": len(self.ids),
                  "columns": ["id:int32", "parent:int32", "start_s:float64", "end_s:float64"]}
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
