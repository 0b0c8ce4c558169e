"""Per-layer tracing from outside the package.

``Tracer`` wraps every public function of the package's layer modules,
plus the public classmethods of the classes they define, and patches each
wrapper in at every module attribute that binds the original: callers
resolve names like ``expandercodes.mindist.scan_xor_zero`` through their
own module, so patching only the defining module would miss them. Leaving
the ``with`` block restores every attribute, so untraced code runs
unpatched and no file of the package changes.

Each wrapped function F records ``F.calls``, ``F.s`` (inclusive seconds)
and ``F.self_s`` (``F.s`` minus the time spent in wrapped callees), plus
work counts derived from its arguments and return value.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from dataclasses import dataclass, field
from time import perf_counter

import oracle

PACKAGE = "expandercodes"
LAYERS = ("cli", "instances", "mindist", "graph", "gf2", "subsets")

# Counters that must repeat exactly between runs of one seed; every other
# per-layer value is a time or a rate.
EXACT = frozenset({
    "calls", "visited", "examined", "skipped", "skipped_frac", "codewords",
    "subsets_checked", "partitions_checked", "bytes", "cols", "dimension",
})


def _scan_visited(args, hit):
    # Lex rank of the hit within its universe, + 1; the whole level on a miss.
    universe = list(args["universe"])
    if hit is None:
        return {"visited": math.comb(len(universe), args["k"])}
    return {"visited": oracle.lex_rank([universe.index(v) for v in hit], len(universe)) + 1}


def _level_visited(args, result):
    n, k = args["n"], args["k"]
    return {"visited": math.comb(n, k) if 1 <= k <= n else 0}


def _pruned(args, result):
    start = max(1, math.ceil(result.threshold))
    return {
        "examined": result.examined,
        "skipped": oracle.subsets_below(args["graph"].n, 1, start),
    }


def _partition(args, result):
    return {
        "subsets_checked": result.subsets_checked,
        "partitions_checked": result.partitions_checked,
    }


COUNTERS = {
    "subsets.scan_xor_zero": _scan_visited,
    "subsets.scan_union_below": _scan_visited,
    "subsets.level_min_union": _level_visited,
    "mindist.min_distance_subset": lambda a, r: {"examined": r.examined},
    "mindist.min_distance_pruned": _pruned,
    "mindist.min_distance_kernel": lambda a, r: {"codewords": r.examined},
    "graph.find_bounds_violation": lambda a, r: {"subsets_checked": r.subsets_checked},
    "graph.find_partition_violation": _partition,
    "gf2.nullspace_basis": lambda a, r: {"cols": a["matrix"].cols, "dimension": len(r)},
    "instances.parse_graph": lambda a, r: {"bytes": len(a["text"].encode())},
}

# Rates derived from a count and the function's inclusive seconds.
RATES = {
    "visited_per_s": ("visited",),
    "codewords_per_s": ("codewords",),
    "ops_per_s": ("subsets_checked", "partitions_checked"),
}


def _cli_name(attr):
    """cli.cmd_X reports as cli.X; mindist is split by --method."""
    if attr == "cmd_mindist":
        return lambda args, kwargs: f"cli.mindist_{args[0].method}"
    return "cli." + attr.removeprefix("cmd_")


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Context manager that installs the wrappers on entry and restores
    every patched attribute on exit; ``stats`` holds what was recorded."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.patches: list[tuple[object, str, object]] = []
        self._children = [0.0]

    def __enter__(self):
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYERS}
        functions = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = _cli_name(attr) if short == "cli" else f"{short}.{attr}"
                    functions[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_classmethods(f"{short}.{attr}", obj)
        bound = [m for k, m in list(sys.modules.items())
                 if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in functions:
                    self._patch(mod, attr, functions[id(obj)])
        return self

    def __exit__(self, *exc):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_classmethods(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", obj.__func__)))

    def _wrap(self, name, fn):
        children = self._children
        stats = self.stats
        counter = COUNTERS.get(name) if isinstance(name, str) else None
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                children[-1] += elapsed
                label = name if isinstance(name, str) else name(args, kwargs)
                stat = stats.get(label)
                if stat is None:
                    stat = stats[label] = Stat()
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - inner
            if counter is not None:
                counts = counter(signature.bind(*args, **kwargs).arguments, result)
                for key, value in counts.items():
                    stat.counts[key] = stat.counts.get(key, 0) + value
            return result

        wrapper.bench_wrapper = True
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Flat ``F.key -> value`` map of everything recorded."""
        out: dict[str, float] = {}
        for name, stat in sorted(self.stats.items()):
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.s
            out[f"{name}.self_s"] = stat.self_s
            for key, value in stat.counts.items():
                out[f"{name}.{key}"] = value
            for rate, keys in RATES.items():
                if all(k in stat.counts for k in keys):
                    work = sum(stat.counts[k] for k in keys)
                    out[f"{name}.{rate}"] = work / stat.s if stat.s > 0 else 0.0
            if "skipped" in stat.counts:
                total = stat.counts["skipped"] + stat.counts["examined"]
                out[f"{name}.skipped_frac"] = stat.counts["skipped"] / total if total else 0.0
        return out
