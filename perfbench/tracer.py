"""Outside-in per-layer tracing of burnfuse, installed from the benchmark.

Nothing in ``src/`` knows about this module. ``install()`` replaces the
public functions named below with wrappers, in every ``burnfuse`` module
namespace that holds them (so ``from .x import f`` bindings are covered
too). ``Tracer.stats()`` reads the wrapper counters and the ``cache_info()``
of every ``functools.lru_cache``, and ``aggregate()`` sums them over traced
processes into the ``<module>.<function>.<stat>`` metrics listed in
``perfbench/README.md``.

Timed functions keep a span stack: a call's self time is its duration minus
the time of the timed calls it made. Spans are aggregated per function in
memory rather than stored one by one, because the gate makes millions of
permutation products. Counted-only functions (``perms.p_mul`` and friends)
add one counter increment per call and no clock reads.

Run a traced CLI command as a child process::

    PYTHONPATH=src python3 perfbench/tracer.py STATS.json -- basis S4 S4
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Functions whose calls and self time are recorded, by layer.
TIMED = {
    "groups": ("all_subgroups", "homomorphisms", "subgroups_up_to_conjugacy",
               "normalizer", "sylow"),
    "burnside": ("basis", "realize", "decompose", "compose", "restrict_along",
                 "opposite", "ring_product", "ideal_power_membership"),
    "fusion": ("is_stable", "characteristic_idempotent", "stable_pair_classes",
               "stable_basis", "stable_coordinates", "invert_stable"),
    "completion": ("complete", "completion_unit_inverse", "stable_rank_check",
                   "verify_splitting_sum"),
    "intlattice": ("kernel_basis", "smith_invariant_factors"),
    "serialize": ("element_to_json", "element_from_json"),
}
# Functions whose calls are only counted: they are called millions of times,
# and a clock read per call would swamp what it measures.
COUNTED = {
    "perms": ("p_mul", "p_inv"),
    "padic": ("is_prime",),
}
# lru caches whose misses are reported.
MISSES = {
    "groups": ("all_subgroups", "homomorphisms"),
    "burnside": ("_canonical_pair", "_compose_basis", "_restrict_basis",
                 "_opposite_basis", "realize"),
}
# lru caches whose hit ratio is reported.
HIT_RATIO = {
    "burnside": MISSES["burnside"],
}
MODULES = ("perms", "groups", "padic", "intlattice", "burnside", "fusion",
           "completion", "serialize", "verify", "cli")
N_CRITERIA = 10


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for mod, fns in TIMED.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "count", "lower"))
            out.append((f"{mod}.{fn}.self_s", "s", "lower"))
    for mod, fns in COUNTED.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "count", "lower"))
    out.append(("padic.PadicInt.constructions", "count", "lower"))
    for mod, fns in MISSES.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.misses", "count", "lower"))
    for mod, fns in HIT_RATIO.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.hit_ratio", "ratio", "higher"))
    for i in range(1, N_CRITERIA + 1):
        out.append((f"verify.criterion_{i}_s", "s", "lower"))
    out.append(("cache.entries", "count", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class _Stat:
    __slots__ = ("calls", "total", "self_s")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


class Tracer:
    """Wrappers and counters for one process. Create it with ``install()``."""

    def __init__(self):
        self.stats_by_name: dict[str, _Stat] = {}
        self.caches: dict[str, object] = {}
        self._stack: list[float] = []

    def _timed(self, fn, stat: _Stat):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counted(fn, stat: _Stat):
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def stats(self) -> dict[str, float]:
        """Raw counters of this process; ``aggregate`` turns the counters of
        one or more processes into the per-layer metrics."""
        out: dict[str, float] = {}
        for mod, fns in TIMED.items():
            for fn in fns:
                st = self.stats_by_name[f"{mod}.{fn}"]
                out[f"{mod}.{fn}.calls"] = st.calls
                out[f"{mod}.{fn}.self_s"] = st.self_s
        for mod, fns in COUNTED.items():
            for fn in fns:
                out[f"{mod}.{fn}.calls"] = self.stats_by_name[f"{mod}.{fn}"].calls
        out["padic.PadicInt.constructions"] = \
            self.stats_by_name["padic.PadicInt"].calls
        for mod, fns in MISSES.items():
            for fn in fns:
                out[f"{mod}.{fn}.misses"] = \
                    self.caches[f"{mod}.{fn}"].cache_info().misses
        for mod, fns in HIT_RATIO.items():
            for fn in fns:
                out[f"{mod}.{fn}.hits"] = self.caches[f"{mod}.{fn}"].cache_info().hits
        for i in range(1, N_CRITERIA + 1):
            out[f"verify.criterion_{i}_s"] = \
                self.stats_by_name[f"verify.criterion_{i}"].total
        out["cache.entries"] = sum(c.cache_info().currsize
                                   for c in self.caches.values())
        return out


def aggregate(raw: list[dict], overhead_s: float) -> dict[str, float]:
    """Sum the counters of several traced processes into the per-layer
    metrics. A hit ratio is hits over lookups, 0 when there were none."""
    total: dict[str, float] = {}
    for stats in raw:
        for key, value in stats.items():
            total[key] = total.get(key, 0) + value
    for mod, fns in HIT_RATIO.items():
        for fn in fns:
            hits = total.pop(f"{mod}.{fn}.hits")
            lookups = hits + total[f"{mod}.{fn}.misses"]
            total[f"{mod}.{fn}.hit_ratio"] = hits / lookups if lookups else 0.0
    total["trace.overhead_s"] = overhead_s
    return {name: total[name] for name, _, _ in metric_names()}


def _replace_everywhere(modules, original, wrapper) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, tuple) and any(v is original for v in value):
                setattr(mod, key, tuple(wrapper if v is original else v
                                        for v in value))


def install() -> Tracer:
    """Import burnfuse and wrap the traced functions. Call once per process,
    before any burnfuse work."""
    tracer = Tracer()
    mods = {name: importlib.import_module(f"burnfuse.{name}") for name in MODULES}
    everywhere = [m for name, m in sys.modules.items()
                  if name == "burnfuse" or name.startswith("burnfuse.")]
    for mod in everywhere:
        for key, value in vars(mod).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", "") == mod.__name__:
                tracer.caches[f"{mod.__name__.split('.')[-1]}.{key}"] = value

    def wrap(mod_name, fn_name, timed):
        original = getattr(mods[mod_name], fn_name)
        stat = tracer.stats_by_name[f"{mod_name}.{fn_name}"] = _Stat()
        wrapper = (tracer._timed if timed else Tracer._counted)(original, stat)
        _replace_everywhere(everywhere, original, wrapper)

    for mod, fns in TIMED.items():
        for fn in fns:
            wrap(mod, fn, True)
    for mod, fns in COUNTED.items():
        for fn in fns:
            wrap(mod, fn, False)
    for i, fn in enumerate(mods["verify"].ALL_CRITERIA, 1):
        stat = tracer.stats_by_name[f"verify.criterion_{i}"] = _Stat()
        _replace_everywhere(everywhere, fn, tracer._timed(fn, stat))
    padic_cls = mods["padic"].PadicInt
    stat = tracer.stats_by_name["padic.PadicInt"] = _Stat()
    padic_cls.__post_init__ = Tracer._counted(padic_cls.__post_init__, stat)
    return tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py STATS.json -- <burnfuse cli arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = install()
    from burnfuse import cli
    status = cli.run(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.stats(), fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
