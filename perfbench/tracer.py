"""Traced child: one jacograph CLI invocation with spans around each layer.

Usage: python3 perfbench/tracer.py CLI_ARG...   (with jacograph importable)

Wraps the public functions listed in SPANNED so that each call records a
span (name, start, end, parent, one size attribute), counts the calls of the
functions in COUNTED without timing them, runs ``jacograph.cli.main`` with
the CLI arguments, and exits with its code.  The program's stdout is
untouched.  When the run ends, one JSON line with the
spans, the counts and a few measurements taken after the run goes to stderr.

The Fibonacci lookups are counted instead of spanned: they are called
millions of times in the verify sweeps, and a span per call more than
doubled the run time of ``verify thm21 thm31 --n 2..300``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
import tracemalloc


def _length(args, result):
    return len(args[0])


def _pairs(args, result):
    k = len(args[0])
    return k * (k - 1) // 2


def _first_arg(args, result):
    return args[0]


def _edges(args, result):
    return result.edge_count


# module -> {public function: size attribute recorded with each span, or None}
SPANNED = {
    "jaco": {
        "build_profile": _first_arg,
        "underlying_degrees": _first_arg,
        "underlying_graph": _edges,
        "prime_jaconian_index": None,
    },
    "irregularity": {
        "irr_t": _length,
        "firr_t": _length,
        "firr_pm": _length,
        "pair_sum_sorted": _length,
        "pair_sum_naive": _pairs,
    },
    "theorems": {
        "verify_sweep": None,
        "thm21_rhs": None,
        "thm31_rhs": None,
        "thm32_check": None,
        "cor31_check": None,
        "lemma31_check": None,
        "thm33_check": None,
        "thm33_exact": None,
        "thm33_literal": None,
    },
    "graphs": {"edge_joint": None, "disjoint_union": None, "degree_sequence": None},
    "cli": {"main": None},
}
COUNTED = {"fibonacci": ("fib", "weight_of_degree", "signed_weight_of_degree")}


class Tracer:
    """In-memory span and call-count store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start ns, end ns, parent index or -1, attribute]
        self.stack = [-1]
        self.ticks: dict[str, itertools.count] = {}
        self.highest = [0]  # largest argument seen by any counted function

    def spanned(self, name: str, fn, attr):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0, 0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attr is not None:
                span[4] = attr(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        ticks = itertools.count()
        self.ticks[name] = ticks
        highest = self.highest

        # Locals bound as defaults: this wrapper runs millions of times.
        def wrapper(i, fn=fn, tick=ticks.__next__, highest=highest):
            tick()
            if i > highest[0]:
                highest[0] = i
            return fn(i)

        return wrapper

    def call_counts(self) -> dict[str, int]:
        """Calls per counted function; this advances the counters, so read it once, at the end."""
        return {name: next(ticks) for name, ticks in self.ticks.items()}

    @property
    def max_index(self) -> int:
        return self.highest[0]


def _rebind(original, replacement) -> None:
    """Point every jacograph module-level name bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "jacograph" or mod_name.startswith("jacograph."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def install(tracer: Tracer) -> dict:
    """Wrap the traced functions; returns the originals by qualified name."""
    originals = {}
    for mod_name in list(SPANNED) + list(COUNTED):
        importlib.import_module(f"jacograph.{mod_name}")
    for mod_name, funcs in SPANNED.items():
        mod = sys.modules[f"jacograph.{mod_name}"]
        for func, attr in funcs.items():
            fn = getattr(mod, func, None)
            if fn is not None:
                originals[f"{mod_name}.{func}"] = fn
                _rebind(fn, tracer.spanned(f"{mod_name}.{func}", fn, attr))
    for mod_name, funcs in COUNTED.items():
        mod = sys.modules[f"jacograph.{mod_name}"]
        for func in funcs:
            fn = getattr(mod, func, None)
            if fn is not None:
                originals[f"{mod_name}.{func}"] = fn
                _rebind(fn, tracer.counted(f"{mod_name}.{func}", fn))
    return originals


def _after_run(tracer: Tracer, originals: dict) -> dict:
    """Measurements taken once the traced invocation is over, outside any span."""
    out: dict = {}
    built = [s[4] for s in tracer.spans if tracer.names[s[0]] == "jaco.build_profile"]
    if built:
        tracemalloc.start()
        originals["jaco.build_profile"](max(built))
        out["build_profile_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    fib_cache = getattr(sys.modules["jacograph.fibonacci"], "FibCache", None)
    if tracer.max_index and fib_cache is not None:
        fills = []
        for _ in range(3):
            start = time.perf_counter()
            fib_cache().fib(tracer.max_index)
            fills.append(time.perf_counter() - start)
        out["fib_fill_s"] = sorted(fills)[1]
    return out


def main(cli_args: list[str]) -> int:
    import jacograph.cli

    tracer = Tracer()
    originals = install(tracer)
    code = jacograph.cli.main(cli_args)
    sys.stdout.flush()
    done = time.perf_counter()
    result = {
        "names": tracer.names,
        "spans": tracer.spans,
        "counts": tracer.call_counts(),
        "fib_max_index": tracer.max_index,
    }
    result.update(_after_run(tracer, originals))
    result["post_s"] = time.perf_counter() - done
    sys.stderr.write(json.dumps(result, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
