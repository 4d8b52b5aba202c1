"""The jacograph functions that both sides of a verify check reach.

Usage: python tests/sides.py CHECK_ID INSTANCES   (with jacograph importable)

INSTANCES is a JSON list of argument lists, for example '[[2], [7]]' for a
growth check or '[[5, 3]]' for a union check.  Each instance's check runs
under ``sys.setprofile``.  Its two sides are the direct callees of the
function that makes the record (``SPLIT``): the callees named in
``FORMULA`` make the formula side, ``_equality`` makes the record, and every
other callee is the oracle.  Each side collects every ``jacograph``
function it reaches, named "module.qualname", and a functools cache that
answers a call counts as reaching the function it caches.  Every functools
cache of the package is emptied before each instance and before each
callee, so neither side finds what the other left; one interpreter per
check id starts with every other kind of cache empty as well.

Prints one JSON list: each instance with the sorted names both sides reach.
"""

import inspect
import json
import sys

import jacograph.theorems as theorems

SPLIT = {"_growth_check", "_union_check", "thm33_check"}
FORMULA = {"_growth_rhs", "_formula_totals", "_union_bound", "thm33_literal"}
RECORD = {"_equality"}


def empty_caches() -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("jacograph."):
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()


def cached_name(fn) -> str | None:
    """The "module.qualname" of the function a jacograph functools cache wraps; None for any other callable."""
    wrapped = getattr(fn, "__wrapped__", None)
    module = getattr(wrapped, "__module__", None) or ""
    return f"{module[len('jacograph.'):]}.{wrapped.__qualname__}" if module.startswith("jacograph.") else None


def shared(check, args) -> list[str]:
    reached = {"oracle": set(), "formula": set(), "record": set()}
    split, side = None, None

    def start(name: str) -> str:
        empty_caches()
        return "formula" if name in FORMULA else "record" if name in RECORD else "oracle"

    def profile(frame, event, arg):
        nonlocal split, side
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if not module.startswith("jacograph."):
                return
            code = frame.f_code
            if split is None:
                split = frame if code.co_name in SPLIT else None
            elif frame.f_back is split and not code.co_flags & inspect.CO_GENERATOR:
                side = start(code.co_name)  # a generator resumed here belongs to the side that made it
            if side is not None:
                reached[side].add(f"{module[len('jacograph.'):]}.{code.co_qualname}")
        elif event == "c_call" and split is not None and (name := cached_name(arg)) is not None:
            if frame is split:
                side = start(name.rsplit(".", 1)[1])
            if side is not None:
                reached[side].add(name)

    empty_caches()
    sys.setprofile(profile)
    try:
        check(*args)
    finally:
        sys.setprofile(None)
    return sorted(reached["oracle"] & reached["formula"])


if __name__ == "__main__":
    check = getattr(theorems, f"{sys.argv[1]}_check")
    print(json.dumps([[args, shared(check, args)] for args in json.loads(sys.argv[2])]))
