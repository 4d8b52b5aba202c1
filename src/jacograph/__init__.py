"""Linear Jaco graphs and exact irregularity metrics.

The package derives the degrees of the sequential Jaco construction from a
closed form for its out-degrees (Hofstadter's G-sequence), computes total
irregularity, Fibonacci irregularity, and the signed-weight variant with
exact integer arithmetic, and verifies the recursive and union identities
these metrics satisfy against independent brute-force recomputation.

``import jacograph`` loads no submodule.  The public names of the five
modules, and ``__all__``, are resolved on first access (PEP 562), each from
the module that lists it: the modules are tried in the order of
``_MODULES`` and imported as they are tried, so ``jacograph.fib`` loads
``fibonacci`` alone, and ``__all__`` or ``from jacograph import *`` loads
all five.
"""

__version__ = "1.0.0"

# The ids of the verify checks.  They live here, not in ``theorems``, which
# re-exports them, so the CLI's argument parser can read them without loading
# the checks.
THEOREM_IDS = ("thm21", "thm31", "thm32", "cor31", "lemma31", "thm33")

_MODULES = ("fibonacci", "graphs", "irregularity", "jaco", "theorems")


def __getattr__(name: str):
    from importlib import import_module

    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name == "__all__":
        # The public names of the five modules, each listed once, in its module.
        value = [n for module in _MODULES for n in __getattr__(module).__all__] + ["__version__"]
    else:
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
