"""Exact Fibonacci numbers and the degree-to-weight maps used by the metrics.

Everything here is a Python int, so weights stay exact no matter how large a
degree gets (f_d outgrows 64-bit words near d = 93, and degree sequences of
large graphs go far beyond that).  Only :func:`fib_pair` also runs in another
ring, given its unit.

There is one Fibonacci routine, the fast doubling of :func:`fib_pair`.
:func:`fib` is a cache in front of it, for the callers that ask for the same
small indices over and over: in :mod:`jacograph.theorems` the thm33
formula and the weights that the thm31 and thm33 oracles rank; the closed
forms and the naive oracle; and the table's weight labels, once per
degree.  A miss at i adds the cached f_{i-2} and f_{i-1} when both are
there, so a sweep upwards costs one addition per index, and runs
``fib_pair(i)`` otherwise.  The cache holds only the values asked for,
each computed once, so f_i costs O(log i) multiplications and O(i) bits
however large i is.  It is safe to share across threads: a dict's get and
set are each atomic, and two threads that miss on the same index both
compute the same value.  ``fib.__self__`` is the cache itself, a dict from
index to value.  The histogram metric kernel calls ``fib_pair`` directly and
makes no per-degree ``fib`` call.
"""

from __future__ import annotations

from typing import Any

__all__ = ["fib", "fib_pair", "signed_weight_of_degree"]


def fib_pair(i: int, one: Any = 1) -> tuple[Any, Any]:
    """(f_i, f_{i+1}) by fast doubling.

    Walks the bits of i from the top, doubling the index with
    f_2k = f_k (2 f_{k+1} - f_k) and f_2k+1 = f_k^2 + f_{k+1}^2 and stepping
    it by one on a set bit: O(log i) multiplications of numbers no longer
    than f_i, and O(i) bits of memory.
    The doubling runs in the ring whose unit is ``one``: ints by default, or
    for instance ``decimal.Decimal(1)``, exact in a context that cannot round.
    """
    if i < 0:
        raise ValueError(f"Fibonacci index must be non-negative, got {i}")
    a, b = 0 * one, one
    for bit in bin(i)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


class _FibCache(dict):
    """Index -> f_i for the indices asked for; a miss computes and stores the value."""

    def __missing__(self, i: int) -> int:
        before, last = self.get(i - 2), self.get(i - 1)
        value = before + last if before is not None and last is not None else fib_pair(i)[0]
        self[i] = value
        return value


# f_i for non-negative i (f_0 = 0, f_1 = f_2 = 1), cached per index.  A bound
# __getitem__, so a hit is one dict lookup and runs no Python code.
fib = _FibCache().__getitem__


def signed_weight_of_degree(d: int) -> int:
    """Signed Fibonacci weight: -f_d when d is odd, +f_d when d is even."""
    w = fib(d)
    return -w if d % 2 else w
