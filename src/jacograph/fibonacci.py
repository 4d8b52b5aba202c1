"""Exact Fibonacci numbers and the degree-to-weight maps used by the metrics.

Everything here is a Python int, so weights stay exact no matter how large a
degree gets (f_d outgrows 64-bit words near d = 93, and degree sequences of
large graphs go far beyond that).  Only :func:`fib_pair` also runs in another
ring, given its unit.

There is one Fibonacci routine, the fast doubling of :func:`fib_pair`, and
:func:`fib` is its first value: f_i in O(log i) multiplications of numbers
no longer than f_i and O(i) bits of memory, whatever was asked before.  The
module keeps no state, so no value depends on the calls before it.  The
callers that want one f_d at a time call :func:`fib`: the thm33 formula's
pivot, the closed forms, the naive oracle and the table's weight labels,
once per degree.  The histogram kernel and the verify oracles make no
per-degree call: they step from one Fibonacci number to the next by an
addition.
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


def fib(i: int) -> int:
    """f_i for non-negative i (f_0 = 0, f_1 = f_2 = 1): the first value of :func:`fib_pair`."""
    return fib_pair(i)[0]


def signed_weight_of_degree(d: int) -> int:
    """Signed Fibonacci weight: -f_d when d is odd, +f_d when d is even."""
    return (-1) ** d * fib(d)
