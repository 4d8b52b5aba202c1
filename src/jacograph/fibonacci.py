"""Exact Fibonacci numbers and the degree-to-weight maps used by the metrics.

Everything here is a Python int, so weights stay exact no matter how large a
degree gets (f_d outgrows 64-bit words near d = 93, and degree sequences of
large graphs go far beyond that).  Only :func:`fib_pair` also runs in another
ring, given its unit.
"""

from __future__ import annotations

from typing import Any

__all__ = ["FibCache", "fib", "fib_pair", "weight_of_degree", "signed_weight_of_degree"]


class FibCache:
    """Append-only cache of the Fibonacci sequence f_0=0, f_1=1, f_2=1, ...

    Lookups extend the cache on demand and are amortized O(1) afterwards.
    Extension is not synchronized: warm the cache up to the largest index
    needed (a single ``fib`` call), then it may be shared immutably across
    threads.  Holding f_0..f_i takes about 0.347 i^2 bits, so only small
    indices belong here: within the package the theorem formulas, the
    table's weight column, the closed forms and the naive oracle fill it; the
    histogram metric kernel never does.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values = [0, 1, 1]

    def fib(self, i: int) -> int:
        """Return f_i for non-negative i."""
        if i < 0:
            raise ValueError(f"Fibonacci index must be non-negative, got {i}")
        values = self._values
        while len(values) <= i:
            values.append(values[-1] + values[-2])
        return values[i]


_SHARED = FibCache()


def fib(i: int) -> int:
    """f_i from the shared process-wide cache."""
    return _SHARED.fib(i)


def fib_pair(i: int, one: Any = 1) -> tuple[Any, Any]:
    """(f_i, f_{i+1}) by fast doubling, without the cache.

    Walks the bits of i from the top, doubling the index with
    f_2k = f_k (2 f_{k+1} - f_k) and f_2k+1 = f_k^2 + f_{k+1}^2 and stepping
    it by one on a set bit: O(log i) multiplications of numbers no longer
    than f_i, and O(i) bits of memory where the cache would hold O(i^2).
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


def weight_of_degree(d: int) -> int:
    """Fibonacci weight of a vertex of degree d: f_d (0 for an isolated vertex)."""
    return _SHARED.fib(d)


def signed_weight_of_degree(d: int) -> int:
    """Signed Fibonacci weight: -f_d when d is odd, +f_d when d is even."""
    w = _SHARED.fib(d)
    return -w if d % 2 else w
