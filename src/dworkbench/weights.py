"""Eigenspace label combinatorics.

A weight vector is a length-N tuple of residues mod N summing to zero.  Its
hypergeometric character data are residues of Z/N, each standing for a
character of the order-N subgroup written additively: cancel the residues
of -v against one copy of every residue, and what is left on each side,
sorted, is the pair (chis, rhos).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .errors import BadParams


class WeightVector:
    """Length-N eigenspace label with zero residue sum."""

    __slots__ = ("N", "entries")

    def __init__(self, N: int, entries: Sequence[int]):
        if len(entries) != N:
            raise BadParams(f"expected {N} entries, got {len(entries)}")
        ent = tuple(e % N for e in entries)
        if sum(ent) % N != 0:
            raise BadParams("entries must sum to 0 mod N")
        self.N = N
        self.entries = ent

    def __repr__(self) -> str:
        return f"WeightVector(N={self.N}, {list(self.entries)})"


def build_v(n: int, N: int) -> WeightVector:
    """The standard label with exactly n omitted residue classes.

    For n = 2 the entries are three zeros then 2..N-2.  For larger even n,
    with k = n/2, the nonzero entries are 2, k+1, the run k+3..N-k-2, and
    N-1, padded with n+1 zeros.
    """
    if n < 2 or n % 2 != 0:
        raise BadParams("n must be even and at least 2")
    if N % 2 == 0 or N < n + 5:
        raise BadParams("N must be odd and at least n + 5")
    if n == 2:
        entries = [0, 0, 0] + list(range(2, N - 1))
    else:
        k = n // 2
        entries = [0] * (n + 1) + [2, k + 1] + list(range(k + 3, N - k - 1)) + [N - 1]
    return WeightVector(N, entries)


def hyper_data(v: WeightVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Character data (chis, rhos) of the label, each sorted: the residues
    of Z/N not cancelled by those of -v, and those of -v left over."""
    full = Counter(range(v.N))
    neg = Counter((-e) % v.N for e in v.entries)
    return tuple(sorted((full - neg).elements())), tuple(sorted((neg - full).elements()))


def rank_of(v: "WeightVector | Sequence[int]", N: int | None = None) -> int:
    """Number of translates of the label with no zero entry."""
    if isinstance(v, WeightVector):
        N, entries = v.N, v.entries
    elif N is None:
        raise BadParams("raw entries need an explicit modulus")
    else:
        entries = tuple(e % N for e in v)
    return N - len(set(entries))


def is_self_dual(v: WeightVector) -> bool:
    """Whether -v is a permutation of some translate of v."""
    neg = sorted((-e) % v.N for e in v.entries)
    return any(
        sorted((e + c) % v.N for e in v.entries) == neg for c in range(v.N)
    )
