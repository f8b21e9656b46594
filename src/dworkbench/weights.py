"""Eigenspace label combinatorics.

Weight vectors are length-N residue tuples mod N summing to zero, considered
up to adding a constant to every slot.  Multisets of residues stand for
characters of the order-N subgroup, written additively.  The cancellation of
common entries between two multisets is what turns a weight vector into
hypergeometric character data.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .errors import BadParams


class CharMultiset:
    """Multiset of residues mod N, each residue a character written additively."""

    __slots__ = ("N", "_counts")

    def __init__(self, N: int, residues: Iterable[int]):
        self.N = N
        self._counts = Counter(r % N for r in residues)

    @property
    def residues(self) -> tuple[int, ...]:
        out: list[int] = []
        for r in sorted(self._counts):
            out.extend([r] * self._counts[r])
        return tuple(out)

    def counts(self) -> Counter:
        return Counter(self._counts)

    def __iter__(self):
        return iter(self.residues)

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __contains__(self, r: int) -> bool:
        return self._counts[r % self.N] > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CharMultiset):
            return self.N == other.N and self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.N, tuple(sorted(self._counts.items()))))

    def __repr__(self) -> str:
        return f"CharMultiset(N={self.N}, {list(self.residues)})"


class WeightVector:
    """Length-N eigenspace label with zero residue sum, taken mod translation."""

    __slots__ = ("N", "entries")

    def __init__(self, N: int, entries: Sequence[int]):
        if len(entries) != N:
            raise BadParams(f"expected {N} entries, got {len(entries)}")
        ent = tuple(e % N for e in entries)
        if sum(ent) % N != 0:
            raise BadParams("entries must sum to 0 mod N")
        self.N = N
        self.entries = ent

    def translate(self, c: int) -> "WeightVector":
        return WeightVector(self.N, [(e + c) % self.N for e in self.entries])

    def __eq__(self, other: object) -> bool:
        # labels live mod adding a constant to all entries
        if isinstance(other, WeightVector):
            if self.N != other.N:
                return False
            return any(
                tuple((e + c) % self.N for e in self.entries) == other.entries
                for c in range(self.N)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.N, min(tuple((e + c) % self.N for e in self.entries) for c in range(self.N))))

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


def cancel(A: CharMultiset, B: CharMultiset) -> tuple[CharMultiset, CharMultiset]:
    """Strip the common part of two multisets, leaving disjoint remainders."""
    if A.N != B.N:
        raise BadParams("multisets over different moduli")
    ca, cb = A.counts(), B.counts()
    outa, outb = [], []
    for r in range(A.N):
        d = ca[r] - cb[r]
        if d > 0:
            outa.extend([r] * d)
        elif d < 0:
            outb.extend([r] * (-d))
    return CharMultiset(A.N, outa), CharMultiset(A.N, outb)


def hyper_data(v: "WeightVector | Sequence[int]", N: int | None = None) -> tuple[CharMultiset, CharMultiset]:
    """Character data of the label: cancel all residues against those of -v.

    Accepts a raw entry sequence with explicit N so that deliberately broken
    labels can flow through the same pipeline.
    """
    if isinstance(v, WeightVector):
        N, entries = v.N, v.entries
    else:
        if N is None:
            raise BadParams("raw entries need an explicit modulus")
        entries = tuple(e % N for e in v)
    full = CharMultiset(N, range(N))
    neg = CharMultiset(N, [(-e) % N for e in entries])
    return cancel(full, neg)


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
