"""Finite fields F_q, q = p^m, backed by exponential and discrete-log tables.

Elements are integer codes in 0..q-1 whose base-p digits are the coordinates
in the power basis of the modulus f, the least primitive polynomial of
degree m in Conway's order, so the generator is x mod f.  A prime field is
the degree-1 case F_p[x]/(x - g), g the least primitive root: its code is
its one digit, the residue itself, and every operation has one body for
every degree.  Every API takes and returns a point as its code, an int read
as int(x) % q; FqElem only carries the generator.  Every multiplicative
question becomes index arithmetic mod q-1, through the EXP and DLOG tables;
addition is digitwise, with no table.  The code ops take numpy arrays and
Python ints alike.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import BadParams, NotPrime, TooLarge

_TABLE_BOUND = 1 << 24


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, increasing, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    m = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(m):
                prod[d - m + j] = (prod[d - m + j] - c * mod[j]) % p
    out = prod[:m]
    out += [0] * (m - len(out))
    return out


def _poly_powmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1] + [0] * (len(mod) - 2)
    cur = list(base)
    while e:
        if e & 1:
            result = _poly_mulmod(result, cur, mod, p)
        cur = _poly_mulmod(cur, cur, mod, p)
        e >>= 1
    return result


def _least_primitive(p: int, m: int) -> tuple[int, ...]:
    """Coefficients, constant first, of the least primitive polynomial of
    degree m over F_p in Conway's order: f = x^m - a_1 x^(m-1) + a_2 x^(m-2)
    - ... + (-1)^m a_m, least in (a_1, ..., a_m) with a_m != 0, such that x
    has order p^m - 1 mod f.  Such an f is irreducible, as a reducible f of
    degree m leaves fewer than p^m - 1 units; at m = 1 it is x - g for the
    least primitive root g."""
    n = p ** m - 1
    one = [1] + [0] * (m - 1)
    checks = [n // r for r in prime_factors(n)]
    for a in itertools.product(range(p), repeat=m):
        if not a[-1]:
            continue
        f = [(-1) ** (m - i) * a[m - 1 - i] % p for i in range(m)] + [1]
        if all(_poly_powmod([0, 1], c, f, p) != one for c in checks) and _poly_powmod([0, 1], n, f, p) == one:
            return tuple(f)
    raise ArithmeticError("no primitive polynomial found")  # unreachable: every F_{p^m} has one


class FqElem:
    """A code with its field: the form of FqField.generator.  Points are
    plain integer codes everywhere else."""

    __slots__ = ("field", "code")

    def __init__(self, field: "FqField", code: int):
        self.field = field
        self.code = code


class FqField:
    """F_{p^m} with exp/dlog tables and vectorized code arithmetic."""

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if m <= 0:
            raise BadParams(f"a field extension has degree at least 1, not {m}")
        q = p ** m
        if q > _TABLE_BOUND:
            raise TooLarge(f"q = {q} exceeds the table bound 2^24")
        self.p, self.m, self.q = p, m, q
        self._pp = [p ** i for i in range(m + 1)]
        self.modulus = _least_primitive(p, m)
        self._gen_code = self._digits_code(_poly_powmod([0, 1], 1, self.modulus, p))  # x mod f
        self._build_log_tables()
        self._trabs: np.ndarray | None = None

    # -- construction internals -------------------------------------------

    def _code_digits(self, code: int) -> list[int]:
        return [(code // self._pp[i]) % self.p for i in range(self.m)]

    def _digits_code(self, digits: Sequence[int]) -> int:
        return sum((d % self.p) * self._pp[i] for i, d in enumerate(digits))

    def _mul_code_slow(self, a: int, b: int) -> int:
        prod = _poly_mulmod(self._code_digits(a), self._code_digits(b), self.modulus, self.p)
        return self._digits_code(prod)

    def _build_log_tables(self) -> None:
        """EXP[k] = g^k and its inverse DLOG, B ~ sqrt(q - 1) powers at a time.

        Multiplying by g^B is F_p-linear on digit vectors, so each block of
        B powers is the block before it times the m x m matrix of
        x -> g^B x; only the first block takes slow products.  A cell of
        block @ A is below m p^2 < 2^53, exact in int64.
        """
        q, p, m, g = self.q, self.p, self.m, self._gen_code
        R = q - 1
        B = math.isqrt(R)
        first = [1]
        for _ in range(B - 1):
            first.append(self._mul_code_slow(first[-1], g))
        gB = self._mul_code_slow(first[-1], g)
        A = np.array([self._code_digits(self._mul_code_slow(gB, pi)) for pi in self._pp[:m]], dtype=np.int64)
        pp = np.array(self._pp[:m], dtype=np.int64)
        block = np.array([self._code_digits(c) for c in first], dtype=np.int64)
        nblocks = R // B + 1  # rows 0..R: the last one checks the order
        codes = np.empty(nblocks * B, dtype=np.int64)
        for j in range(nblocks):
            if j:
                block = (block @ A) % p
            codes[j * B : (j + 1) * B] = block @ pp
        if codes[R] != 1:
            raise ArithmeticError("generator order check failed")
        exp = codes[:R].copy()
        dlog = np.full(q, -1, dtype=np.int64)
        dlog[exp] = np.arange(R, dtype=np.int64)
        if (dlog[1:] < 0).any():
            raise ArithmeticError("a unit has no discrete log")
        self.EXP, self.DLOG = exp, dlog

    @property
    def generator(self) -> FqElem:
        return FqElem(self, self._gen_code)

    # -- scalar code arithmetic -------------------------------------------

    def add_code(self, a: int, b: int) -> int:
        return int(self.add_codes(a, b))

    def neg_code(self, a: int) -> int:
        return int(self.neg_codes(a))

    def mul_code(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.EXP[(int(self.DLOG[a]) + int(self.DLOG[b])) % (self.q - 1)])

    # -- vectorized code arithmetic ---------------------------------------

    def add_codes(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Codes of A + B, digit by digit, shaped by the broadcast of A and B.
        Digit 0 is (A + B) mod p, as the higher digits add multiples of p."""
        out = (A + B) % self.p
        for pi in self._pp[1 : self.m]:
            out += (((A // pi) + (B // pi)) % self.p) * pi
        return out

    def neg_codes(self, A: np.ndarray) -> np.ndarray:
        out = (-A) % self.p
        for pi in self._pp[1 : self.m]:
            out += ((-(A // pi)) % self.p) * pi
        return out

    def mul_codes(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        A = np.asarray(A)
        B = np.asarray(B)
        nz = (A != 0) & (B != 0)
        d = (self.DLOG[A] + self.DLOG[B]) % (self.q - 1)
        return np.where(nz, self.EXP[np.where(nz, d, 0)], 0)

    # -- trace and norm ----------------------------------------------------

    def trace_abs_table(self) -> np.ndarray:
        """TRABS[code] = absolute trace down to F_p, as a residue mod p."""
        if self._trabs is None:
            q, p = self.q, self.p
            dl = self.DLOG[1:]
            acc = np.arange(q, dtype=np.int64)
            for pi in self._pp[1 : self.m]:  # add the conjugates x^(p^i)
                im = np.zeros(q, dtype=np.int64)
                im[1:] = self.EXP[(dl * pi) % (q - 1)]
                acc = self.add_codes(acc, im)
            if np.any(acc >= p):
                raise ArithmeticError("absolute trace left the prime field")
            self._trabs = acc
        return self._trabs

    def norm(self, code: int) -> int:
        """Norm from F_{p^m} down to F_p, as a code."""
        if code == 0:
            return 0
        e = (self.q - 1) // (self.p - 1)
        return int(self.EXP[(int(self.DLOG[code]) * e) % (self.q - 1)])


_FIELDS: dict[tuple[int, int], FqField] = {}


def build_field(p: int, m: int = 1) -> FqField:
    """Construct (and cache) F_{p^m} with verified modulus and generator:
    one object per (p, m), however m is passed."""
    if (p, m) not in _FIELDS:
        _FIELDS[p, m] = FqField(p, m)
    return _FIELDS[p, m]
