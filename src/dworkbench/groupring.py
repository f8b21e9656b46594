"""Exact integer convolution kernels.

Linear convolution of integer coefficient vectors is the inner loop of both
cyclotomic multiplication and the count-vector trace accumulators.  Short
operands go through the schoolbook loop; longer ones are packed into single
big integers (Kronecker substitution) so Python's native big-int product does
the work in C.
"""

from __future__ import annotations

from typing import Sequence

# Below this many schoolbook products the packing overhead is not worth it.
_SCHOOLBOOK_CUTOFF = 3000


def convolve_int(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Linear convolution of two integer sequences, exact."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    if la * lb <= _SCHOOLBOOK_CUTOFF:
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return out
    return _convolve_kronecker(a, b)


def _pack(vals: Sequence[int], width_bytes: int) -> int:
    buf = bytearray(len(vals) * width_bytes)
    for i, v in enumerate(vals):
        if v:
            buf[i * width_bytes : i * width_bytes + (v.bit_length() + 7) // 8] = v.to_bytes(
                (v.bit_length() + 7) // 8, "little"
            )
    return int.from_bytes(buf, "little")


def _unpack(n: int, width_bytes: int, count: int) -> list[int]:
    buf = n.to_bytes(count * width_bytes, "little")
    w = width_bytes
    return [int.from_bytes(buf[i * w : (i + 1) * w], "little") for i in range(count)]


def _convolve_kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # Split into nonnegative parts so packed fields never interfere: the
    # products ap*bp + an*bn and ap*bn + an*bp have nonnegative fields
    # bounded by max|a| * max|b| * min(len), and subtract to the true result.
    ap = [v if v > 0 else 0 for v in a]
    an = [-v if v < 0 else 0 for v in a]
    bp = [v if v > 0 else 0 for v in b]
    bn = [-v if v < 0 else 0 for v in b]
    maxa = max(max(ap, default=0), max(an, default=0))
    maxb = max(max(bp, default=0), max(bn, default=0))
    if maxa == 0 or maxb == 0:
        return [0] * (len(a) + len(b) - 1)
    bits = maxa.bit_length() + maxb.bit_length() + min(len(a), len(b)).bit_length() + 2
    w = (bits + 7) // 8
    big_ap, big_an = _pack(ap, w), _pack(an, w)
    big_bp, big_bn = _pack(bp, w), _pack(bn, w)
    pos = big_ap * big_bp + big_an * big_bn
    neg = big_ap * big_bn + big_an * big_bp
    n_out = len(a) + len(b) - 1
    pos_f = _unpack(pos, w, n_out)
    neg_f = _unpack(neg, w, n_out)
    return [p - q for p, q in zip(pos_f, neg_f)]

