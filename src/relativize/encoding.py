"""Integer encodings: pairing, structural numbering, block codes, input codes.

Every code is an arbitrary-precision natural so codes of all kinds can live in
one membership set; there are no overflow semantics anywhere.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

from .formula import Assignment, assignment_index

# Pairing a pair of serialization-sized naturals squares their magnitude, so
# codes routinely run to thousands of decimal digits, past the interpreter's
# default int/str conversion guard (4,300 digits, sized for untrusted input).
CODE_DIGITS = 2_000_000


@contextmanager
def code_digit_limit():
    """Let int/str conversions inside the block handle codes of up to
    CODE_DIGITS digits, then restore the process-wide limit as it was.

    Only the paths that turn codes into text or back (reports, oracle files,
    CLI output) enter it, so importing the package changes nothing.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the guard
        yield
        return
    old = sys.get_int_max_str_digits()
    if old:  # 0 means no limit at all
        sys.set_int_max_str_digits(max(old, CODE_DIGITS))
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def pair(a: int, b: int) -> int:
    """Cantor pairing: a bijection between pairs of naturals and naturals."""
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    """Exact inverse of pair."""
    w = (isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def godel_number(p) -> int:
    """Structural number of a problem: its canonical serialization as a base-256 natural.

    Problems with equal canonical form share a number; distinct forms can not
    collide because the serialization is injective, never empty, and never
    starts with a NUL byte. Not cached: the canonical key it reads is, and
    the two block-code caches below read it only when they are made.
    """
    return int.from_bytes(p.canonical_key().encode("utf-8"), "big")


def partition_code(f, t: int) -> int:
    """Block code of f's assignments with true-count t: pair(t, godel_number(f)).

    The k+1 block codes are cached on the instance on first use, the only
    time g is computed for them; only pair(0, g) is a big multiply, as
    pair(t, g) = pair(t-1, g) + g + t.
    """
    if not 0 <= t <= f.k:
        raise ValueError(f"true-count {t} out of range [0, {f.k}]")
    cache = vars(f)
    codes = cache.get("_block_codes")
    if codes is None:
        g = godel_number(f)
        codes = cache["_block_codes"] = tuple(
            accumulate(range(g + 1, g + f.k + 1), initial=pair(0, g)))
    return codes[t]


def block_code_texts(f, stop: int) -> list[str]:
    """The decimal texts of partition_code(f, t) for t = 0, 1, ..., stop - 1.

    Before Python 3.12, int-to-decimal time grows with the square of the
    length. So the texts come from one list cached on the problem instance,
    made in base 10 from g as an exact decimal, adding g + t per code, as
    pair(t, g) = pair(t-1, g) + g + t (Brent & Zimmermann, *Modern Computer
    Arithmetic*, section 1.7). A scan longer than the list remakes it to its
    own length; a shorter one reads a prefix. Every scan of the instance,
    F[np]'s as well as A's, reads the same list. The decimal comes from the
    int, not from str(g), so no int-to-str conversion guard applies, and one
    exact decimal context makes every text: rounding raises.
    """
    texts = vars(f).get("_block_texts")
    if texts is None or len(texts) < stop:
        import decimal as dec  # here, not at the top: 2.5 ms off every package import

        x = dec.Context(prec=dec.MAX_PREC, Emax=dec.MAX_EMAX, Emin=dec.MIN_EMIN,
                        traps=[dec.InvalidOperation, dec.DivisionByZero, dec.Overflow,
                               dec.Inexact, dec.Rounded])
        d = x.create_decimal(godel_number(f))
        code = x.divide(x.multiply(d, x.add(d, 1)), 2)  # pair(-1, g) = g(g+1)/2
        texts = vars(f)["_block_texts"] = []
        for t in range(stop):
            code = x.add(code, x.add(d, t))
            texts.append(str(code))
    return texts[:stop]


@dataclass(frozen=True)
class InputCode:
    """Decoded input code: (machine index, one assignment, padding length).

    `bits` is the assignment as a 0/1 string, position j = literal j.
    """

    machine_index: int
    bits: str
    padding_length: int
    code: int

    @property
    def k(self) -> int:
        return len(self.bits)

    def assignment(self) -> Assignment:
        return tuple(ch == "1" for ch in self.bits)


def input_code_at(i: int, e: int, k: int) -> int:
    """Input code of (i, assignment number e of k literals, padding 0).

    The assignment index is framed with a leading 1 bit at position k so its
    length survives the round trip; the frame and padding are paired, then
    paired with i. This is the encoding itself: solvers and constructions
    compute every code from the assignment index, never from a bool tuple.
    """
    return pair(i, pair((1 << k) | e, 0))


def input_index(code) -> tuple[int, int, int] | None:
    """(i, k, e) when `code` is input_code_at(i, e, k), else None: for
    anything that is not a natural, a padding other than 0, or an empty frame.

    The one decoder of input codes the solvers and constructions use;
    decode_input_code stays as the reference that takes any padding.
    """
    if not isinstance(code, int) or code < 0:
        return None
    i, rest = unpair(code)
    framed, n = unpair(rest)
    if n or not framed:
        return None
    k = framed.bit_length() - 1
    return i, k, framed ^ (1 << k)


def input_codes(i: int, k: int, stop: int | None = None):
    """Lazily, input_code_at(i, e, k) for e = 0, 1, ..., stop - 1 in
    canonical order, never past the 2^k assignments there are (all of them
    when stop is None).

    A scan that stops at its first yes computes only the codes it asks about.
    `pair` is inlined: the inner pair(framed, 0) is the triangular number x
    of framed, so it grows by framed + 1 from one code to the next (x += s
    after s += 1), and only the outer pairing multiplies.
    """
    frame = 1 << k
    x = frame * (frame + 1) // 2  # pair(frame, 0)
    for s in range(frame + 1, frame + 1 + (frame if stop is None else min(stop, frame))):
        w = i + x
        yield w * (w + 1) // 2 + x  # pair(i, x)
        x += s


def input_code(i: int, a: Assignment, n: int = 0) -> InputCode:
    """Encode the triple (i, a, n) from an assignment tuple.

    The assignment-level reference: input_code_at and input_codes, which the
    solvers and constructions use, are tested against it at padding 0; only
    this reference and decode_input_code take other paddings.
    """
    framed = (1 << len(a)) | assignment_index(a)
    code = pair(i, pair(framed, n))
    bits = "".join("1" if v else "0" for v in a)
    return InputCode(i, bits, n, code)


def decode_input_code(code: int) -> InputCode:
    """Recover the full triple from an input code."""
    i, rest = unpair(code)
    framed, n = unpair(rest)
    if framed < 1:
        raise ValueError(f"{code} is not an input code (empty frame)")
    k = framed.bit_length() - 1
    value = framed ^ (1 << k)
    bits = "".join("1" if (value >> j) & 1 else "0" for j in range(k))
    return InputCode(i, bits, n, code)
