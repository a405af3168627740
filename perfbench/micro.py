"""Scalar microbenchmarks on fixed operands, one per layer of the tower.

The radical operands are ``q^-1`` and ``q^-1 - q``, the rule coefficients
that dominate the glq2 sweep.  The fraction operands have real
denominators, so ``LaurentFrac`` add and inverse go through ``poly_gcd``.
"""

from __future__ import annotations

import statistics
import timeit
from fractions import Fraction

REPEATS = 7
REPEAT_S = 0.04  # target length of one timed repeat


def operations() -> dict:
    from qclifford.scalars import GaussRational, HalfLaurent, LaurentFrac, qinv, qvar

    a, b = qinv(), qinv() - qvar()
    ga = GaussRational(Fraction(3, 4), Fraction(-2, 5))
    gb = GaussRational(Fraction(-7, 3), Fraction(1, 2))
    ha = HalfLaurent.t_power(-2)
    hb = HalfLaurent.t_power(-2) - HalfLaurent.t_power(2)
    fa = LaurentFrac(hb, HalfLaurent.t_power(2) + HalfLaurent.t_power(-2))
    fb = LaurentFrac(ha, HalfLaurent.one() + HalfLaurent.t_power(2))
    return {
        "scalars.gauss_mul_us": lambda: ga * gb,
        "scalars.halflaurent_mul_us": lambda: ha * hb,
        "scalars.laurentfrac_add_us": lambda: fa + fb,
        "scalars.laurentfrac_inverse_us": lambda: fa.inverse(),
        "scalars.radical_mul_us": lambda: a * b,
        "scalars.radical_add_us": lambda: a + b,
    }


def time_op(op) -> float:
    """Median over ``REPEATS`` repeats of the time of one call, in µs."""
    timer = timeit.Timer(op)
    once = timer.timeit(10) / 10
    number = max(1, int(REPEAT_S / max(once, 1e-9)))
    return statistics.median(timer.repeat(REPEATS, number)) / number * 1e6


def run() -> dict:
    return {name: time_op(op) for name, op in operations().items()}
