"""Exact comparisons of rationals against powers with rational exponents.

Probabilities reach these comparisons as integer ratios: ``cmp_pow2_ratio``
takes a weight and a total as they are (not reduced), and ``cmp_pow2`` is the
same test on a ``fractions.Fraction``.  Every threshold is of the form
``2**(-q)`` (or more generally a product of integer bases raised to rational
exponents).  Those thresholds are irrational in general and are never
materialized; instead comparisons are decided exactly:

* integer exponents and small exponent denominators: clear the root by
  raising both sides, on integers (``num/den <= 2**(-a/d)  <=>
  num**d * 2**a <= den**d``, both sides nonnegative);
* huge dyadic denominators (e.g. density witnesses with 2**-12 resolution):
  certified interval arithmetic on log2, with the cleared-power comparison as
  a last-resort exact fallback.  ``2**q`` is rational only for integer ``q``,
  so for non-integer exponents the interval refinement always terminates.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Tuple

__all__ = [
    "sign",
    "is_power_of_two",
    "exact_log2",
    "log2_bounds",
    "cmp_pow2",
    "cmp_pow2_ratio",
    "cmp_products",
    "frac_str",
    "frac_decimal",
    "parse_frac",
]

# Clear roots directly up to this exponent denominator; beyond it, go through
# the interval path first.
_DIRECT_DENOM_LIMIT = 64

# Interval refinement schedule (fractional bits of log2 precision).
_BITS_SCHEDULE = (32, 96, 256, 768)


def sign(x) -> int:
    return (x > 0) - (x < 0)


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def exact_log2(x: Fraction):
    """log2(x) as a Fraction if x is an integer power of two, else None."""
    if x <= 0:
        raise ValueError("log of a non-positive value")
    num, den = x.numerator, x.denominator
    if is_power_of_two(num) and is_power_of_two(den):
        return Fraction(num.bit_length() - den.bit_length())
    return None


def _floor_log2(x: Fraction) -> int:
    a, b = x.numerator, x.denominator
    e = a.bit_length() - b.bit_length()
    # 2^(e-1) < a/b < 2^(e+1), so the floor is e - 1 exactly when a/b < 2^e
    return e - (a << max(-e, 0) < b << max(e, 0))


def log2_bounds(x: Fraction, frac_bits: int) -> Tuple[Fraction, Fraction]:
    """Certified dyadic bounds lo <= log2(x) <= hi with width about 2**-frac_bits.

    Uses the classic square-and-extract-bit algorithm twice, once with all
    roundings directed down and once directed up, so each bound is certified
    by construction (no uncertified floating point anywhere).
    """
    if x <= 0:
        raise ValueError("log of a non-positive value")
    ex = exact_log2(x)
    if ex is not None:
        return ex, ex
    e = _floor_log2(x)
    prec = frac_bits + 40
    one = 1 << prec
    # mantissa m = x / 2^e in [1, 2), scaled by 2^prec
    a, b = x.numerator, x.denominator
    shift = prec - e
    if shift >= 0:
        num, den = a << shift, b
    else:
        num, den = a, b << -shift
    m_lo = num // den
    m_hi = m_lo if num % den == 0 else m_lo + 1

    def run(m: int, ceil: bool) -> int:
        acc = 0
        for _ in range(frac_bits):
            m = m * m
            m = -((-m) >> prec) if ceil else m >> prec
            acc <<= 1
            if m >= 2 * one:
                acc |= 1
                m = -((-m) >> 1) if ceil else m >> 1
        return acc

    acc_lo = run(m_lo, ceil=False)
    acc_hi = run(m_hi, ceil=True)
    scale = 1 << frac_bits
    # 1-ulp safety margins cover the bounded residual mantissa drift.
    lo = e + Fraction(acc_lo - 1, scale)
    hi = e + Fraction(acc_hi + 2, scale)
    return lo, hi


def _rational(v):
    """ints and Fractions as they are; other exact inputs (e.g. str) as a Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def cmp_pow2(p: Fraction, q: Fraction) -> int:
    """Sign of p - 2**(-q), exactly, for p >= 0 and rational q.

    ints and Fractions are used as they are; other exact inputs (e.g. str)
    go through ``Fraction`` first.
    """
    p = _rational(p)
    return cmp_pow2_ratio(p.numerator, p.denominator, q)


def cmp_pow2_ratio(num: int, den: int, q: Fraction) -> int:
    """Sign of num/den - 2**(-q), exactly, for ints num >= 0 and den > 0 that
    need not be in lowest terms, and rational q (taken as in cmp_pow2).

    Decided on integers; past _DIRECT_DENOM_LIMIT it is cmp_products'
    interval path, num/den * 2**q against 1.
    """
    if num < 0 or den <= 0:
        raise ValueError("cmp_pow2 expects a nonnegative left-hand side")
    if num == 0:
        return -1
    q = _rational(q)
    if q.denominator <= _DIRECT_DENOM_LIMIT:
        return _cmp_pow2_cleared(num, den, q)
    return cmp_products(Fraction(num, den), ((2, q),), 1)


def _cmp_pow2_cleared(num: int, den: int, q: Fraction) -> int:
    # num/den vs 2^(-a/d)  <=>  num^d * 2^a vs den^d, monotone since both
    # sides are >= 0
    a, d = q.numerator, q.denominator
    if d != 1:
        num, den = num ** d, den ** d
    return sign((num << a) - den) if a >= 0 else sign(num - (den << -a))


def cmp_products(
    a: Fraction,
    a_pows: Iterable[Tuple[int, Fraction]],
    b: Fraction,
    b_pows: Iterable[Tuple[int, Fraction]] = (),
) -> int:
    """Sign of a*prod(base**exp) - b*prod(base**exp), all exact.

    Coefficients must be nonnegative rationals; bases positive integers;
    exponents rationals (all taken as in cmp_pow2).  Used for every
    inequality whose cleared form mixes powers of 2 with powers of n.
    """
    a, b = _rational(a), _rational(b)
    a_pows = [(int(base), _rational(exp)) for base, exp in a_pows]
    b_pows = [(int(base), _rational(exp)) for base, exp in b_pows]
    if a < 0 or b < 0:
        raise ValueError("cmp_products expects nonnegative coefficients")
    for base, _ in a_pows + b_pows:
        if base <= 0:
            raise ValueError("bases must be positive integers")
    if a == 0 and b == 0:
        return 0
    if a == 0:
        return -1
    if b == 0:
        return 1
    # single side: ratio num/den = a/b, compare log2(ratio) + sum(e*log2(base)) vs 0
    terms = [(base, exp) for base, exp in a_pows if base != 1 and exp != 0]
    terms += [(base, -exp) for base, exp in b_pows if base != 1 and exp != 0]
    num, den = a.numerator * b.denominator, a.denominator * b.numerator
    denoms = [exp.denominator for _, exp in terms]
    d = lcm(*denoms) if denoms else 1
    if d <= _DIRECT_DENOM_LIMIT:
        return _cmp_products_cleared(num, den, terms, d)
    ratio = Fraction(num, den)
    for bits in _BITS_SCHEDULE:
        lo, hi = log2_bounds(ratio, bits)
        for base, exp in terms:
            blo, bhi = log2_bounds(Fraction(base), bits)
            if exp >= 0:
                lo, hi = lo + exp * blo, hi + exp * bhi
            else:
                lo, hi = lo + exp * bhi, hi + exp * blo
        if hi < 0:
            return -1
        if lo > 0:
            return 1
    return _cmp_products_cleared(num, den, terms, d)


def _cmp_products_cleared(num: int, den: int, terms, d: int) -> int:
    # (num/den) * prod(base^(k/d)) vs 1  <=>  num^d * prod(base^k, k >= 0)
    # vs den^d * prod(base^-k, k < 0), on integers
    lhs, rhs = num ** d, den ** d
    for base, exp in terms:
        k = exp.numerator * (d // exp.denominator)
        if k >= 0:
            lhs *= base ** k
        else:
            rhs *= base ** -k
    return sign(lhs - rhs)


# -- rendering / parsing ----------------------------------------------------

def frac_str(x: Fraction) -> str:
    x = _rational(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_decimal(x: Fraction) -> str:
    """Approximate decimal rendering with 12 significant digits.

    Deterministic (pure integer arithmetic); always labeled approximate by
    callers that print it.
    """
    digits, x = 12, Fraction(x)
    if x == 0:
        return "0"
    neg = x < 0
    if neg:
        x = -x
    e = 0
    while x >= 10:
        x /= 10
        e += 1
    while x < 1:
        x *= 10
        e -= 1
    scaled = x * 10 ** (digits - 1)
    mant = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        mant += 1
    if mant >= 10 ** digits:  # rounding carried over
        mant //= 10
        e += 1
    s = str(mant)
    if -7 < e < digits:  # positional rendering
        if e >= 0:
            head, tail = s[: e + 1], s[e + 1:].rstrip("0")
            text = head + ("." + tail if tail else "")
        else:
            text = "0." + "0" * (-e - 1) + s.rstrip("0")
    else:
        tail = s[1:].rstrip("0")
        text = s[0] + ("." + tail if tail else "") + f"e{e}"
    return ("-" if neg else "") + text


def parse_frac(text: str) -> Fraction:
    return Fraction(str(text).strip())
