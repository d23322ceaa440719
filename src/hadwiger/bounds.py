"""Exact evaluators for the two-sided Hadwiger-number bounds.

Every bound is a rational plus rational multiples of square roots, kept
exactly with `Fraction` coefficients and square-free radicands.  Comparisons
against numbers decide the exact sign with integer square roots and never go
through floats, so acceptance checks cannot be flaky at the boundary.  The
printed form, and the float of a value with at most one surd, are those
sympy gives for the same expression.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .report import Report

# sympy's float() evaluates at 53 + 4 bits and rounds that to a double
_PREC = 57


@dataclass(frozen=True)
class BoundValue:
    """The exact value const + sum(q * sqrt(r) for r, q in terms).  Each r is
    an integer > 1, square-free unless a factor past `_split_square`'s trial
    primes is squared in it; the r increase and no q is 0, so two equal
    values have equal fields."""

    const: Fraction
    terms: tuple[tuple[int, Fraction], ...] = ()

    @classmethod
    def of(cls, const, *terms) -> BoundValue:
        """const + sum(q * sqrt(n) for n, q in terms), for integers n >= 0
        and rational q: square factors of each n are taken out, and terms
        with the same square-free part are merged."""
        total = Fraction(const)
        merged: dict[int, Fraction] = {}
        for n, q in terms:
            s, r = _split_square(n)
            if r == 1:
                total += q * s
            else:
                merged[r] = merged.get(r, 0) + q * s
        return cls(total, tuple((r, Fraction(q)) for r, q in sorted(merged.items()) if q))

    def _bracket(self, bits: int) -> tuple[int, int, int]:
        """Integers lo, hi, d with lo <= self * d * 2**bits <= hi."""
        d = math.lcm(self.const.denominator, *(q.denominator for _, q in self.terms))
        lo = hi = self.const.numerator * (d // self.const.denominator) << bits
        for r, q in self.terms:
            n = q.numerator * (d // q.denominator)
            square = n * n * r << 2 * bits
            root = math.isqrt(square)
            up = root + (root * root < square)
            if n > 0:
                lo, hi = lo + root, hi + up
            else:
                lo, hi = lo - up, hi - root
        return lo, hi, d

    def _sign(self) -> int:
        # square roots of distinct square-free integers > 1 are linearly
        # independent over the rationals, so the value is 0 only when every
        # field is; otherwise a fine enough bracket excludes 0.  Surds that
        # all have positive coefficients, as in every bound here, sum to an
        # irrational number even when two radicands differ by a square.
        if not self.terms:
            return (self.const > 0) - (self.const < 0)
        bits = 64
        while True:
            lo, hi, _ = self._bracket(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def _compare(self, other) -> int:
        """The sign of self - other."""
        other = _coerce(other)
        terms = dict(self.terms)
        for r, q in other.terms:
            terms[r] = terms.get(r, 0) - q
        return BoundValue(
            self.const - other.const, tuple((r, q) for r, q in terms.items() if q)
        )._sign()

    def __le__(self, other):
        return self._compare(other) <= 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    def __float__(self) -> float:
        if not self.terms:
            x = self.const
        elif len(self.terms) == 1:
            x = _sympy_rounded(self.const, *self.terms[0])
        else:
            lo, _, d = self._bracket(64)
            x = Fraction(lo, d << 64)
        try:
            return float(x)
        except OverflowError:  # past the largest double, as sympy's float()
            return math.inf if x > 0 else -math.inf

    def __str__(self):
        """sympy's form: the nonzero terms in increasing order, joined by
        " + "; 0 when there are none."""
        parts = [(c * abs(c), str(c)) for c in [self.const] if c]
        parts += [(q * abs(q) * r, _surd_str(r, q)) for r, q in self.terms]
        return " + ".join(text for _, text in sorted(parts)) or "0"

    def display(self) -> str:
        """The exact form followed by the float to four places."""
        return f"{self} ({float(self):.4f})"


def _split_square(n: int) -> tuple[int, int]:
    """(s, r) with n == s * s * r, r square-free when n < 2**45, and
    (0, 1) for n = 0.  Like sympy's sqrt, it tries primes only up to 2**15,
    and then takes out the rest if it is a square, so a hostile certificate
    with huge params costs bounded time; a larger r may keep a square
    factor, but is never a square above 1."""
    if n == 0:
        return 0, 1
    s = r = 1
    f = 2
    # once every prime below f is divided out, a rest m < f**3 has at most
    # two prime factors, so it is square-free unless it is a square
    while f <= 1 << 15 and f * f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
            s *= f
        if n % f == 0:
            n //= f
            r *= f
        f += 1
    root = math.isqrt(n)
    if root * root == n:
        return s * root, r
    return s, r * n


def _coerce(x) -> BoundValue:
    """The exact value of an int, a Fraction or a BoundValue.  Anything else
    is a TypeError: nothing is ever parsed or evaluated."""
    if isinstance(x, BoundValue):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return BoundValue(Fraction(x))
    raise TypeError(f"cannot compare a bound with {type(x).__name__}")


def _surd_str(r: int, q: Fraction) -> str:
    text = f"sqrt({r})" if q.numerator == 1 else f"{q.numerator}*sqrt({r})"
    return text if q.denominator == 1 else f"{text}/{q.denominator}"


def _sqrt_down(r: int, bits: int) -> Fraction:
    """sqrt(r) rounded down to `bits` significant bits."""
    s = bits - math.isqrt(r).bit_length()
    if s >= 0:
        return Fraction(math.isqrt(r << 2 * s), 1 << s)
    return Fraction(math.isqrt(r >> -2 * s) << -s)


def _nearest(x: Fraction, bits: int) -> Fraction:
    """x rounded to `bits` significant bits, ties to even."""
    if not x:
        return x
    s = bits - 1 - (abs(x.numerator).bit_length() - x.denominator.bit_length())
    y = abs(x) * Fraction(2) ** s
    if y < 1 << (bits - 1):
        y, s = 2 * y, s + 1
    y = round(y) / Fraction(2) ** s
    return y if x > 0 else -y


def _sympy_rounded(a: Fraction, r: int, q: Fraction) -> Fraction:
    """a + q*sqrt(r) as sympy's float() computes it before it takes the
    nearest double: the square root rounded down and the product and sum
    rounded to nearest at its working precisions.  The double is then not
    always the correctly rounded one, and certificates record sympy's."""
    bits = _PREC if a == 0 else _PREC + 10
    if q == 1:
        t = _sqrt_down(r, bits)
    else:
        t = _nearest(_sqrt_down(r, bits + 7) * _nearest(q, bits + 7), bits)
    return t if a == 0 else _nearest(a + t, _PREC)


def _check_nonneg(**params):
    for name, value in params.items():
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def surface_bound(g: int) -> BoundValue:
    """Upper bound on the Hadwiger number of graphs embeddable in Euler
    genus g: sqrt(6g) + 4."""
    _check_nonneg(g=g)
    return BoundValue.of(4, (6 * g, 1))


def lemma21_bound(k: int, tw: int) -> int:
    """Minimum-degree bound for minors of a blowup: k*tw + k - 1."""
    _check_nonneg(k=k, tw=tw)
    return k * tw + k - 1


def main_upper(g: int, p: int, k: int) -> BoundValue:
    """Upper bound for almost-embeddable graphs:
    48(k+1)sqrt(g+p) + sqrt(6g) + 5."""
    return full_upper(g, p, k, 0)


def full_upper(g: int, p: int, k: int, a: int) -> BoundValue:
    """Upper bound with apexes: a + main_upper(g, p, k)."""
    _check_nonneg(g=g, p=p, k=k, a=a)
    return BoundValue.of(a + 5, (g + p, 48 * (k + 1)), (6 * g, 1))


def main_tool_bound(k: int, c: int, g: int) -> BoundValue:
    """Bound on blowup minors over a surface with c attachment cycles:
    48k*sqrt(c+g)."""
    _check_nonneg(k=k, c=c, g=g)
    return BoundValue.of(0, (c + g, 48 * k))


def lower_guarantee(g: int, p: int, k: int, a: int) -> BoundValue:
    """Guaranteed complete-minor order from the constructions:
    a + k*sqrt(p+g)/4."""
    _check_nonneg(g=g, p=p, k=k, a=a)
    return BoundValue.of(a, (p + g, Fraction(k, 4)))


def sandwich_check(cert) -> Report:
    """The upper side of a construction certificate's sandwich: the
    certified order stays below the upper bound of its declared class.  The
    lower side, the guarantee met, is `verify_certificate`'s
    `target-meets-guarantee`."""
    rep = Report()
    upper = full_upper(*cert.structure.params)
    rep.add("certificate-below-upper", upper >= cert.target, (cert.target, upper.display()))
    return rep
