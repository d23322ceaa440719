"""Exact evaluators for the two-sided Hadwiger-number bounds.

Every bound is kept as an exact symbolic expression (rationals and square
roots); comparisons against integers never go through floats, so acceptance
checks cannot be flaky at the boundary.  Only code that builds or compares a
bound imports sympy, so `hadwiger eta` or a rejected `verify` never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .report import Report

if TYPE_CHECKING:
    import sympy


@dataclass(frozen=True)
class BoundValue:
    """An exact bound of the shape a + b*sqrt(c); compares exactly."""

    expr: sympy.Expr

    def __float__(self) -> float:
        return float(self.expr)

    @property
    def floor(self) -> int:
        import sympy
        return int(sympy.floor(self.expr))

    def __le__(self, other):
        return bool(self.expr <= _coerce(other))

    def __ge__(self, other):
        return bool(self.expr >= _coerce(other))

    def __lt__(self, other):
        return bool(self.expr < _coerce(other))

    def __gt__(self, other):
        return bool(self.expr > _coerce(other))

    def __str__(self):
        return f"{self.expr} ({float(self):.4f})"


def _coerce(x) -> sympy.Expr:
    """The exact value of an int, a sympy number or a BoundValue.  Anything
    else is a TypeError: nothing is ever parsed or sympified."""
    import sympy
    if isinstance(x, BoundValue):
        return x.expr
    if isinstance(x, int) and not isinstance(x, bool):
        return sympy.Integer(x)
    if isinstance(x, sympy.Expr) and x.is_number:
        return x
    raise TypeError(f"cannot compare a bound with {type(x).__name__}")


def _check_nonneg(**params):
    for name, value in params.items():
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def surface_bound(g: int) -> BoundValue:
    """Upper bound on the Hadwiger number of graphs embeddable in Euler
    genus g: sqrt(6g) + 4."""
    _check_nonneg(g=g)
    import sympy
    return BoundValue(sympy.sqrt(6 * g) + 4)


def lemma21_bound(k: int, tw: int) -> int:
    """Minimum-degree bound for minors of a blowup: k*tw + k - 1."""
    _check_nonneg(k=k, tw=tw)
    return k * tw + k - 1


def main_upper(g: int, p: int, k: int) -> BoundValue:
    """Upper bound for almost-embeddable graphs:
    48(k+1)sqrt(g+p) + sqrt(6g) + 5."""
    _check_nonneg(g=g, p=p, k=k)
    import sympy
    return BoundValue(
        48 * (k + 1) * sympy.sqrt(g + p) + sympy.sqrt(6 * g) + 5
    )


def full_upper(g: int, p: int, k: int, a: int) -> BoundValue:
    """Upper bound with apexes: a + main_upper(g, p, k)."""
    _check_nonneg(a=a)
    return BoundValue(a + main_upper(g, p, k).expr)


def main_tool_bound(k: int, c: int, g: int) -> BoundValue:
    """Bound on blowup minors over a surface with c attachment cycles:
    48k*sqrt(c+g)."""
    _check_nonneg(k=k, c=c, g=g)
    import sympy
    return BoundValue(48 * k * sympy.sqrt(c + g))


def lower_guarantee(g: int, p: int, k: int, a: int) -> BoundValue:
    """Guaranteed complete-minor order from the constructions:
    a + k*sqrt(p+g)/4."""
    _check_nonneg(g=g, p=p, k=k, a=a)
    import sympy
    return BoundValue(a + sympy.Rational(1, 4) * k * sympy.sqrt(p + g))


def sandwich_check(cert, g: int, p: int, k: int, a: int) -> Report:
    """Two-sided check of a construction certificate: the guaranteed lower
    bound is met, and the certified order stays below the upper bound."""
    rep = Report()
    lower = lower_guarantee(g, p, k, a)
    upper = full_upper(g, p, k, a)
    rep.add(
        "lower-guarantee-met",
        lower <= cert.target,
        (str(lower), cert.target),
    )
    rep.add("certificate-below-upper", upper >= cert.target, (cert.target, str(upper)))
    return rep
