import math
from fractions import Fraction

import pytest
import sympy

from hadwiger import bounds, constructions, embeddings, minors
from hadwiger.bounds import BoundValue
from oracles import as_sympy


def floor(b: BoundValue) -> int:
    """The largest integer n <= b, found by exact comparisons alone."""
    lo, hi = -1, 1
    while not b >= lo:
        lo *= 2
    while b >= hi:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if b >= mid else (lo, mid)
    return lo


def test_surface_bound_values():
    assert float(bounds.surface_bound(0)) == 4.0
    b = bounds.surface_bound(2)
    assert as_sympy(b) == sympy.sqrt(12) + 4
    assert floor(b) == 7


def test_surface_bound_holds_for_k7():
    emb = embeddings.triangulation_catalog(7)
    g = embeddings.euler_genus(emb)
    eta = minors.hadwiger_model(emb.simple)[0]
    assert eta == 7
    assert bounds.surface_bound(g) >= eta


def test_lemma21_bound():
    assert bounds.lemma21_bound(2, 3) == 7
    assert bounds.lemma21_bound(1, 0) == 0


def test_full_upper_example():
    assert float(bounds.full_upper(0, 1, 2, 0)) == 149.0
    assert floor(bounds.full_upper(0, 1, 2, 0)) == 149


def test_full_upper_is_apex_plus_main():
    for g, p, k, a in [(0, 1, 2, 0), (2, 4, 3, 2), (1, 2, 4, 1)]:
        assert as_sympy(bounds.full_upper(g, p, k, a)) == a + as_sympy(bounds.main_upper(g, p, k))


def test_main_tool_bound():
    assert as_sympy(bounds.main_tool_bound(2, 1, 0)) == 96
    assert as_sympy(bounds.main_tool_bound(1, 1, 3)) == 96


def test_lower_guarantee_example():
    b = bounds.lower_guarantee(1, 1, 2, 3)
    assert as_sympy(b) == 3 + sympy.Rational(1, 2) * sympy.sqrt(2)


def test_bound_comparisons_are_exact():
    # sqrt(6) < 2.4495 but floats this close must not flip the comparison
    b = BoundValue.of(0, (6, 1))
    assert not b >= Fraction(24495, 10000)
    assert not b <= Fraction(24494, 10000)
    assert not b <= 2
    assert b <= 3


def test_bound_comparison_never_evaluates_strings(tmp_path):
    marker = tmp_path / "evaluated"
    with pytest.raises(TypeError):
        bounds.lower_guarantee(1, 1, 2, 0) <= "__import__('os')"
    with pytest.raises(TypeError):
        bounds.lower_guarantee(1, 1, 2, 0) <= f"__import__('os').mkdir({str(marker)!r})"
    assert not marker.exists()


@pytest.mark.parametrize("other", ["3", 2.5, True, sympy.Symbol("x")])
def test_bound_comparison_rejects_non_numbers(other):
    with pytest.raises(TypeError):
        bounds.lower_guarantee(1, 1, 2, 0) <= other


def test_upper_bounds_monotone():
    values = [
        as_sympy(bounds.full_upper(g, p, k, a))
        for g, p, k, a in [(0, 1, 2, 0), (1, 1, 2, 0), (1, 2, 2, 0), (1, 2, 3, 0), (1, 2, 3, 1)]
    ]
    assert all(bool(x <= y) for x, y in zip(values, values[1:]))


def test_rejects_negative_input():
    with pytest.raises(ValueError):
        bounds.surface_bound(-1)
    with pytest.raises(ValueError):
        bounds.lower_guarantee(0, 1, -2, 0)


def test_sandwich_check_small_instance():
    # the sandwich checks the upper side only; the guarantee is checked once,
    # by verify_certificate
    cert = constructions.with_apex(0, 1, 2, 0)
    rep = bounds.sandwich_check(cert)
    assert rep.ok
    assert [c.name for c in rep.checks] == ["certificate-below-upper"]
    assert "target-meets-guarantee" in {c.name for c in constructions.verify_certificate(cert).checks}


def test_sandwich_check_large_instance_skips_oracle():
    cert = constructions.with_apex(2, 1, 2, 0)
    rep = bounds.sandwich_check(cert)
    assert rep.ok
    assert any(c.name == "certificate-below-upper" for c in rep.checks)


# Points where sympy's float() is not the correctly rounded double: its
# working precisions round twice, and certificates record its value.
DOUBLE_ROUNDING = [(0, 7, 7, 0), (0, 2, 7, 2), (0, 17, 1, 1), (0, 19, 4, 0), (0, 38, 4, 0)]


def _shown(x):
    return str(x), f"{float(x):.4f}"


def test_bounds_match_sympy():
    # every bound depends on g and p only through g + p and g.  Large
    # radicands: a square factor past the trial primes, 10**40 + 7, and the
    # prime 2**61 - 1.
    large = [(0, (2**31 - 1) ** 2 * 3, 4, 0), (0, 10**40 + 7, 2, 1), (5, 2**61 - 6, 1, 0)]
    lower_points = DOUBLE_ROUNDING + large + [
        (0, s, k, a) for s in range(41) for k in range(13) for a in range(4)
    ]
    for g, p, k, a in lower_points:
        b = bounds.lower_guarantee(g, p, k, a)
        e = a + sympy.Rational(k, 4) * sympy.sqrt(p + g)
        assert (str(b), float(b)) == (str(e), float(e)), (g, p, k, a)
        f = floor(b)
        assert f == (4 * a + math.isqrt(k * k * (p + g))) // 4, (g, p, k, a)
        exact = e == f
        assert [not b >= f, b <= f, b >= f, not b <= f] == [False, exact, True, not exact]
        assert [b <= f - 1, not b <= f - 1, not b >= f + 1, b >= f + 1] == [False, True, True, False]
    assert float(bounds.lower_guarantee(0, 7, 7, 0)) == 4.630064794363033

    for s in range(41):
        for g in sorted({0, 1, 6, s // 2, s} & set(range(s + 1))):
            p = s - g
            assert _shown(bounds.surface_bound(g)) == _shown(sympy.sqrt(6 * g) + 4)
            for k in (0, 1, 3, 12):
                upper = 48 * (k + 1) * sympy.sqrt(s) + sympy.sqrt(6 * g) + 5
                assert _shown(bounds.main_upper(g, p, k)) == _shown(upper), (g, p, k)
                for a in (0, 3):
                    assert _shown(bounds.full_upper(g, p, k, a)) == _shown(a + upper), (g, p, k, a)
                tool = 48 * k * sympy.sqrt(s)
                assert _shown(bounds.main_tool_bound(k, p, g)) == _shown(tool), (g, p, k)
