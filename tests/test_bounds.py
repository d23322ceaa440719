import pytest
import sympy

from hadwiger import bounds, constructions, embeddings, minors
from hadwiger.bounds import BoundValue


def test_surface_bound_values():
    assert float(bounds.surface_bound(0)) == 4.0
    b = bounds.surface_bound(2)
    assert b.expr == sympy.sqrt(12) + 4
    assert b.floor == 7


def test_surface_bound_holds_for_k7():
    emb = embeddings.triangulation_catalog(7)
    g = embeddings.euler_genus(emb)
    eta = minors.hadwiger_oracle(embeddings.underlying_simple(emb))
    assert eta == 7
    assert bounds.surface_bound(g) >= eta


def test_lemma21_bound():
    assert bounds.lemma21_bound(2, 3) == 7
    assert bounds.lemma21_bound(1, 0) == 0


def test_full_upper_example():
    assert float(bounds.full_upper(0, 1, 2, 0)) == 149.0
    assert bounds.full_upper(0, 1, 2, 0).floor == 149


def test_full_upper_is_apex_plus_main():
    for g, p, k, a in [(0, 1, 2, 0), (2, 4, 3, 2), (1, 2, 4, 1)]:
        assert bounds.full_upper(g, p, k, a).expr == a + bounds.main_upper(g, p, k).expr


def test_main_tool_bound():
    assert bounds.main_tool_bound(2, 1, 0).expr == 96
    assert bounds.main_tool_bound(1, 1, 3).expr == 96


def test_lower_guarantee_example():
    b = bounds.lower_guarantee(1, 1, 2, 3)
    assert b.expr == 3 + sympy.Rational(1, 2) * sympy.sqrt(2)


def test_bound_comparisons_are_exact():
    # sqrt(6) < 2.4495 but floats this close must not flip the comparison
    b = BoundValue(sympy.sqrt(6))
    assert b < sympy.Rational(24495, 10000)
    assert b > sympy.Rational(24494, 10000)
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
        bounds.full_upper(g, p, k, a).expr
        for g, p, k, a in [(0, 1, 2, 0), (1, 1, 2, 0), (1, 2, 2, 0), (1, 2, 3, 0), (1, 2, 3, 1)]
    ]
    assert all(bool(x <= y) for x, y in zip(values, values[1:]))


def test_rejects_negative_input():
    with pytest.raises(ValueError):
        bounds.surface_bound(-1)
    with pytest.raises(ValueError):
        bounds.lower_guarantee(0, 1, -2, 0)


def test_sandwich_check_small_instance():
    cert = constructions.combined(0, 1, 2)
    rep = bounds.sandwich_check(cert, 0, 1, 2, 0)
    assert rep.ok
    names = {c.name for c in rep.checks}
    assert "lower-guarantee-met" in names


def test_sandwich_check_large_instance_skips_oracle():
    cert = constructions.combined(2, 1, 2)
    rep = bounds.sandwich_check(cert, 2, 1, 2, 0)
    assert rep.ok
    assert any(c.name == "certificate-below-upper" for c in rep.checks)
