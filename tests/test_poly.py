"""Polynomial tests: canonical form, exact evaluation, the triangle-driven
monomial and residual constructions, and the JSON output."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies

from stirling.poly import (
    Poly,
    basis_poly_first,
    basis_poly_second,
    linear_coefficient,
    poly_eval,
    residual_poly_first,
    residual_poly_second,
)

rationals = strategies.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_trailing_zeros_are_trimmed():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0, 0]).coeffs == ()
    assert Poly([]).is_zero()
    assert Poly([0]) == Poly()


def test_degree_convention():
    # the degree is len(coeffs) - 1, since coeffs carry no trailing zeros
    assert len(Poly().coeffs) - 1 == -1
    assert len(Poly([5]).coeffs) - 1 == 0
    assert len(Poly([0, 1, 7, 0, 0]).coeffs) - 1 == 2
    assert Poly([3, 0, 2]).coeffs[-1] == 2


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Poly([0.5])
    with pytest.raises(TypeError):
        Poly([1]).evaluate(0.25)


def test_value_protocol():
    p = Poly([Fraction(1, 2), 0, -3])
    assert repr(p) == "Poly([1/2, 0, -3])"
    assert repr(Poly()) == "Poly()"
    assert p and not Poly()
    assert hash(p) == hash(Poly([Fraction(2, 4), 0, -3, 0]))
    assert p.__eq__([Fraction(1, 2), 0, -3]) is NotImplemented
    assert p != [Fraction(1, 2), 0, -3]
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(p, 1)


def test_eval_examples():
    assert poly_eval(Poly(), Fraction(9, 2)) == 0
    assert poly_eval(Poly([0, 1]), Fraction(3, 7)) == Fraction(3, 7)
    cubic = Poly([0, 2, -3, 1])  # x (x-1) (x-2)
    assert poly_eval(cubic, 5) == 60
    assert poly_eval(cubic, Fraction(1, 2)) == Fraction(3, 8)


@given(strategies.lists(rationals, max_size=8), rationals)
def test_horner_matches_power_sum(coeffs, x):
    p = Poly(coeffs)
    direct = sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))
    assert p.evaluate(x) == direct


def test_monomial():
    assert Poly.monomial(0) == Poly([1])
    assert Poly.monomial(3).coeffs == (0, 0, 0, 1)
    with pytest.raises(ValueError, match="power must be non-negative, got -1"):
        Poly.monomial(-1)
    for inexact in (True, 2.0, 2.5):
        with pytest.raises(TypeError, match="power must be an int"):
            Poly.monomial(inexact)
        with pytest.raises(TypeError, match="power must be an int"):
            Poly([1]).coefficient(inexact)


def test_linear_coefficient_examples():
    assert linear_coefficient(Poly()) == 0
    assert linear_coefficient(Poly.monomial(3)) == 0
    assert linear_coefficient(Poly([0, 5, 7])) == 5


def test_basis_poly_small_orders():
    assert basis_poly_first(1) == Poly([0, 1])
    assert basis_poly_first(3) == Poly.monomial(3)
    assert basis_poly_first(10) == Poly.monomial(10)
    assert basis_poly_second(1) == Poly([0, 1])
    assert basis_poly_second(3) == Poly.monomial(3)
    assert basis_poly_second(12) == Poly.monomial(12)


def test_basis_poly_reconstructs_monomials_coefficientwise():
    for m in range(1, 41):
        assert basis_poly_first(m) == Poly.monomial(m)
        assert basis_poly_second(m) == Poly.monomial(m)


def test_residual_polys_vanish():
    for m in range(1, 41):
        assert residual_poly_first(m).is_zero()
        assert residual_poly_second(m).is_zero()


def test_basis_minus_monomial_equals_residual():
    # the two constructions differ only by the diagonal term, which is x^m
    for m in range(1, 41):
        for basis, residual in ((basis_poly_first, residual_poly_first),
                                (basis_poly_second, residual_poly_second)):
            built = basis(m)
            assert Poly(built.coeffs[:m]) == residual(m)
            assert built.coefficient(m) == 1


def test_basis_poly_point_checks():
    points = [Fraction(1), Fraction(-2), Fraction(3, 7)]
    for m in range(1, 26):
        built = basis_poly_first(m)
        for x in points:
            power = Fraction(1)
            for _ in range(m):
                power *= x
            assert poly_eval(built, x) == power


def test_builder_domain_and_cap_errors():
    from stirling.engine import StirlingCalculator
    from stirling.exact import IndexLimitError

    for builder, name in ((basis_poly_first, "m"), (basis_poly_second, "j"),
                          (residual_poly_first, "m"), (residual_poly_second, "j")):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got bool$"):
            builder(True)
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
            builder(-1)
        with pytest.raises(IndexLimitError, match=f"^{name}=51 exceeds the index cap of 50$"):
            builder(51, StirlingCalculator(index_cap=50))
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
            builder(0)


def test_json_codec():
    assert Poly([Fraction(1, 2), 0, -3]).to_json_list() == ["1/2", "0", "-3"]
    assert Poly().to_json_list() == []
