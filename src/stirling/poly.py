"""The exact polynomial value type and the triangle-driven constructions.

``basis_poly_first(m)`` threads the monomial x^m through both triangles,
first kind outside, second kind inside; the construction must come back out
as exactly x^m, coefficient for coefficient. ``residual_poly_first(m)`` is
the same double sum with the degree-m diagonal term split off, after which
everything cancels: the result must be the zero polynomial. The ``*_second``
variants swap the roles of the two kinds. All four read one row of the
matrix product outer·inner: coefficient k of the double sum is the product's
entry (m, k) for k >= 1. ``engine._product`` builds rows 0..m of the product,
each from the last, so one construction pays one pass that checks rows
0..m of both kinds against their recurrences, O(m^2) steps, even for a
single row.

``Poly`` is the value the constructions return: coefficients, equality,
evaluation and JSON output, with no arithmetic. Coefficients are stored as
``Fraction`` even though the constructions only ever produce integers: the
public constructor takes any rational coefficient, and evaluation at a
rational point is a ``Fraction`` either way. Floats are rejected outright.
The sweeps compare the same product rows as integers, before any conversion.
"""

from fractions import Fraction

from .engine import _SHARED, StirlingKind, _product
from .exact import check_index, check_limit, check_rational, format_rational

_FIRST = StirlingKind.FIRST_SIGNED
_SECOND = StirlingKind.SECOND


class Poly:
    """Polynomial in the power basis; coeffs[i] multiplies x^i.

    Canonical form: trailing zero coefficients are trimmed, and the zero
    polynomial stores no coefficients at all. That makes "is this the zero
    polynomial" (equivalently, identity in x) a structural equality test.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [check_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def monomial(cls, power: int) -> "Poly":
        return cls([0] * check_limit(power, "power") + [1])

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x^power (zero beyond the stored degree)."""
        if check_limit(power, "power") >= len(self._coeffs):
            return Fraction(0)
        return self._coeffs[power]

    def evaluate(self, x) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = check_rational(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        if not self._coeffs:
            return "Poly()"
        return f"Poly([{', '.join(format_rational(c) for c in self._coeffs)}])"

    def to_json_list(self) -> list:
        """Coefficients as "p/q" strings, lowest order first."""
        return [format_rational(c) for c in self._coeffs]


def poly_eval(p: Poly, x) -> Fraction:
    """Exact Horner evaluation of p at x."""
    return p.evaluate(x)


def linear_coefficient(p: Poly) -> Fraction:
    """Coefficient of x^1, which equals dp/dx at x = 0."""
    return p.coefficient(1)


def basis_poly_first(m: int, calc=None) -> Poly:
    """The double sum over j of s(m, j) times sum over k of S(j, k) x^k.

    Must equal the monomial x^m exactly.
    """
    return Poly(_build(m, calc, "m", _FIRST, _SECOND))


def basis_poly_second(j: int, calc=None) -> Poly:
    """Mirror of :func:`basis_poly_first` with the kinds swapped; must equal
    the monomial x^j exactly."""
    return Poly(_build(j, calc, "j", _SECOND, _FIRST))


def residual_poly_first(m: int, calc=None) -> Poly:
    """The basis construction with the degree-m diagonal term split off:

        sum_{j=1}^{m-1} s(m, j) sum_{k=1}^{j} S(j, k) x^k
          + s(m, m) sum_{k=1}^{m-1} S(m, k) x^k

    Everything cancels; the result must be the zero polynomial.
    """
    return Poly(_build(m, calc, "m", _FIRST, _SECOND)[:m])


def residual_poly_second(j: int, calc=None) -> Poly:
    """Mirror of :func:`residual_poly_first` with the kinds swapped; must be
    the zero polynomial."""
    return Poly(_build(j, calc, "j", _SECOND, _FIRST)[:j])


def _build(m: int, calc, name: str, outer, inner) -> list:
    calc = calc or _SHARED
    check_index(m, calc.index_cap, name)
    if m < 1:
        raise ValueError(f"{name} must be at least 1, got {m}")
    # coefficient 0 is zero whatever column 0 holds; the only degree-m term is
    # the diagonal's k = m one, so the residuals are the first m coefficients
    return [0, *_product(calc, outer, inner, m)[m][1:]]
