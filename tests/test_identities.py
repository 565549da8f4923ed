"""Identity suite tests: frozen example values for every checker, sweep
reports, exhaustive counterexample collection, and mutation sensitivity
(the test of the tests)."""

import json
import pickle
import random
from fractions import Fraction
from functools import partial
from math import comb
from operator import methodcaller

import pytest

import stirling.engine as engine
import stirling.identities as identities
from stirling.engine import PerturbedCalculator, StirlingCalculator, StirlingKind
from stirling.exact import IndexLimitError, dump_json
from stirling.identities import (
    Counterexample,
    IdentityId,
    IdentityReport,
    check_deriv_relation_first,
    check_deriv_relation_second,
    check_orthogonality,
    check_row_relation_first,
    check_row_relation_second,
    check_unit_sum_first,
    check_unit_sum_second,
    run_all,
    run_identity,
)
from stirling.poly import (
    Poly,
    basis_poly_first,
    basis_poly_second,
    linear_coefficient,
    residual_poly_first,
    residual_poly_second,
)

FIRST = StirlingKind.FIRST_SIGNED
SECOND = StirlingKind.SECOND


def test_orthogonality_examples():
    assert check_orthogonality(3, 3) == (1, 1)
    assert check_orthogonality(2, 5) == (0, 0)
    assert check_orthogonality(0, 0) == (1, 1)
    assert check_orthogonality(3, 3, mirrored=True) == (1, 1)
    assert check_orthogonality(5, 2, mirrored=True) == (0, 0)


def test_orthogonality_grid():
    for j in range(21):
        for k in range(21):
            expected = 1 if j == k else 0
            assert check_orthogonality(j, k) == (expected, expected)
            assert check_orthogonality(j, k, mirrored=True) == (expected, expected)


def test_unit_sum_examples():
    assert check_unit_sum_first(1) == 1
    assert check_unit_sum_first(3) == 1
    assert check_unit_sum_first(60) == 1
    assert check_unit_sum_second(1) == 1
    assert check_unit_sum_second(3) == 1
    assert check_unit_sum_second(60) == 1
    with pytest.raises(ValueError):
        check_unit_sum_first(0)


def test_row_relation_examples():
    assert check_row_relation_first(3) == (4, 4)
    assert check_row_relation_first(2) == (1, 1)
    assert check_row_relation_second(3) == (-1, -1)
    assert check_row_relation_second(2) == (-1, -1)
    lhs, rhs = check_row_relation_first(40)
    assert lhs == rhs
    lhs, rhs = check_row_relation_second(40)
    assert lhs == rhs


def test_deriv_relation_examples():
    assert check_deriv_relation_second(3) == (1, 1)
    assert check_deriv_relation_second(2) == (1, 1)
    assert check_deriv_relation_first(3) == (2, 2)
    assert check_deriv_relation_first(2) == (-1, -1)
    lhs, rhs = check_deriv_relation_first(60)
    assert lhs == rhs
    # the first-kind side is the alternating-factorial column: -(59!)
    fact = 1
    for i in range(1, 60):
        fact *= i
    assert lhs == -fact


@pytest.mark.parametrize(
    "check, name, start",
    [
        pytest.param(lambda j, calc=None: check_orthogonality(j, 0, calc), "j", 0,
                     id="check_orthogonality-j"),
        pytest.param(lambda k, calc=None: check_orthogonality(0, k, calc), "k", 0,
                     id="check_orthogonality-k"),
        (check_unit_sum_first, "m", 1),
        (check_unit_sum_second, "m", 1),
        (check_row_relation_first, "m", 2),
        (check_row_relation_second, "j", 2),
        (check_deriv_relation_second, "m", 2),
        (check_deriv_relation_first, "j", 2),
        pytest.param(lambda n, calc=None: run_identity(IdentityId.UNIT_SUM_5, n, calc),
                     "max_index", 0, id="run_identity"),
    ],
)
def test_relations_reject_degenerate_orders(check, name, start):
    # every index argument: the type, sign and cap rules, then the relation's minimum
    with pytest.raises(TypeError, match=f"^{name} must be an int, got bool$"):
        check(True)
    with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
        check(-1)
    with pytest.raises(IndexLimitError, match=f"^{name}=51 exceeds the index cap of 50$"):
        check(51, StirlingCalculator(index_cap=50))
    for value in range(start):
        with pytest.raises(ValueError, match=f"^{name} must be at least {start}, got {value}$"):
            check(value)


def test_deriv_relation_agrees_with_residual_linear_coefficient():
    # same fact through two independent paths: scalar recomputation vs
    # coefficient extraction from the assembled residual polynomial
    for m in range(2, 41):
        lhs, rhs = check_deriv_relation_second(m)
        assert lhs == rhs
        assert linear_coefficient(residual_poly_first(m)) == 0


def test_run_identity_pass_reports():
    report = run_identity(IdentityId.UNIT_SUM_5, 30)
    assert report.passed
    assert report.status == "pass"
    assert report.range == "1 <= m <= 30 (30 cases)"
    assert report.counterexamples == ()
    assert report.elapsed_ms >= 0

    report = run_identity(IdentityId.ORTHOGONALITY_3, 20)
    assert report.passed
    assert report.range == "0 <= j,k <= 20 (441 pairs)"

    report = run_identity(IdentityId.RESIDUAL_13, 1)
    assert report.passed
    assert report.range == "1 <= m <= 1 (1 case)"

    report = run_identity(IdentityId.CONVERSION_1, 12)
    assert report.passed
    assert report.range == "1 <= m <= n <= 12 (78 pairs)"

    report = run_identity(IdentityId.ROW_RELATION_14, 1)
    assert report.passed  # vacuous: the sweep starts at 2
    assert report.range == "2 <= m <= 1 (0 cases)"


def test_run_all_covers_the_catalog_in_order():
    reports = run_all(10)
    assert [r.id for r in reports] == list(IdentityId)
    assert len(reports) == 14
    assert all(r.passed for r in reports)


def test_max_index_is_capped():
    with pytest.raises(IndexLimitError):
        run_identity(IdentityId.UNIT_SUM_5, 60, StirlingCalculator(index_cap=50))


def test_counterexamples_are_exhaustive_ordered_and_exact():
    faulty = PerturbedCalculator(SECOND, 5, 2, delta=1)
    report = run_identity(IdentityId.UNIT_SUM_5, 9, faulty)
    assert not report.passed
    assert report.status == "fail"
    # every m whose double sum reads the corrupted entry, in sweep order
    assert [ce.indices for ce in report.counterexamples] == [
        {"m": m} for m in range(5, 10)
    ]
    for ce in report.counterexamples:
        assert ce.rhs == 1
        assert ce.lhs == check_unit_sum_first(ce.indices["m"], faulty)
        assert ce.lhs != 1

    again = run_identity(IdentityId.UNIT_SUM_5, 9, faulty)
    assert again.counterexamples == report.counterexamples
    assert again.range == report.range
    ce = report.counterexamples[0]
    assert ce != (ce.indices, ce.lhs, ce.rhs)
    with pytest.raises(AttributeError):
        ce.lhs = 1
    with pytest.raises(AttributeError):
        report.range = ""
    assert pickle.loads(pickle.dumps(report)) == report


def test_polynomial_counterexamples_record_coefficients():
    faulty = PerturbedCalculator(SECOND, 4, 3, delta=2)
    report = run_identity(IdentityId.BASIS_POLY_11, 5, faulty)
    assert not report.passed
    for ce in report.counterexamples:
        assert set(ce.indices) == {"m", "k"}
        assert type(ce.lhs) is int and type(ce.rhs) is int
        assert ce.lhs != ce.rhs


# faults in each kind, in column 0 and on the diagonal
SWEEP_FAULTS = [(SECOND, 4, 3, 2), (FIRST, 9, 4, -1), (SECOND, 11, 0, 1), (FIRST, 12, 12, 3)]


@pytest.mark.parametrize("kind, n, m, delta", SWEEP_FAULTS)
def test_polynomial_sweeps_agree_with_the_public_builders(kind, n, m, delta):
    # the sweeps compare integer coefficients without calling the builders;
    # each of their counterexamples must be a coefficient where the public
    # builder's Poly differs from x^index (basis) or from zero (residual)
    faulty = PerturbedCalculator(kind, n, m, delta=delta)
    cases = [
        (IdentityId.BASIS_POLY_11, "m", basis_poly_first, False),
        (IdentityId.BASIS_POLY_12, "j", basis_poly_second, False),
        (IdentityId.RESIDUAL_13, "m", residual_poly_first, True),
        (IdentityId.RESIDUAL_15, "j", residual_poly_second, True),
    ]
    for identity, name, builder, residual in cases:
        mismatches = []
        for index in range(1, 13):
            built = builder(index, faulty)
            assert all(isinstance(c, Fraction) for c in built.coeffs)
            want = Poly() if residual else Poly.monomial(index)
            for k in range(max(len(built.coeffs), len(want.coeffs))):
                if built.coefficient(k) != want.coefficient(k):
                    mismatches.append((index, k, built.coefficient(k)))
        report = run_identity(identity, 12, faulty)
        found = [(ce.indices[name], ce.indices["k"], ce.lhs) for ce in report.counterexamples]
        assert found == mismatches, identity


def test_every_counterexample_side_is_a_plain_int():
    # every sweep compares ints and records the ints it compared
    failing = set()
    for kind, n, m, delta in SWEEP_FAULTS:
        for report in run_all(12, PerturbedCalculator(kind, n, m, delta=delta)):
            for ce in report.counterexamples:
                assert type(ce.lhs) is int and type(ce.rhs) is int, (report.id, ce)
                failing.add(report.id)
    assert failing == set(IdentityId)


@pytest.mark.parametrize("kind, n, m, delta", SWEEP_FAULTS)
def test_orthogonality_sweeps_agree_with_the_scalar_check(kind, n, m, delta):
    # the sweeps read entry (k, j) of whole product rows; each of their
    # counterexamples must be a cell where the scalar check, which sums rows
    # j..k one term at a time, differs from the Kronecker delta
    faulty = PerturbedCalculator(kind, n, m, delta=delta)
    for identity, mirrored in [(IdentityId.ORTHOGONALITY_3, False),
                               (IdentityId.ORTHOGONALITY_4, True)]:
        mismatches = []
        for j in range(13):
            for k in range(13):
                lhs, expected = check_orthogonality(j, k, faulty, mirrored=mirrored)
                if lhs != expected:
                    mismatches.append((j, k, lhs))
        report = run_identity(identity, 12, faulty)
        found = [(ce.indices["j"], ce.indices["k"], ce.lhs) for ce in report.counterexamples]
        assert found == mismatches, identity
        assert all(type(ce.lhs) is int for ce in report.counterexamples)


def _fresh(fault):
    return StirlingCalculator() if fault is None else PerturbedCalculator(*fault[:3], delta=fault[3])


@pytest.mark.parametrize("top", [12, 24])
@pytest.mark.parametrize("fault", [None, *SWEEP_FAULTS])
def test_run_all_reports_what_each_identity_reports_alone(fault, top):
    # run_all hands each product to three sweeps; each must still read what it
    # reads when run alone on a calculator of its own, the fault included
    for report in run_all(top, _fresh(fault)):
        alone = run_identity(report.id, top, _fresh(fault))
        assert (report.id, report.range, report.counterexamples) == (
            alone.id, alone.range, alone.counterexamples), report.id


@pytest.mark.parametrize("make", [StirlingCalculator, partial(PerturbedCalculator, SECOND, 5, 2)],
                         ids=["healthy", "perturbed"])
def test_each_call_builds_only_the_products_it_reads(monkeypatch, make):
    built = []
    product = identities._product

    def counted(calc, outer, inner, top):
        built.append((outer, inner))
        return product(calc, outer, inner, top)

    monkeypatch.setattr(identities, "_product", counted)
    calc = make()
    # S·s for eq3, then s·S for eq4; a second call on the same calculator
    # builds both again, so no product outlives its call
    for _ in range(2):
        built.clear()
        run_all(12, calc)
        assert built == [(SECOND, FIRST), (FIRST, SECOND)]
    readers = {
        IdentityId.ORTHOGONALITY_3: (SECOND, FIRST),
        IdentityId.BASIS_POLY_12: (SECOND, FIRST),
        IdentityId.RESIDUAL_15: (SECOND, FIRST),
        IdentityId.ORTHOGONALITY_4: (FIRST, SECOND),
        IdentityId.BASIS_POLY_11: (FIRST, SECOND),
        IdentityId.RESIDUAL_13: (FIRST, SECOND),
    }
    for identity in IdentityId:
        built.clear()
        run_identity(identity, 12, calc)
        assert built == ([readers[identity]] if identity in readers else []), identity


@pytest.mark.parametrize("make", [StirlingCalculator, partial(PerturbedCalculator, FIRST, 15, 4)],
                         ids=["healthy", "perturbed"])
def test_a_conversion_sweep_builds_one_pascal_table_and_walks_one_band(monkeypatch, make):
    calls = []
    pascal, band = engine._pascal, engine._band

    def counted_pascal(top):
        calls.append(("pascal", top))
        return pascal(top)

    def counted_band(kind, row, h, n, m):
        calls.append(("band", kind, h, n, m))
        return band(kind, row, h, n, m)

    monkeypatch.setattr(engine, "_pascal", counted_pascal)
    monkeypatch.setattr(engine, "_band", counted_band)
    calc = make()
    # the band from row 0 to (22, 11) carries diagonals 0..11 of the source kind
    for identity, source in ((IdentityId.CONVERSION_1, SECOND), (IdentityId.CONVERSION_2, FIRST)):
        calls.clear()
        run_identity(identity, 12, calc)
        assert calls == [("pascal", 12), ("band", source, 0, 22, 11)], identity
    calls.clear()
    run_all(12, calc)
    assert calls == [("pascal", 12), ("band", SECOND, 0, 22, 11),
                     ("pascal", 12), ("band", FIRST, 0, 22, 11)]


ONE_PASS_READERS = {
    "triangle-second": methodcaller("triangle", SECOND, 40),
    "triangle-first-unsigned": methodcaller("triangle", StirlingKind.FIRST_UNSIGNED, 40),
    **{identity.value: partial(run_identity, identity, 40) for identity in (
        IdentityId.CONVERSION_1, IdentityId.CONVERSION_2,
        IdentityId.UNIT_SUM_5, IdentityId.UNIT_SUM_6,
        IdentityId.ROW_RELATION_14, IdentityId.ROW_RELATION_16,
        IdentityId.DERIV_RELATION_17, IdentityId.DERIV_RELATION_18)},
    **{check.__name__: partial(check, 40) for check in (
        check_unit_sum_first, check_unit_sum_second,
        check_row_relation_first, check_row_relation_second,
        check_deriv_relation_first, check_deriv_relation_second)},
}


@pytest.mark.parametrize("read", list(ONE_PASS_READERS.values()), ids=list(ONE_PASS_READERS))
def test_one_pass_readers_store_no_row(read):
    # triangles, the row-local and conversion sweeps and the scalar relation
    # checks read rows 0..N once each off streams, so neither memo grows
    calc = StirlingCalculator()
    read(calc)
    assert [len(calc._rows[kind]) for kind in (FIRST, SECOND)] == [1, 1]


def test_report_json_schema_and_round_trip():
    report = run_identity(IdentityId.UNIT_SUM_6, 12)
    text = dump_json(report.to_json_data())
    data = json.loads(text)
    assert list(data) == ["id", "range", "status", "counterexamples", "elapsed_ms"]
    assert data["id"] == "eq6"
    assert data["status"] == "pass"
    assert data["counterexamples"] == []
    assert isinstance(data["elapsed_ms"], int)
    assert dump_json(data) == text

    faulty = PerturbedCalculator(FIRST, 6, 3, delta=-1)
    failing = run_identity(IdentityId.ORTHOGONALITY_3, 10, faulty)
    data = json.loads(dump_json(failing.to_json_data()))
    assert data["status"] == "fail"
    ce = data["counterexamples"][0]
    assert list(ce) == ["indices", "lhs", "rhs"]
    assert all(isinstance(v, int) for v in ce["indices"].values())
    assert isinstance(ce["lhs"], str) and isinstance(ce["rhs"], str)
    first = failing.counterexamples[0]
    assert (ce["lhs"], ce["rhs"]) == (str(first.lhs), str(first.rhs))


def test_report_status_follows_its_counterexamples():
    faulty = PerturbedCalculator(SECOND, 5, 2)
    reports = run_all(12) + run_all(12, faulty)
    assert any(r.counterexamples for r in reports)
    for report in reports:
        assert report.status == ("fail" if report.counterexamples else "pass")
        assert report.passed is not bool(report.counterexamples)
        assert report.to_json_data()["status"] == report.status


def test_reports_and_counterexamples_repr_their_fields():
    ce = Counterexample({"m": 5}, 2, 1)
    assert repr(ce) == "Counterexample(indices={'m': 5}, lhs=2, rhs=1)"
    report = IdentityReport(IdentityId.UNIT_SUM_5, "1 <= m <= 6 (6 cases)", (ce,), 0)
    assert repr(report) == (
        "IdentityReport(id=<IdentityId.UNIT_SUM_5: 'eq5'>, range='1 <= m <= 6 (6 cases)', "
        "counterexamples=(Counterexample(indices={'m': 5}, lhs=2, rhs=1),), elapsed_ms=0)")


def test_identity_token_lookup():
    assert IdentityId("eq5") is IdentityId.UNIT_SUM_5
    assert IdentityId("eq18") is IdentityId.DERIV_RELATION_18
    with pytest.raises(ValueError):
        IdentityId("eq7")


SENSITIVE_SET = (
    IdentityId.UNIT_SUM_5,
    IdentityId.UNIT_SUM_6,
    IdentityId.ORTHOGONALITY_3,
    IdentityId.RESIDUAL_13,
)


def test_single_entry_mutations_are_detected():
    rng = random.Random(20260810)
    entries = set()
    while len(entries) < 8:
        kind = rng.choice((FIRST, SECOND))
        n = rng.randint(0, 10)
        entries.add((kind, n, rng.randint(0, n)))
    for kind, n, m in sorted(entries, key=str):
        faulty = PerturbedCalculator(kind, n, m, delta=1)
        outcomes = [run_identity(i, 12, faulty) for i in SENSITIVE_SET]
        assert any(not r.passed for r in outcomes), (kind, n, m)


PRODUCT_READERS = (
    IdentityId.ORTHOGONALITY_3, IdentityId.ORTHOGONALITY_4, IdentityId.BASIS_POLY_11,
    IdentityId.BASIS_POLY_12, IdentityId.RESIDUAL_13, IdentityId.RESIDUAL_15,
)


@pytest.mark.parametrize("helper", ["_next_row", "_step"])
def test_a_broken_row_builder_fails_every_product_reader(monkeypatch, helper):
    # the products check the rows against recurrences of their own: a row builder
    # whose second-kind weight is k + 1 instead of k (through _step, the first
    # kind's -n + 1 too) must fail all six readers, which it would not if the
    # product stepped its rows by the same helper
    next_row, step = engine._next_row, engine._step
    if helper == "_next_row":
        def broken(kind, prev, n, lo=0):
            if kind is SECOND:
                return step(prev, range(lo + 2, lo + 1 + len(prev)))
            return next_row(kind, prev, n, lo)
    else:
        def broken(prev, weights):
            return step(prev, (w + 1 for w in weights))
    monkeypatch.setattr(engine, helper, broken)
    assert StirlingCalculator().row(SECOND, 3) != (0, 1, 3, 1)
    for identity in PRODUCT_READERS:
        assert run_identity(identity, 12, StirlingCalculator()).counterexamples, identity


def naive_conversion(source, n, m):
    """The eq1 sum at (n, m) written out term by term, each term's entry
    read through ``source``: s(n, m) when source reads S, and S(n, m) when
    it reads s."""
    return sum(
        (-1) ** k * comb(n - 1 + k, n - m + k) * comb(2 * n - m, n - m - k)
        * source(n - m + k, k)
        for k in range(n - m + 1)
    )


def naive_counterexamples(identity, top, calc):
    """(indices, lhs, rhs) of every violation a sweep of ``identity`` up to
    ``top`` must report, in sweep order: each sum written out term by term
    over the range the README catalog states, each term read through the
    public calc.value()."""
    def s(n, m):
        return calc.value(FIRST, n, m)

    def S(n, m):
        return calc.value(SECOND, n, m)

    mirrored = identity in (
        IdentityId.CONVERSION_2, IdentityId.ORTHOGONALITY_4, IdentityId.UNIT_SUM_6,
        IdentityId.BASIS_POLY_12, IdentityId.RESIDUAL_15, IdentityId.ROW_RELATION_16,
        IdentityId.DERIV_RELATION_18,
    )
    outer, inner = (S, s) if mirrored else (s, S)
    name = "j" if mirrored and identity is not IdentityId.UNIT_SUM_6 else "m"
    found = []

    def check(indices, lhs, rhs):
        if lhs != rhs:
            found.append((indices, lhs, rhs))

    if identity in (IdentityId.CONVERSION_1, IdentityId.CONVERSION_2):
        for n in range(1, top + 1):
            for m in range(1, n + 1):
                check({"n": n, "m": m}, naive_conversion(inner, n, m), outer(n, m))
    elif identity in (IdentityId.ORTHOGONALITY_3, IdentityId.ORTHOGONALITY_4):
        for j in range(top + 1):
            for k in range(top + 1):
                if mirrored:
                    terms = (s(k, l) * S(l, j) for l in range(max(j, k) + 2))
                else:
                    terms = (s(l, j) * S(k, l) for l in range(max(j, k) + 2))
                check({"j": j, "k": k}, sum(terms), 1 if j == k else 0)
    elif identity in (IdentityId.UNIT_SUM_5, IdentityId.UNIT_SUM_6):
        for m in range(1, top + 1):
            total = sum(
                outer(m, j) * sum(inner(j, k) for k in range(1, j + 1))
                for j in range(1, m + 1)
            )
            check({"m": m}, total, 1)
    elif identity in (IdentityId.ROW_RELATION_14, IdentityId.ROW_RELATION_16):
        for m in range(2, top + 1):
            lhs = -sum(
                outer(m, j) * sum(inner(j, k) for k in range(1, j + 1))
                for j in range(1, m)
            )
            check({name: m}, lhs, sum(inner(m, k) for k in range(1, m)))
    elif identity in (IdentityId.DERIV_RELATION_17, IdentityId.DERIV_RELATION_18):
        for m in range(2, top + 1):
            rhs = -sum(outer(m, j) * inner(j, 1) for j in range(1, m))
            check({name: m}, inner(m, 1), rhs)
    else:
        residual = identity in (IdentityId.RESIDUAL_13, IdentityId.RESIDUAL_15)
        for m in range(1, top + 1):
            coeffs = [0] * (m + 1)
            for j in range(1, m + 1):
                # the residual splits the diagonal term off: it stops at k = m - 1
                for k in range(1, (m if residual and j == m else j + 1)):
                    coeffs[k] += outer(m, j) * inner(j, k)
            for k in range(m + 1):
                check({name: m, "k": k}, coeffs[k], 0 if residual or k < m else 1)
    return found


@pytest.mark.parametrize(
    "kind, n, m, delta, top",
    [
        (FIRST, 1, 0, 1, 12),  # column 0
        (SECOND, 4, 4, -2, 12),  # diagonal
        (FIRST, 6, 3, 1, 12),
        (SECOND, 5, 2, 3, 12),
        (SECOND, 9, 0, 1, 12),
        # the origin: product row 0, which eq3/eq4 check and eq11-15 skip
        (FIRST, 0, 0, 2, 12),
        (SECOND, 0, 0, -1, 12),
        (SECOND, 12, 11, 1, 12),  # the product's last row
        # long diagonals, away from the origin: the Pascal-table conversion
        # sums and the column dot products at their far ends
        (SECOND, 20, 6, 1, 24),
        (FIRST, 22, 3, 1, 24),
        # eq1/eq2 walk source rows top..2top-2 as a band: faults it reads, in its
        # first row, and in row 2top-2 on the last diagonal
        (SECOND, 15, 4, 1, 12),
        (FIRST, 12, 5, -1, 12),
        (FIRST, 22, 11, 1, 12),
        # faults it does not read: k > d, and row 2top-1
        (SECOND, 13, 7, 1, 12),
        (SECOND, 23, 11, 1, 12),
        # a fault in row top-1, which the band starts from: the walked rows stay healthy
        (SECOND, 11, 3, 1, 12),
        # the smallest bounds, where no source row is walked
        (SECOND, 0, 0, 1, 0),
        (SECOND, 1, 1, 1, 1),
        (SECOND, 2, 1, 1, 1),
    ],
)
def test_sweeps_report_exactly_the_naive_counterexamples(kind, n, m, delta, top):
    # the row-level sweeps must change no verdict and no counterexample
    faulty = PerturbedCalculator(kind, n, m, delta=delta)
    expected = {}
    for report in run_all(top, faulty):
        found = [(ce.indices, ce.lhs, ce.rhs) for ce in report.counterexamples]
        expected[report.id] = naive_counterexamples(report.id, top, faulty)
        assert found == expected[report.id], report.id
        if top > 12 and report.id in (
            IdentityId.CONVERSION_1, IdentityId.CONVERSION_2,
            IdentityId.BASIS_POLY_11, IdentityId.RESIDUAL_13,
        ):
            assert found, report.id
    # and across the seam of a stream: memo rows 0..h, then rows stepped off
    # the band, with the fault in row h + 1, h or h - 1
    for h in range(max(n - 1, 0), n + 2):
        for identity in IdentityId:
            warmed = PerturbedCalculator(kind, n, m, delta=delta)
            warmed.row(FIRST, h)
            warmed.row(SECOND, h)
            report = run_identity(identity, top, warmed)
            found = [(ce.indices, ce.lhs, ce.rhs) for ce in report.counterexamples]
            assert found == expected[identity], (h, identity)


@pytest.mark.parametrize("kind", [FIRST, SECOND])
def test_every_fault_position_reads_as_the_naive_sums_see_it(kind):
    # a +1 fault at every entry up to row 2top-1, one row past the last one
    # any sweep reads (2top-2): each sweep and each point conversion must see
    # it exactly where the public value() does, and a fault in rows 0..top
    # must fail some report
    top = 6
    for n in range(2 * top):
        for m in range(n + 1):
            faulty = PerturbedCalculator(kind, n, m)
            reports = run_all(top, faulty)
            for report in reports:
                found = [(ce.indices, ce.lhs, ce.rhs) for ce in report.counterexamples]
                assert found == naive_counterexamples(report.id, top, faulty), (n, m, report.id)
            if n <= top:
                assert not all(report.passed for report in reports), (n, m)
            s, S = partial(faulty.value, FIRST), partial(faulty.value, SECOND)
            for j in range(1, top + 1):
                for k in range(1, j + 1):
                    where = (n, m, j, k)
                    assert faulty.first_from_second(j, k) == naive_conversion(S, j, k), where
                    assert faulty.second_from_first(j, k) == naive_conversion(s, j, k), where
