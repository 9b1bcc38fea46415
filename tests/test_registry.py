"""Registry: records, residual engine, polynomial machinery, determinism."""

import functools
import gc
import inspect
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ellid import (Classification, ConstraintError, DomainError, Expectation,
                   NonConvergenceError, PoleError, PolynomialSpec, RangeError, ResidualReport,
                   S4_n_over_sinh, SeriesResult, UnknownIdentityError,
                   classify, default_registry, poly_even_zeta_integral,
                   poly_even_zeta_sum, poly_weighted_log_theta2_sum,
                   poly_weighted_log_theta4_sum, registry, sides)
from ellid import catalog, cli, errors
from ellid.reporting import render_csv, render_json, render_text
from libm import perturbed_libm

PI = math.pi

EXPECT_PASS_IDS = {"P1", "E4", "E5", "E5b", "E5c", "E7b", "P11a"}

CONTESTED_FULL_GRID_IDS = ("P2", "P2b", "P3", "E7", "E8", "P4", "P4b", "P5",
                           "P6", "P7b", "P8", "P10", "P10a", "P11b", "P12")


def test_registry_shape():
    reg = default_registry()
    assert len(reg) == 25
    assert reg.ids() == sorted(reg.ids())
    for rec in reg.records():
        assert rec.anchor
        assert rec.variants
        assert rec.variants[0].variant_id in ("base", "parameter")
    assert len(reg.get("P1").grid_points()) == 9
    expected = {r.identity_id: r.expected for r in reg.records()}
    for identity in EXPECT_PASS_IDS:
        assert expected[identity] is Expectation.EXPECT_PASS


def test_sides_are_independent_evaluators():
    # lhs and rhs of a variant must never be the same callable; the two
    # sides share only library primitives, not each other
    for rec in default_registry().records():
        for v in rec.variants:
            assert v.lhs is not v.rhs, (rec.identity_id, v.variant_id)


def test_e8_scale_four_variants_share_one_lhs():
    # one object, so _reports_at evaluates that lhs once per point
    variants = {v.variant_id: v for v in default_registry().get("E8").variants}
    assert variants["base"].lhs is variants["minus-tan"].lhs
    assert variants["half-scale"].lhs is not variants["base"].lhs
    # and the two with tan sign +1 hold one rhs
    assert variants["base"].rhs is variants["half-scale"].rhs
    assert variants["minus-tan"].rhs is not variants["base"].rhs


def test_every_side_takes_its_record_parameters_in_order():
    # A run calls side(*values) with the values in ParamSpec order, so a side
    # whose parameters came in another order would take wrong values.  A
    # library primitive used as a side keeps its defaulted policy parameter.
    for rec in default_registry().records():
        names = [p.name for p in rec.params]
        for v in rec.variants:
            for side in (v.lhs, v.rhs):
                params = list(inspect.signature(side).parameters.values())
                if [p.kind for p in params] == [inspect.Parameter.VAR_POSITIONAL]:
                    continue
                where = (rec.identity_id, v.variant_id)
                assert [p.name for p in params[:len(names)]] == names, where
                extra = params[len(names):]
                if extra:
                    fn = side.func if isinstance(side, functools.partial) else side
                    assert not fn.__name__.startswith("_"), where
                    assert [p.name for p in extra] == ["policy"], where
                    assert extra[0].default is not extra[0].empty, where


def test_every_side_is_a_flat_function_or_a_partial_of_one():
    # A closure or lambda side hides its variant's constants from the record
    # table; a partial of a series or theta function would escape a wrapper
    # installed on the module attribute after the registry was built.
    def flat(f):
        return inspect.isfunction(f) and "<locals>" not in f.__qualname__

    for rec in default_registry().records():
        for v in rec.variants:
            for side in (v.lhs, v.rhs):
                where = (rec.identity_id, v.variant_id, side)
                if isinstance(side, functools.partial):
                    assert not side.keywords, where
                    assert flat(side.func), where
                    assert side.func.__module__ in ("ellid.registry", "ellid.sides"), where
                else:
                    assert flat(side), where


def test_validate_point_returns_values_in_param_order():
    rec = default_registry().get("P11a")
    values = rec.validate_point({"s": 0.2, "a": 2.0, "fdeg": 3})
    assert values == (3, 2.0, 0.2)
    assert type(values[0]) is int


def test_evaluate_is_blind_to_the_key_order_of_a_point():
    reg = default_registry()
    for rec in reg.records():
        for point in rec.grid_points():
            reordered = dict(reversed(list(point.items())))
            for v in rec.variants:
                want = reg.evaluate(rec.identity_id, v.variant_id, point)
                got = reg.evaluate(rec.identity_id, v.variant_id, reordered)
                assert render_json([got]) == render_json([want])
                assert got.params == point


def test_classification_bands():
    assert classify(0.0) is Classification.PASS
    assert classify(1e-9) is Classification.PASS
    assert classify(5e-8) is Classification.INCONCLUSIVE
    assert classify(1e-6) is Classification.INCONCLUSIVE
    assert classify(2e-6) is Classification.FAIL
    assert classify(float("nan")) is Classification.INCONCLUSIVE


def test_evaluate_p1_point():
    r = default_registry().evaluate("P1", "base", {"a": 1.0, "t": 0.3})
    assert r.classification is Classification.PASS
    assert r.abs_residual < 1e-11


def test_evaluate_e4_point():
    r = default_registry().evaluate("E4", "base", {"a": 1.0})
    assert r.classification is Classification.PASS
    assert abs(r.lhs - (-0.0018640)) < 1e-7
    assert abs(r.rhs - (-0.0018640)) < 1e-7


def test_evaluate_p9_degenerate_point():
    # x = 0 collapses both sides to K(0)
    r = default_registry().evaluate("P9", "parameter", {"x": 0.0})
    assert r.classification is Classification.PASS
    assert r.abs_residual == 0.0


def test_unknown_identity_and_variant():
    with pytest.raises(UnknownIdentityError):
        default_registry().evaluate("NOPE", "base", {})
    with pytest.raises(UnknownIdentityError):
        default_registry().evaluate("P1", "no-such-variant", {"a": 1.0, "t": 0.0})


def test_constraint_violations_raise():
    with pytest.raises(ConstraintError):
        default_registry().evaluate("P1", "base", {"a": 0.8, "t": 2.0})  # 2t >= pi a
    with pytest.raises(ConstraintError):
        default_registry().evaluate("P1", "base", {"a": 1.0})  # missing parameter
    with pytest.raises(ConstraintError):
        default_registry().evaluate("P7", "base", {"value": 0.5, "convention": "weird"})
    with pytest.raises(ConstraintError, match="is not a finite number"):
        default_registry().evaluate("E4", "base", {"a": True})  # not a = 1


def test_every_constraint_cuts_its_declared_box():
    # a constraint that holds at every corner of the ParamSpec box adds
    # nothing to the ranges, which validate_point checks first
    for record in default_registry().records():
        if record.constraint is None:
            continue
        names = [p.name for p in record.params]
        axes = [p.choices if p.choices is not None else (p.lo, p.hi)
                for p in record.params]
        corners = [dict(zip(names, c)) for c in itertools.product(*axes)]
        assert not all(map(record.constraint, corners)), record.identity_id


def test_p6b_adjudication():
    reports = default_registry().run(["P6b"])
    base = [r for r in reports if r.variant == "base"]
    minus = [r for r in reports if r.variant == "minus-half"]
    assert len(base) == len(minus) == 3
    for r in base:
        assert r.classification is Classification.FAIL
        assert abs(r.abs_residual - 1.0) <= 1e-3
    for r in minus:
        assert r.classification is Classification.PASS
        assert r.abs_residual <= 1e-10


def test_expect_pass_entries_all_pass():
    reports = default_registry().run_all()
    for r in reports:
        if r.identity in EXPECT_PASS_IDS:
            assert r.classification is Classification.PASS, (r.identity, r.params)


def test_contested_entries_fully_classified():
    reports = default_registry().run_all()
    for r in reports:
        if r.identity in CONTESTED_FULL_GRID_IDS:
            assert r.note == ""
            assert math.isfinite(r.lhs) and math.isfinite(r.rhs)
            assert r.classification in (Classification.PASS,
                                        Classification.INCONCLUSIVE,
                                        Classification.FAIL)


def test_report_count_matches_registry_cardinality():
    reg = default_registry()
    want = sum(len(rec.variants) * len(rec.grid_points())
               for rec in reg.records())
    assert len(default_registry().run_all()) == want


def test_run_all_deterministic():
    a = default_registry().run_all()
    b = default_registry().run_all()
    assert a == b
    assert render_json(a) == render_json(b)


def test_no_golden_class_rests_on_libm_last_bit():
    # Each run moves every transcendental result and sqrt by a seeded 0 or
    # +-1 ulp, as another libm might; the bits move, the classes must not.
    default_registry()  # E8's grid computes q at build time: build unperturbed
    base = default_registry().run_all()
    want = [r.classification for r in base]
    values = {(r.lhs, r.rhs) for r in base}
    moved = 0
    for seed in range(20):
        sides._ke_at.cache_clear()
        try:
            with perturbed_libm(seed):
                reports = default_registry().run_all()
        finally:
            sides._ke_at.cache_clear()
        assert [r.classification for r in reports] == want, seed
        moved += sum((r.lhs, r.rhs) not in values for r in reports)
    assert moved > 20 * 100  # the perturbation reaches most rows


def test_run_all_solves_each_singular_modulus_once(monkeypatch):
    solved = []
    solve_k = sides.solve_k

    def counting_solve_k(a):
        solved.append(a)
        return solve_k(a)

    monkeypatch.setattr(sides, "solve_k", counting_solve_k)
    sides._ke_at.cache_clear()
    try:
        reports = default_registry().run_all()
        assert sorted(solved) == [0.5, 1.0, 2.0]
        golden = Path(__file__).parent / "data" / "check_all.json"
        assert render_json(reports).encode() == golden.read_bytes()

        # a refused a reaches the solver every time: errors are not cached
        for attempt in (1, 2):
            with pytest.raises(RangeError):
                sides._ke_at(0.06)
            assert solved.count(0.06) == attempt

        # callers pass 2 or 2.0 for the same point; both must give the same bits
        from_int = sides._ke_at(2)
        sides._ke_at.cache_clear()
        from_float = sides._ke_at(2.0)
        assert [v.hex() for v in from_int] == [v.hex() for v in from_float]
    finally:
        sides._ke_at.cache_clear()



# -- sides shared across variants ----------------------------------------------

class _Side:
    """An evaluator that counts its calls and can fail at chosen x."""

    def __init__(self, value, fail_at=(), exc=DomainError):
        self.value = value
        self.fail_at = fail_at
        self.exc = exc
        self.calls = []

    def __call__(self, x):
        self.calls.append(x)
        if x in self.fail_at:
            raise self.exc(f"no value at x={x!r}")
        return SeriesResult(self.value * x, 7, 0.0)


def _sharing_registry(lhs, rhs_a, rhs_b, both=None, grid=(1.0, 2.0, 3.0)):
    variants = [registry.Variant("base", lhs, rhs_a),
                registry.Variant("same-rhs", lhs, rhs_a),
                registry.Variant("other-rhs", lhs, rhs_b)]
    if both is not None:
        variants.append(registry.Variant("one-object", both, both))
    record = registry.IdentityRecord(
        "T", "test identity",
        (registry.ParamSpec("x", grid, lo=0.0, hi=5.0),),
        tuple(variants), Expectation.CONTESTED)
    return registry.Registry([record])


def test_variants_share_each_side_once_per_point():
    lhs, rhs_a, rhs_b, both = _Side(1.0), _Side(1.0), _Side(2.0), _Side(1.0)
    reports = _sharing_registry(lhs, rhs_a, rhs_b, both).run(["T"])
    assert len(reports) == 12
    for side in (lhs, rhs_a, rhs_b):
        assert sorted(side.calls) == [1.0, 2.0, 3.0]
    # a row's two sides never share a call, even when they are one object
    assert sorted(both.calls) == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    by_key = {(r.variant, r.params["x"]): r for r in reports}
    for x in (1.0, 2.0, 3.0):
        for variant in ("base", "same-rhs", "one-object"):
            assert by_key[variant, x].classification is Classification.PASS
            assert by_key[variant, x].terms == {"lhs": 7, "rhs": 7}
        assert by_key["other-rhs", x].classification is Classification.FAIL
    # every row owns its params and terms
    assert len({id(r.params) for r in reports}) == len(reports)
    assert len({id(r.terms) for r in reports}) == len(reports)


def test_check_grid_shares_each_side_once_per_point(monkeypatch, capsys):
    # `ellid check --grid` runs the same per-point engine as Registry.run
    lhs, rhs_a, rhs_b, both = _Side(1.0), _Side(1.0), _Side(2.0), _Side(1.0)
    reg = _sharing_registry(lhs, rhs_a, rhs_b, both)
    monkeypatch.setattr(cli, "default_registry", lambda: reg)
    assert cli.main(["check", "T", "--grid", "x=1,2,3", "--format", "json"]) == 0
    for side in (lhs, rhs_a, rhs_b):
        assert sorted(side.calls) == [1.0, 2.0, 3.0]
    assert sorted(both.calls) == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 12
    assert rows == json.loads(render_json(reg.run(["T"])))


def test_a_records_own_invalid_grid_point_raises():
    # x = 9 is above hi: the run stops there, and no side is called at it
    lhs, rhs_a, rhs_b = _Side(1.0), _Side(1.0), _Side(2.0)
    reg = _sharing_registry(lhs, rhs_a, rhs_b, grid=(1.0, 9.0))
    with pytest.raises(ConstraintError, match=r"^T: x=9\.0 above 5\.0$"):
        reg.run(["T"])
    for side in (lhs, rhs_a, rhs_b):
        assert side.calls == [1.0]


def test_run_gives_each_id_once():
    reg = default_registry()
    assert reg.run(["E4", "E4"]) == reg.run(["E4"])
    assert reg.run(["P6b", "E4", "P6b"]) == reg.run(["E4"]) + reg.run(["P6b"])


@pytest.mark.parametrize("exc", [DomainError, NonConvergenceError])
def test_failed_shared_lhs_gives_every_variant_its_note(exc):
    # A failed side, whatever its error, is INCONCLUSIVE with a note, never PASS.
    lhs, rhs_a, rhs_b = _Side(1.0, fail_at=(2.0,), exc=exc), _Side(1.0), _Side(1.0)
    reports = _sharing_registry(lhs, rhs_a, rhs_b).run(["T"])
    assert sorted(lhs.calls) == [1.0, 2.0, 3.0]
    # a failed lhs skips its rhs, as a single evaluation would
    assert 2.0 not in rhs_a.calls and 2.0 not in rhs_b.calls
    failed = [r for r in reports if r.params == {"x": 2.0}]
    assert [r.variant for r in failed] == ["base", "other-rhs", "same-rhs"]
    for r in failed:
        assert r.classification is Classification.INCONCLUSIVE
        assert r.note == f"{exc.__name__}: no value at x=2.0"
        assert math.isnan(r.lhs) and r.terms == {"lhs": 0, "rhs": 0}
    assert len({id(r.terms) for r in failed}) == 3


def test_failed_rhs_leaves_other_variants_alone():
    lhs, rhs_a, rhs_b = _Side(1.0), _Side(1.0, fail_at=(3.0,)), _Side(1.0)
    reg = _sharing_registry(lhs, rhs_a, rhs_b)
    by_key = {(r.variant, r.params["x"]): r for r in reg.run(["T"])}
    for variant in ("base", "same-rhs"):
        assert by_key[variant, 3.0].note == "DomainError: no value at x=3.0"
    assert rhs_a.calls.count(3.0) == 1
    assert by_key["other-rhs", 3.0].classification is Classification.PASS
    assert by_key["other-rhs", 3.0].note == ""
    # a single evaluation gives the same row as the shared run
    for variant in ("base", "other-rhs"):
        assert reg.evaluate("T", variant, {"x": 3.0}) == by_key[variant, 3.0]


@pytest.mark.parametrize("exc", [RuntimeError, ZeroDivisionError])
def test_bare_side_exception_still_propagates(exc):
    # only an EllidError becomes a note; anything else is a defect of its side
    lhs = _Side(1.0, fail_at=(1.0,), exc=exc)
    with pytest.raises(exc):
        _sharing_registry(lhs, _Side(1.0), _Side(1.0)).run(["T"])


def test_run_all_and_render_json_leave_no_reference_cycles():
    # A side failure kept with its traceback would tie the traceback's frames
    # to the memo holding it, one garbage cycle per failed side.
    default_registry().run_all()
    gc.collect()
    gc.disable()
    try:
        render_json(default_registry().run_all())
        assert gc.collect() == 0
    finally:
        gc.enable()


def _sorted_run(reg, ids=None, grid={}):
    """The rows of ``reg.run(ids, grid)`` as the run made them before it kept
    a plan: every point of every record in run order, then one sort."""
    records = reg.records() if ids is None else [reg.get(i) for i in dict.fromkeys(ids)]
    reports = []
    for rec in records:
        for point in rec.grid_points(grid):
            reports += registry._reports_at(rec.identity_id, rec.variants, point,
                                            rec.validate_point(point))
    reports.sort(key=registry.report_sort_key)
    return reports


def _override_axis(rng, param, draw_uniform):
    """A seeded replacement for ``param``'s grid: repeated, shuffled values
    from its own grid and their int twins, or from its choices, plus one
    uniform draw over its range if ``draw_uniform``."""
    pool = list(param.choices or param.grid)
    pool += [int(v) for v in pool if not isinstance(v, str) and v == int(v)]
    axis = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
    if draw_uniform and param.choices is None:
        axis.insert(rng.randrange(len(axis) + 1), rng.uniform(param.lo, param.hi))
    return axis


def _seeded_grid(rng, rec):
    """A seeded ``grid`` override over some of ``rec``'s parameters, every
    point of which it accepts."""
    names = rng.sample([p.name for p in rec.params], rng.randint(1, len(rec.params)))
    for attempt in range(20):
        grid = {p.name: _override_axis(rng, p, attempt < 10)
                for p in rec.params if p.name in names}
        try:
            for point in rec.grid_points(grid):
                rec.validate_point(point)
        except ConstraintError:
            continue
        return grid
    raise AssertionError("the record's own grid values failed validation")


@pytest.mark.parametrize("seed", range(4))
def test_run_gives_the_rows_of_one_sort_after_the_run(seed):
    # repr, not ==, so that a row at a=1 and one at a=1.0 may not swap
    rng = random.Random(seed)
    reg = catalog.build_registry()
    ids = reg.ids() + rng.sample(reg.ids(), 5)
    rng.shuffle(ids)
    for run_ids in (None, ids, ids[:7]):
        want = repr(_sorted_run(reg, run_ids))
        assert repr(reg.run(run_ids)) == want  # building the plans
        assert repr(reg.run(run_ids)) == want  # from the plans
    for rec in reg.records():
        ids = [rec.identity_id] * 2
        grid = _seeded_grid(rng, rec)
        assert repr(reg.run(ids, grid)) == repr(_sorted_run(reg, ids, grid)), grid


class _Counted:
    """A side that counts its calls."""

    def __init__(self, side):
        self.side = side
        self.calls = 0

    def __call__(self, *values):
        self.calls += 1
        return self.side(*values)


def test_a_second_run_validates_nothing_and_calls_every_side_again(monkeypatch):
    counted = {}  # id(side) -> _Counted, one per object, so sharing stays

    def wrap(side):
        return counted.setdefault(id(side), _Counted(side))

    records = [rec._replace(variants=tuple(v._replace(lhs=wrap(v.lhs), rhs=wrap(v.rhs))
                                           for v in rec.variants))
               for rec in default_registry().records()]
    reg = registry.Registry(records)
    validated = []
    validate_point = registry.IdentityRecord.validate_point
    monkeypatch.setattr(registry.IdentityRecord, "validate_point",
                        lambda rec, point: validated.append(point)
                        or validate_point(rec, point))
    first = reg.run_all()
    assert len(validated) == sum(len(rec.grid_points()) for rec in records)
    calls = {key: side.calls for key, side in counted.items()}
    assert all(calls.values())
    validated.clear()
    assert repr(reg.run_all()) == repr(first)
    assert validated == []
    assert {key: side.calls for key, side in counted.items()} == {
        key: 2 * n for key, n in calls.items()}


def _record_ids():
    return [r.identity_id for r in default_registry().records()]


ELLID_ERROR_NAMES = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.EllidError)}


@pytest.mark.parametrize("identity_id", _record_ids())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_evaluate_returns_a_row_anywhere_in_declared_ranges(identity_id, data):
    # Each range's ends are drawn as well as its interior.  A failed side
    # gives a note that names an EllidError; any other exception escapes.
    reg = default_registry()
    record = reg.get(identity_id)
    point = {p.name: data.draw(st.sampled_from(p.choices) if p.choices is not None
                               else st.sampled_from((p.lo, p.hi)) | st.floats(p.lo, p.hi),
                               label=p.name)
             for p in record.params}
    assume(record.constraint is None or record.constraint(point))
    for v in record.variants:
        report = reg.evaluate(identity_id, v.variant_id, point)
        assert isinstance(report, ResidualReport)
        assert report.note == "" or report.note.split(":")[0] in ELLID_ERROR_NAMES, \
            report.note


def test_adjudication_outcomes():
    reports = default_registry().run_all()
    by = {}
    for r in reports:
        by.setdefault((r.identity, r.variant), []).append(r.classification)

    def all_pass(identity, variant):
        return all(c is Classification.PASS for c in by[(identity, variant)])

    # stated forms that the audit confirms
    for identity, variant in (("P2", "base"), ("P2b", "base"), ("P3", "base"),
                              ("E7", "base"), ("E8", "base"), ("P4", "base"),
                              ("P4b", "base"), ("P5", "base"), ("P6", "base"),
                              ("P7b", "base"), ("P10", "base"),
                              ("P11b", "base"), ("P11b", "mixed-parity"),
                              ("P9", "parameter")):
        assert all_pass(identity, variant), (identity, variant)
    # adjudications where a registered variant wins over the stated form
    assert not all_pass("P6b", "base") and all_pass("P6b", "minus-half")
    assert not all_pass("P7", "base") and all_pass("P7", "classical")
    assert not all_pass("P8", "base") and all_pass("P8", "classical-drdk")
    assert not all_pass("P12", "base") and all_pass("P12", "derived-bilateral")
    # registered distractor variants must fail
    assert not all_pass("P2b", "nome-exp-pi-z")
    assert not all_pass("E7", "inverted-a")
    assert not all_pass("E8", "minus-tan")
    assert not all_pass("P5", "n-times-n-plus-1")
    assert not all_pass("P7b", "plus-half-closed")


def test_p10a_quadratic_case_fails_by_one_over_a():
    reports = default_registry().run(["P10a"])
    for r in reports:
        if r.params["fdeg"] == 2:
            a = 2.0 * PI / r.params["b"]
            assert r.classification is Classification.FAIL
            assert abs(r.lhs - (-1.0 / a)) < 1e-10
        else:
            assert r.classification is Classification.PASS


def test_p9_modulus_reading_recorded():
    reports = [r for r in default_registry().run(["P9"]) if r.variant == "modulus"]
    assert len(reports) == 7
    # half the grid leaves the real domain; those points carry an error note
    noted = [r for r in reports if r.note]
    classified = [r for r in reports if not r.note]
    assert len(noted) == 3
    assert all(r.classification is Classification.INCONCLUSIVE for r in noted)
    assert all(r.classification is Classification.FAIL for r in classified)


# -- polynomial machinery -------------------------------------------------------

def test_polynomial_spec_parts():
    assert PolynomialSpec.monomial(3).coefficients == (0.0, 0.0, 0.0, 1.0)
    assert PolynomialSpec.monomial(4) is PolynomialSpec.monomial(4)
    with pytest.raises(DomainError):
        PolynomialSpec((0.0,) * 10)
    # equal polynomials, each evaluated from its own views: f(-0.0) = 1 * -0.0 + f_0
    # is a zero with f_0's sign
    x, minus_zero_x = PolynomialSpec((0.0, 1.0)), PolynomialSpec((-0.0, 1.0))
    assert x == minus_zero_x
    assert math.copysign(1.0, x.eval(-0.0)) == 1.0
    assert math.copysign(1.0, minus_zero_x.eval(-0.0)) == -1.0


def test_zeta_collapsed_sum_quartic():
    F = PolynomialSpec.monomial(4)
    t = 1.5
    got = poly_even_zeta_sum(F, t)
    assert abs(got - t ** 4 / 60.0) < 1e-13
    # direct n-summation: g_4 sum_n Re[(t/(2 pi i n))^4]
    direct = 24.0 * sum(((complex(0.0, -1.0) * t / (2.0 * PI * n)) ** 4).real
                        for n in range(1, 2000))
    assert abs(got - direct) < 1e-11
    assert poly_even_zeta_sum(F, 0.0) == 0.0


def test_zeta_collapsed_sum_sextic_sign():
    F = PolynomialSpec.monomial(6)
    got = poly_even_zeta_sum(F, 1.0)
    want = -720.0 * (PI ** 6 / 945.0) / (2.0 * PI) ** 6
    assert abs(got - want) < 1e-14


def test_zeta_collapsed_sum_guards():
    with pytest.raises(DomainError):
        poly_even_zeta_sum(PolynomialSpec.monomial(3), 1.0)
    with pytest.raises(DomainError):
        poly_even_zeta_sum(PolynomialSpec.monomial(2), 1.0)  # F''(0) != 0


def test_zeta_collapsed_integral():
    F = PolynomialSpec.monomial(4)
    got = poly_even_zeta_integral(F)
    assert abs(got - 0.125) < 1e-13
    # quadrature cross-check of 2 int_1^2 inner(t)/t dt
    val, _ = quad(lambda t: poly_even_zeta_sum(F, t) / t, 1.0, 2.0,
                  epsabs=1e-14, epsrel=1e-14)
    assert abs(got - 2.0 * val) < 1e-12
    assert poly_even_zeta_integral(PolynomialSpec((0.0,))) == 0.0
    # linearity
    F2 = PolynomialSpec((0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0))  # x^4 + x^6
    want = (poly_even_zeta_integral(PolynomialSpec.monomial(4))
            + poly_even_zeta_integral(PolynomialSpec.monomial(6)))
    assert abs(poly_even_zeta_integral(F2) - want) < 1e-15


def test_weighted_log_theta4_sum_quadratic_reduces_to_lambert():
    # f = x^2 at s = 0, a = 1 collapses to d^2/ds^2 log theta4(i s/2, e^-pi),
    # which the product expansion ties to -sum n/sinh(pi n)
    f = PolynomialSpec.monomial(2)
    got = poly_weighted_log_theta4_sum(f, 1.0, 0.0)
    assert abs(got.value + S4_n_over_sinh(1.0).value) < 1e-12


def test_weighted_log_theta4_zero_polynomial():
    f = PolynomialSpec((0.0,))
    assert poly_weighted_log_theta4_sum(f, 1.0, 0.2).value == 0.0
    assert sides._log_theta4_shift_sum(f, 1.0, 0.2).value == 0.0


def test_weighted_log_theta2_pole_propagates():
    with pytest.raises(PoleError):
        poly_weighted_log_theta2_sum(PolynomialSpec.monomial(1), 1.0, PI / 2)


@pytest.mark.parametrize("bilateral, args", [
    (registry._bilateral_exp_sinh, (PolynomialSpec.monomial(2), PI * 0.2, 1.0, 1.0, 1.0, True)),
    (registry._poly_exp_bilateral_exp_sinh, (PolynomialSpec((0.0, 1.0, 1.0)), 1.0, 1.2)),
    (registry._bilateral_exp_sinh, (sides._P12_POLY, PI ** 2, 2.0 * PI, 1.0, PI / 2, False)),
], ids=["P11a", "P11b", "P12"])
def test_bilateral_sum_outside_its_record_domain_does_not_converge(bilateral, args):
    # The records' constraints keep these sums convergent; called past them
    # they overflow a term or reach the cap rather than return a value.
    with pytest.raises(NonConvergenceError):
        bilateral(*args)


# -- serialization ---------------------------------------------------------------

def test_render_json_is_valid_and_ordered():
    reports = default_registry().run(["E4"])
    text = render_json(reports)
    parsed = json.loads(text)
    assert len(parsed) == 3
    assert list(parsed[0].keys()) == ["identity", "variant", "params", "lhs",
                                      "rhs", "abs_residual", "rel_residual",
                                      "classification", "terms", "note"]
    assert parsed[0]["identity"] == "E4"
    assert isinstance(parsed[0]["lhs"], float)
    assert render_json([]) == "[]\n"



_REPORT_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\uffff\U0001f600\U0010ffff'),
    st.characters()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(identity=_REPORT_TEXT, variant=_REPORT_TEXT, key=_REPORT_TEXT,
       value=_REPORT_TEXT, note=_REPORT_TEXT)
def test_render_json_escapes_strings_as_json_dumps(identity, variant, key, value, note):
    r = ResidualReport(identity, variant, {key: value}, 1.5, 1.5, 0.0, 0.0,
                       Classification.PASS, {"lhs": 3, "rhs": 4}, note)
    text = render_json([r])
    assert text.startswith(
        f'[\n  {{"identity": {json.dumps(identity)}, '
        f'"variant": {json.dumps(variant)}, '
        f'"params": {{{json.dumps(key)}: {json.dumps(value)}}}, "lhs": 1.5, ')
    assert text.endswith(f'"note": {json.dumps(note)}}}\n]\n')
    assert text.isascii()
    assert json.loads(text) == [{
        "identity": identity, "variant": variant, "params": {key: value},
        "lhs": 1.5, "rhs": 1.5, "abs_residual": 0.0, "rel_residual": 0.0,
        "classification": "PASS", "terms": {"lhs": 3, "rhs": 4}, "note": note}]


def test_render_json_nan_becomes_null():
    # the golden P9 modulus row at x = 1/2, where x/(x-1) = -1 has no real K
    r = default_registry().evaluate("P9", "modulus", {"x": 0.5})
    parsed = json.loads(render_json([r]))
    assert parsed[0]["lhs"] is None
    assert parsed[0]["note"].startswith("DomainError: ")


def test_render_csv_shape():
    reports = default_registry().run(["P6b"])
    lines = render_csv(reports).splitlines()
    assert lines[0] == ("identity,variant,params,lhs,rhs,abs_residual,"
                        "rel_residual,classification,terms,note")
    assert len(lines) == 1 + len(reports)


def test_render_text_marks_adjudication():
    reg = default_registry()
    text = render_text(default_registry().run(["P6b"]), reg)
    assert "P6b adjudication" in text
    assert "minus-half" in text


def test_float_serialization_17_digits():
    from ellid.reporting import format_number
    assert format_number(0.1) == "0.10000000000000001"
    assert format_number(1.0) == "1"
    # 17 significant digits always round-trip binary64
    for x in (0.1, -0.0018639813783286376, math.pi, 1e-300, 12345.6789):
        assert float(format_number(x)) == x
