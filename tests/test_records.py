"""The record contract: constructors, defaults, immutability, equality,
hashing and validation messages of every public record type."""

import inspect
import math

import pytest

from ellid import (Classification, Convention, DerivativeEstimate,
                   DomainError, EllipticArgument, Expectation, IdentityRecord,
                   Nome, PolynomialSpec, Registry, ResidualReport,
                   SeriesResult, SingularArgumentError, SingularSolve,
                   TruncationPolicy, Variant, DEFAULT_POLICY, default_registry)
from ellid.registry import ParamSpec


def _side(point, policy):
    return SeriesResult(1.0)


_PARAM = ParamSpec("a", (1.0, 2.0))
_VARIANT = Variant("base", _side, _side)

# (class, field names in constructor order, the positional arguments given,
#  the defaults of the fields those arguments leave out)
RECORDS = [
    (SeriesResult, ("value", "terms_used", "tail_bound"), (1.5,),
     {"terms_used": 0, "tail_bound": 0.0}),
    (SingularSolve, ("a", "k", "iterations", "residual"),
     (1.0, EllipticArgument(0.5, Convention.MODULUS), 52, 0.0), {}),
    (DerivativeEstimate, ("value", "error_estimate"), (2.0, 1e-9), {}),
    (ParamSpec, ("name", "grid", "lo", "hi", "choices"), ("a", (1.0, 2.0)),
     {"lo": None, "hi": None, "choices": None}),
    (Variant, ("variant_id", "lhs", "rhs"), ("base", _side, _side), {}),
    (IdentityRecord,
     ("identity_id", "anchor", "params", "variants", "expected", "constraint",
      "constraint_note"),
     ("X1", "anchor", (_PARAM,), (_VARIANT,), Expectation.EXPECT_PASS),
     {"constraint": None, "constraint_note": ""}),
    (ResidualReport,
     ("identity", "variant", "params", "lhs", "rhs", "abs_residual",
      "rel_residual", "classification", "terms", "note"),
     ("X1", "base", {"a": 1.0}, 1.0, 1.0, 0.0, 0.0, Classification.PASS,
      {"lhs": 0, "rhs": 0}, ""), {}),
    (EllipticArgument, ("value", "convention"), (0.5, Convention.MODULUS), {}),
    (Nome, ("q",), (0.5,), {}),
    (TruncationPolicy, ("tolerance", "cap"), (),
     {"tolerance": 1e-14, "cap": 10000}),
    (PolynomialSpec, ("coefficients",), ((0.0, 1.0),), {}),
]

_ids = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, fields, args, defaults", RECORDS, ids=_ids)
def test_record_builds_positionally_and_by_keyword(cls, fields, args, defaults):
    assert list(inspect.signature(cls).parameters) == list(fields)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    for name, value in zip(fields, args):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    for name, value in defaults.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, fields, args, defaults", RECORDS, ids=_ids)
def test_frozen_record_rejects_assignment(cls, fields, args, defaults):
    record = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("cls, fields, args, defaults", RECORDS, ids=_ids)
def test_equal_records_compare_equal(cls, fields, args, defaults):
    a, b = cls(*args), cls(*args)
    assert a == b
    assert not a != b
    # A ResidualReport holds dicts, so it has never hashed.
    if cls is not ResidualReport:
        assert hash(a) == hash(b)


def test_records_with_different_values_differ():
    assert TruncationPolicy(cap=5) != DEFAULT_POLICY
    assert SeriesResult(1.0, 3) != SeriesResult(1.0, 4)
    assert (EllipticArgument(0.25, Convention.MODULUS)
            != EllipticArgument(0.25, Convention.PARAMETER))


def test_nome_equality_and_hash_follow_q():
    assert hash(Nome(0.5)) == hash((0.5,))
    assert Nome(0.5) != Nome(0.25)


def test_default_policy_is_shared_and_immutable():
    with pytest.raises(AttributeError):
        DEFAULT_POLICY.cap = 1
    assert DEFAULT_POLICY == TruncationPolicy()


_SINGULAR = 1.0 - 1e-13

_HUGE = 10 ** 400  # float(_HUGE) overflows

INVALID = [
    (lambda: EllipticArgument(math.inf, Convention.MODULUS), DomainError,
     "elliptic argument must be finite, got inf"),
    (lambda: EllipticArgument(math.nan, Convention.PARAMETER), DomainError,
     "elliptic argument must be finite, got nan"),
    (lambda: EllipticArgument(-0.25, Convention.MODULUS), DomainError,
     "elliptic argument must be >= 0, got -0.25"),
    (lambda: EllipticArgument(1.5, Convention.PARAMETER), DomainError,
     "elliptic argument must be <= 1, got 1.5"),
    (lambda: EllipticArgument(_SINGULAR, Convention.MODULUS),
     SingularArgumentError,
     "elliptic argument 0.9999999999999 is inside the singular band "
     "(0.999999999999, 1.0)"),
    (lambda: Nome(1.0), DomainError, "nome must lie in [0, 1), got 1.0"),
    (lambda: Nome(-0.5), DomainError, "nome must lie in [0, 1), got -0.5"),
    (lambda: Nome(math.nan), DomainError, "nome must lie in [0, 1), got nan"),
    (lambda: TruncationPolicy(tolerance=0.0), DomainError,
     "tolerance must be positive, got 0.0"),
    (lambda: TruncationPolicy(tolerance=math.inf), DomainError,
     "tolerance must be positive, got inf"),
    (lambda: TruncationPolicy(cap=0), DomainError, "cap must be >= 1, got 0"),
    (lambda: TruncationPolicy(1e-14, 2.5), DomainError, "cap must be an integer, got 2.5"),
    (lambda: TruncationPolicy(1e-14, 1e9), DomainError,
     "cap must be an integer, got 1000000000.0"),
    (lambda: TruncationPolicy(cap=True), DomainError, "cap must be an integer, got True"),
    # a bool is not a number here, and a string is refused as a DomainError
    (lambda: TruncationPolicy(True, 50), DomainError, "tolerance must be positive, got True"),
    (lambda: TruncationPolicy("1e-14"), DomainError,
     "tolerance must be positive, got '1e-14'"),
    (lambda: Nome(False), DomainError, "nome must lie in [0, 1), got False"),
    (lambda: Nome("0.5"), DomainError, "nome must lie in [0, 1), got '0.5'"),
    (lambda: EllipticArgument(True, Convention.MODULUS), DomainError,
     "elliptic argument must be finite, got True"),
    (lambda: EllipticArgument("0.5", Convention.MODULUS), DomainError,
     "elliptic argument must be finite, got '0.5'"),
    (lambda: EllipticArgument(0.5, "bogus"), DomainError,
     "elliptic convention must be 'modulus' or 'parameter', got 'bogus'"),
    # ids of their own, so the (0.0, inf) row below keeps its id
    pytest.param(lambda: PolynomialSpec((True, 2.0)), DomainError,
                 "polynomial coefficients must be finite", id="polynomial-bool"),
    pytest.param(lambda: PolynomialSpec(("1",)), DomainError,
                 "polynomial coefficients must be finite", id="polynomial-str"),
    (lambda: PolynomialSpec(()), DomainError,
     "polynomial needs at least one coefficient"),
    (lambda: PolynomialSpec((1.0,) * 10), DomainError,
     "polynomial degree 9 above cap 8"),
    (lambda: PolynomialSpec((0.0, math.inf)), DomainError,
     "polynomial coefficients must be finite"),
    (lambda: Nome.from_exponent(0.0), DomainError,
     "exponent must be positive, got 0.0"),
    (lambda: PolynomialSpec.monomial(-1), DomainError,
     "monomial degree must be >= 0, got -1"),
    (lambda: Registry([default_registry().get("P1")] * 2), ValueError,
     "duplicate identity id 'P1'"),
    # an int too large for a float is not a finite number
    pytest.param(lambda: EllipticArgument(_HUGE, Convention.MODULUS), DomainError,
                 f"elliptic argument must be finite, got {_HUGE!r}", id="huge-int-argument"),
    pytest.param(lambda: Nome(_HUGE), DomainError,
                 f"nome must lie in [0, 1), got {_HUGE!r}", id="huge-int-nome"),
    pytest.param(lambda: TruncationPolicy(_HUGE), DomainError,
                 f"tolerance must be positive, got {_HUGE!r}", id="huge-int-tolerance"),
    pytest.param(lambda: PolynomialSpec((_HUGE,)), DomainError,
                 "polynomial coefficients must be finite", id="huge-int-polynomial"),
]


@pytest.mark.parametrize("build, error, message", INVALID)
def test_invalid_record_raises_same_error(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


# (a record, a valid change, an invalid change, the error text of the latter)
REPLACED = [
    (EllipticArgument(0.5, Convention.MODULUS), {"convention": Convention.PARAMETER},
     {"value": 7.0}, "elliptic argument must be <= 1, got 7.0"),
    (Nome(0.5), {"q": 0.25}, {"q": 3.0}, "nome must lie in [0, 1), got 3.0"),
    (TruncationPolicy(), {"cap": 5}, {"tolerance": -1.0, "cap": 0},
     "tolerance must be positive, got -1.0"),
    (PolynomialSpec((1.0,)), {"coefficients": (0.0, -0.0, 1.0)},
     {"coefficients": (0.0, math.inf)}, "polynomial coefficients must be finite"),
]


@pytest.mark.parametrize("record, valid, invalid, message", REPLACED,
                         ids=[type(case[0]).__name__ for case in REPLACED])
def test_make_and_replace_build_through_the_constructor(record, valid, invalid, message):
    cls = type(record)
    built = cls(*{**record._asdict(), **valid}.values())
    for made in (record._replace(**valid), cls._make(built)):
        assert type(made) is cls and made == built
        # PolynomialSpec's views live on the instance; the others have none
        assert getattr(made, "__dict__", None) == getattr(built, "__dict__", None)
    for make in (lambda: record._replace(**invalid),
                 lambda: cls._make({**record._asdict(), **invalid}.values())):
        with pytest.raises(DomainError) as excinfo:
            make()
        assert str(excinfo.value) == message
