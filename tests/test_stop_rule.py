"""The series stop rules against the rule as first written.

``sum_series`` and ``theta._log_product`` test the cheap half of their stop
rule first and compute the ratio and tail only when it holds.  The copies
below compute everything for every term, in the original order.  Both must
give the same bits, ``terms_used`` and errors on any sequence of (term,
envelope) pairs, the degenerate envelopes (0, negative, NaN, infinite)
included.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from ellid.errors import DomainError, EllidError, NonConvergenceError
from ellid.series import SeriesResult, TruncationPolicy, sum_series
from ellid.theta import _log_product

TOLERANCES = (1e-14, 1e-8, 1e-3, 0.25, 1.0, 10.0)
GUARD = 0.99  # the ratio guard of the absolute rule
CAP = 9  # the longest sequence drawn; caps run 1..CAP


def _kahan_add(total, comp, term):
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _reference_sum_series(term_fn, policy, start=1, initial=0.0, relative=False):
    total = initial
    comp = 0.0
    prev_env = math.inf
    guard = 1.0 if relative else GUARD
    for n in range(start, start + policy.cap):
        try:
            term, env = term_fn(n)
        except OverflowError:
            raise NonConvergenceError(
                f"term overflow at n={n}; the series value is not "
                f"representable in binary64") from None
        except EllidError:
            raise
        except ValueError as exc:
            raise DomainError(f"term at n={n} is undefined: {exc}") from None
        total, comp = _kahan_add(total, comp, term)
        if env == 0.0:
            return SeriesResult(total, n - start + 1, 0.0)
        if 0.0 < prev_env < math.inf:
            ratio = env / prev_env
            if ratio < guard:
                tail = env * ratio / (1.0 - ratio)
                scale = max(1.0, abs(total)) if relative else 1.0
                if env < policy.tolerance * scale and tail <= policy.tolerance:
                    return SeriesResult(total, n - start + 1, tail)
        prev_env = env
    raise NonConvergenceError(
        f"series did not meet the stop rule within cap={policy.cap} "
        f"(last envelope {prev_env!r})")


def _reference_log_product(ratio, policy):
    logsum = 0.0
    comp = 0.0
    x = ratio
    for n in range(1, policy.cap + 1):
        logsum, comp = _kahan_add(logsum, comp, math.log1p(-x))
        x_next = x * ratio
        tail = x_next / (1.0 - ratio)
        if tail <= policy.tolerance:
            return SeriesResult(math.exp(logsum), n, tail)
        x = x_next
    raise NonConvergenceError(f"q-product did not converge within cap={policy.cap}")


def _outcome(fn, *args, **kwargs):
    """Everything a caller can observe: bits, count, or error type and text."""
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return float.hex(res.value), res.terms_used, float.hex(res.tail_bound)


_SPECIAL = [0.0, -0.0, -1.0, -1e-300, 5e-324, math.nan, -math.nan, math.inf,
            -math.inf, 1.0, 1e300]
# Multiples of a threshold that land on it, either side of it, and on the
# ratio and tail edges (4 tol then 2 tol: ratio 1/2 and tail exactly tol,
# under the relative threshold once |sum| > 2).
_MULTIPLES = [0.0, 0.25, 0.3125, 0.5, 1.0, 2.0, 4.0, 8.0]
# Small dyadic terms keep the partial sums exact, so an envelope drawn as a
# multiple of tol * |partial sum| lands on the relative threshold.
_TERM = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 8.0, 3.0]),
                  st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
                  st.floats())
_FAILURE = st.sampled_from([None] * 12 + [OverflowError("math range error"),
                                          ValueError("math domain error"),
                                          DomainError("refused term")])


@st.composite
def _series(draw):
    """(tolerance, initial, terms, envelopes) for one run of up to CAP terms.

    Each envelope is a multiple of tol, a multiple of tol * |partial sum|,
    a term of a decaying, flat or growing geometric envelope, or any float,
    the degenerate ones included.  Without ``terms`` the term is its
    envelope, as in a positive series.
    """
    tolerance = draw(st.sampled_from(TOLERANCES))
    initial = draw(st.sampled_from([0.0, 1.0, -3.0, 6.0, 1e6, math.nan, math.inf]))
    own_terms = draw(st.booleans())
    e0 = draw(st.sampled_from([1e-16, 1e-4, 0.25, 1.0, 30.0]))
    r = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99, 0.995, 1.0, 4.0]))
    terms, envs = [], []
    partial = initial
    for i in range(CAP):
        term = draw(_TERM) if own_terms else None
        kind = draw(st.sampled_from(["tol", "partial", "geometric", "any"]))
        if kind == "tol":
            env = tolerance * draw(st.sampled_from(_MULTIPLES))
        elif kind == "partial":  # the sum through this term, where it is known
            reached = partial if term is None else partial + term
            env = tolerance * abs(reached) * draw(st.sampled_from(_MULTIPLES))
        elif kind == "geometric":
            env = e0 * r ** i
        else:
            env = draw(st.one_of(st.sampled_from(_SPECIAL), st.floats()))
        term = env if term is None else term
        partial += term
        terms.append(term)
        envs.append(env)
    return tolerance, initial, terms, envs


@settings(max_examples=800)
@given(series=_series(),
       failure=_FAILURE,
       failure_at=st.integers(0, CAP - 1),
       cap=st.integers(1, CAP),
       start=st.sampled_from([0, 1, 5]),
       relative=st.booleans())
def test_sum_series_matches_reference(series, failure, failure_at, cap, start,
                                      relative):
    tolerance, initial, terms, envs = series

    def term_fn(n):
        i = n - start
        if failure is not None and i == failure_at:
            raise failure
        return terms[i], envs[i]

    policy = TruncationPolicy(tolerance, cap)
    assert (_outcome(sum_series, term_fn, policy, start, initial, relative)
            == _outcome(_reference_sum_series, term_fn, policy, start, initial, relative))


# Runs that land exactly on an edge of the rule, where < and <= differ:
# (tolerance, relative, initial, terms, envelopes, cap).
_EDGES = {
    # envelope == tol, ratio 1/4, tail 1/12: no stop
    "envelope-at-tol": (0.25, False, 0.0, [0.0] * 3, [1.0, 0.25, 0.0625], 3),
    # envelope == tol * |partial| = 1, ratio 1/16: no stop
    "envelope-at-relative-threshold": (0.25, True, 3.0, [1.0, 0.0, 0.0],
                                       [16.0, 1.0, 0.01], 3),
    # tail == tol (envelope 1/2 < 1, ratio 1/2): stop at n = 2
    "tail-at-tol": (0.25, True, 4.0, [0.0] * 3, [1.0, 0.5, 0.25], 3),
    # ratio == guard == 0.99: no stop (ratio <= guard would stop, tail 98.01)
    "ratio-at-guard": (100.0, False, 0.0, [0.0] * 3, [1.0, 0.99, 0.99], 3),
    # envelope below tol, ratio 1, then growing: no stop, cap error
    "flat-then-growing": (0.25, False, 0.0, [0.0] * 3, [0.1, 0.1, 0.2], 3),
    # a NaN partial sum: relative scale 1
    "nan-partial": (0.25, True, math.nan, [0.0] * 3, [1.0, 0.1, 0.01], 3),
}


@pytest.mark.parametrize("edge", sorted(_EDGES))
def test_sum_series_edges_match_reference(edge):
    tolerance, relative, initial, terms, envs, cap = _EDGES[edge]

    def term_fn(n):
        return terms[n - 1], envs[n - 1]

    policy = TruncationPolicy(tolerance, cap)
    assert (_outcome(sum_series, term_fn, policy, 1, initial, relative)
            == _outcome(_reference_sum_series, term_fn, policy, 1, initial, relative))


@settings(max_examples=300)
@given(ratio=st.one_of(st.sampled_from([0.0, 5e-324, 1e-8, 0.25, 0.5, 0.9,
                                        1.0 - 2.0 ** -53]),
                       st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
       cap=st.one_of(st.integers(1, CAP), st.just(10000)),
       tolerance=st.sampled_from(TOLERANCES))
def test_log_product_matches_reference(ratio, cap, tolerance):
    policy = TruncationPolicy(tolerance, cap)
    assert _outcome(_log_product, ratio, policy) == _outcome(_reference_log_product,
                                                             ratio, policy)


def test_log_product_stops_where_the_tail_first_meets_the_tolerance():
    # ratio 0.5, tol 0.25: tails 0.5, 0.25 -> stops at n = 2 with tail 0.25.
    res = _log_product(0.5, TruncationPolicy(0.25, 9))
    assert (res.terms_used, res.tail_bound) == (2, 0.25)
