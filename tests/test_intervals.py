import multiprocessing
import os
from collections import Counter
from fractions import Fraction

import pytest

from ffcheb import intervals
from ffcheb.covers import artin_schreier, kummer, product, trivial
from ffcheb.errors import IntervalDegenerate, NotAConjugacyClass, TooLarge
from ffcheb.factypes import B, Delta, FactorizationType, OneC, R
from ffcheb.ffield import make_field
from ffcheb.intervals import (
    IntervalSpec,
    _count_range,
    _pool_counts,
    _usable_cpus,
    census,
    count_prime_frobenius_interval,
    interval_lambda_counts,
    interval_mean,
    parse_report,
)
from ffcheb.polys import Poly, RationalFn, count_primes, parse_poly
from ffcheb.wreath import closed_form_mean, mean_class_function
from test_interval_sieve import s3_splitting

F5 = make_field(5)


@pytest.fixture(scope="module")
def quad():
    return kummer(F5, 2, "T^3-3*T^2+2*T")


def I(f0text, m, ctx=F5):
    return IntervalSpec(parse_poly(ctx, f0text), m)


def test_interval_size_and_validation():
    spec = I("T^4", 2)
    assert spec.size() == 125 and spec.n == 4
    with pytest.raises(IntervalDegenerate):
        I("T^4", 4)
    with pytest.raises(IntervalDegenerate):
        I("T^4", -1)


def test_full_interval_prime_mass(quad):
    # summing 1_C over all classes on the full interval recovers the exact
    # prime density pi_q(n)/q^n, ramified primes excluded from classes
    n = 3
    full = I(f"T^{n}", n - 1)
    total = Fraction(0)
    for ci in range(len(quad.group.classes)):
        rep = interval_mean(quad, OneC(ci), full)
        total += rep.empirical_mean
    ram_deg_n = sum(1 for P in quad.ramified_primes() if P.degree == n)
    assert total == Fraction(count_primes(F5, n) - ram_deg_n, 5**n)


def test_trivial_cover_reduces_to_prime_counting():
    cov = trivial(F5)
    n = 4
    rep = interval_mean(cov, OneC(0), I("T^4", n - 1))
    assert rep.predicted_mean == Fraction(1, n)
    assert rep.empirical_mean == Fraction(count_primes(F5, n), 5**n)


def test_delta_empty_is_zero(quad):
    rep = interval_mean(quad, Delta(FactorizationType({})), I("T^4", 2))
    assert rep.empirical_mean == 0 and rep.predicted_mean == 0


def test_count_prime_frobenius_interval_n1():
    cov = kummer(F5, 2, "T")
    full = IntervalSpec(Poly.x(F5), 0)
    assert count_prime_frobenius_interval(cov, 1, full) == 2  # non-residues 2, 3
    assert count_prime_frobenius_interval(cov, 0, full) == 2  # residues 1, 4
    with pytest.raises(NotAConjugacyClass):
        count_prime_frobenius_interval(cov, 7, full)


def test_chunk_order_independence(quad):
    spec = I("T^4", 2)
    whole, exc = _count_range(quad, spec, 0, 125, 0)
    pieces = Counter()
    for a, b in ((40, 125), (0, 17), (17, 40)):
        part, _ = _count_range(quad, spec, a, b, 0)
        pieces.update(part)
    assert pieces == whole and exc == 0


def test_multiprocessing_matches_serial(quad):
    # the fan-out itself: the interval is far below the pool's floor, so
    # interval_lambda_counts would count it in this process
    spec = I("T^4", 1)
    assert _pool_counts(quad, spec, 0, 2) == _count_range(quad, spec, 0, 25, 0)


POOL_KINDS = {  # kind: (cover, f0, m), built only when its test runs
    "artin_schreier": lambda: (
        artin_schreier(F5, RationalFn(Poly.one(F5), parse_poly(F5, "T^2"))), "T^4+T", 2
    ),
    "artin_schreier_wild": lambda: (
        artin_schreier(make_field(2), "T", force_wild=True), "T^5", 3
    ),
    "product": lambda: (
        product([
            kummer(F5, 2, "T^3-3*T^2+2*T"),
            artin_schreier(F5, RationalFn(Poly.one(F5), parse_poly(F5, "T-3"))),
        ]),
        "T^4+T",
        2,
    ),
    "product_wild": lambda: (
        product([
            kummer(make_field(5, 2), 2, "T^3+T+1"),
            artin_schreier(make_field(5, 2), "T", force_wild=True),
        ]),
        "T^3",
        2,
    ),
    "splitting": lambda: (s3_splitting(make_field(13)), "T^4+T^3", 1),
}


@pytest.mark.parametrize("kind", sorted(POOL_KINDS))
def test_pool_matches_serial_on_every_kind(kind):
    # each worker rebuilds the cover from its text, --force-wild included
    cov, f0, m = POOL_KINDS[kind]()
    spec = IntervalSpec(parse_poly(cov.ctx, f0), m)
    got = _pool_counts(cov, spec, 0, 2)
    assert got == _count_range(cov, spec, 0, spec.size(), 0)
    if kind == "splitting":
        assert got[1] > 0  # the workers' excluded counts are summed too


def test_no_pool_below_the_floor(quad, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started below the floor")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    spec = I("T^4", 2)
    assert spec.size() < 2 * intervals._POOL_FLOOR
    quad._interval_cache.clear()
    assert interval_lambda_counts(quad, spec, threads=2) == _count_range(quad, spec, 0, 125, 0)


class _InlinePool:
    """A multiprocessing.Pool stand-in that records the requested number of
    processes, starts none and maps in this process."""

    def __init__(self, requested, processes):
        requested.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


@pytest.mark.parametrize(
    "floor, cpus, expected",
    [(4, 3, 3), (50, 64, 2), (100, 64, None), (4, 1, None)],  # 125 elements
)
def test_workers_capped_by_cpus_and_floor(quad, monkeypatch, floor, cpus, expected):
    requested = []
    monkeypatch.setattr(multiprocessing, "Pool", lambda n: _InlinePool(requested, n))
    monkeypatch.setattr(intervals, "_POOL_FLOOR", floor)
    monkeypatch.setattr(intervals, "_usable_cpus", lambda: cpus)
    spec = I("T^4", 2)
    quad._interval_cache.clear()
    got = interval_lambda_counts(quad, spec, threads=1000)
    assert requested == ([expected] if expected else [])
    assert got == _count_range(quad, spec, 0, 125, 0)


def test_usable_cpus():
    assert 1 <= _usable_cpus() <= (os.cpu_count() or 1)


def test_threads_above_the_floor(monkeypatch):
    # the public route through a real 2-worker pool, on any host
    requested = []
    real_pool = multiprocessing.Pool

    def pool(n):
        requested.append(n)
        return real_pool(n)

    cov = kummer(make_field(191), 2, "T^3-3*T^2+2*T")
    spec = IntervalSpec(parse_poly(cov.ctx, "T^3+T^2"), 1)
    assert spec.size() >= 2 * intervals._POOL_FLOOR
    one = interval_lambda_counts(cov, spec, threads=1)
    cov._interval_cache.clear()
    monkeypatch.setattr(multiprocessing, "Pool", pool)
    monkeypatch.setattr(intervals, "_usable_cpus", lambda: 2)
    assert interval_lambda_counts(cov, spec, threads=2) == one
    assert requested == [2]


def test_interval_too_large():
    cov = kummer(make_field(7, 2), 2, "T")
    with pytest.raises(TooLarge):
        interval_lambda_counts(cov, IntervalSpec(parse_poly(cov.ctx, "T^9"), 8))


def test_report_roundtrip_and_determinism(quad):
    rep1 = interval_mean(quad, B(), I("T^4", 2), seed=3)
    quad._interval_cache.clear()
    rep2 = interval_mean(quad, B(), I("T^4", 2), seed=3)
    assert rep1.serialize() == rep2.serialize()
    parsed = parse_report(rep1.serialize())
    assert parsed["fn"] == "B"
    assert parsed["seed"] == "3"
    assert parsed["empirical_mean"] == str(rep1.empirical_mean.numerator) + "/" + str(
        rep1.empirical_mean.denominator
    )
    assert parsed["regime.m_in_theorem_range"] == "true"


def test_regime_flags():
    cov = kummer(F5, 2, "T")
    rep = interval_mean(cov, B(), I("T^3", 1))
    assert rep.regime["m_in_theorem_range"] is False
    rep2 = interval_mean(cov, B(), I("T^4", 2))
    assert rep2.regime["m_in_theorem_range"] is True


def test_census_pooled_bucket_small(quad):
    result = census(quad, I("T^4", 2))
    # non-squarefree density is at most about n/q of the interval
    assert result.nonsquarefree_empirical <= Fraction(4, 5)
    assert result.nonsquarefree_empirical > 0
    assert result.tv_distance < Fraction(1, 1)
    # rows cover every predicted class type
    from ffcheb.wreath import enumerate_class_types

    lams = {row.lam for row in result.rows}
    for ct, _ in enumerate_class_types(quad.group, 4):
        assert ct.to_lambda(quad.group) in lams


@pytest.mark.parametrize("order", [2, 6, 10])
def test_class_means_after_a_census(quad, order):
    # census and mean_class_function read one class-type table kept on the
    # group; after a census the means still equal their closed forms
    if order == 2:
        cov = quad
    elif order == 6:
        cov = s3_splitting(make_field(13))
    else:
        cov = product([
            quad,
            artin_schreier(F5, RationalFn(Poly.one(F5), parse_poly(F5, "T-3"))),
        ])
    G = cov.group
    assert G.n == order
    census(cov, I("T^3", 1, cov.ctx))
    for fn in [OneC(ci) for ci in range(len(G.classes))] + [B(), R()]:
        assert mean_class_function(fn, G, 3) == closed_form_mean(fn, G, 3)


def test_census_empirical_masses_sum_to_one(quad):
    result = census(quad, I("T^4", 2))
    total = sum(r.empirical for r in result.rows) + result.nonsquarefree_empirical
    assert total == 1


def test_wild_override_negative_control():
    F2 = make_field(2)
    cov = artin_schreier(F2, "T", force_wild=True)
    spec = IntervalSpec(parse_poly(F2, "T^5"), 3)
    rep = interval_mean(cov, OneC(0), spec)
    assert rep.regime["wild_override"] is True
    assert rep.regime["tame_at_infinity"] is False
    # the wild cover pins Frobenius to the top fixed coefficient: within one
    # interval every prime gets the same class, so no equidistribution
    c0 = count_prime_frobenius_interval(cov, 0, spec)
    c1 = count_prime_frobenius_interval(cov, 1, spec)
    assert c0 == 0 or c1 == 0
    assert c0 + c1 > 0



def test_forced_wild_product_report():
    # a product is wild when a component was forced wild, and says so
    cov, f0, m = POOL_KINDS["product_wild"]()
    rep = interval_mean(cov, OneC(0), IntervalSpec(parse_poly(cov.ctx, f0), m))
    assert rep.regime["wild_override"] is True
    assert rep.regime["tame_at_infinity"] is False
    assert POOL_KINDS["product"]()[0].wild_override is False
