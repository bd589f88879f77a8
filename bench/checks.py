"""Checks on a workload's exact results, run after the timed phase.

Two kinds.  The hash check compares a SHA-256 of the canonical JSON of all
results with the value recorded in expected.json for that seed (seed 0 and
the other recorded seeds).  The invariant checks hold for every input:

  * interval tallies count q^(m+1) - excluded polynomials;
  * census masses (empirical and predicted) each sum to 1;
  * <R> = 1 and <B> = rising_binom(1/|G|, n) on the wreath side;
  * each reported 1C mean equals the prime count in the tally over its size;
  * on a seeded sample of interval elements, B and R evaluated on the
    factorization type equal direct_b / direct_r from splitting data;
  * per-degree class tallies plus ramified primes give count_primes(q, n),
    psi_E(n) for n <= 6 agrees with the class tallies, and every tally lies
    in the classical Chebotarev band of acceptance criterion 5;
  * CLI rows and reports agree with each other and with the closed forms.

Each check yields (name, ok, detail); an exception inside a check is a
failed check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from ffcheb import factypes, polys, wreath

EXPECTED = Path(__file__).resolve().with_name("expected.json")


def results_hash(results: dict) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expected_hash(workload: str, seed: int) -> str | None:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _guard(name, fn):
    try:
        ok, detail = fn()
    except Exception as e:  # a check that raises is a failed check
        return (name, False, f"{type(e).__name__}: {e}")
    return (name, bool(ok), detail)


def run_checks(wl, results: dict) -> list[tuple[str, bool, str]]:
    out = []
    want = expected_hash(wl.name, wl.seed)
    if want is not None:
        got = results_hash(results)
        out.append(("results_hash", got == want, f"{got[:16]} vs recorded {want[:16]}"))
    if wl.name in ("interval_grid", "interval_kinds"):
        for label, cov, I in wl.items:
            out.extend(_interval_checks(label, cov, I, results[label], wl.seed))
    elif wl.name == "prime_tallies":
        for label, cov in wl.items:
            out.extend(_prime_checks(label, cov, results[label]))
    else:
        out.extend(_cli_checks(results))
    return out


# ---------------------------------------------------------------------------


def _interval_checks(label, cov, I, r, seed):
    n, G = r["n"], r["group_order"]
    denom = r["size"] - r["excluded"]

    def total():
        got = sum(c for _, c in r["counts"])
        return got == denom, f"{got} tallied, {denom} expected"

    def census_mass():
        emp = sum(Fraction(e) for _, _, e, _ in r["census"]) + Fraction(r["census_nonsquarefree"][1])
        pred = sum(Fraction(p) for _, _, _, p in r["census"])
        return emp == 1 and pred == 1, f"empirical {emp}, predicted {pred}"

    def wreath_means():
        b, rr = Fraction(r["means"]["B"][1]), Fraction(r["means"]["R"][1])
        want_b = wreath.rising_binom(Fraction(1, G), n)
        return rr == 1 and b == want_b, f"<R> = {rr}, <B> = {b} (want {want_b})"

    def one_c_means():
        counts = dict(r["counts"])
        bad = []
        for fn, (emp, _, _) in r["means"].items():
            if fn.startswith("1C:"):
                w = r["class_to_omega"][int(fn[3:])]
                if Fraction(emp) != Fraction(counts.get(f"{n}:1:{w}=1", 0), denom):
                    bad.append(fn)
        return not bad, f"1C means disagreeing with the tally: {bad}"

    checks = [
        _guard(f"{label}.tally_total", total),
        _guard(f"{label}.census_mass", census_mass),
        _guard(f"{label}.wreath_means", wreath_means),
        _guard(f"{label}.one_c_means", one_c_means),
    ]
    if cov.kind != "splitting":
        checks.append(_guard(f"{label}.direct_b_r_sample", lambda: _sample_b_r(cov, I, seed)))
    return checks


def _sample_b_r(cov, I, seed, k=24):
    """B and R on lambda_of_poly against the splitting-data route."""
    rng = random.Random(f"ffcheb-bench/{seed}/sample/{cov.ctx.q}/{cov.kind}")
    ctx = cov.ctx
    base = list(I.f0.coeffs)
    bad = 0
    for _ in range(k):
        cs = list(base)
        for j in range(I.m + 1):
            cs[j] = ctx.add(cs[j], rng.randrange(ctx.q))
        f = polys.Poly(ctx, cs)
        lam = factypes.lambda_of_poly(cov, f)
        if factypes.evaluate(factypes.B(), lam, cov.group) != factypes.direct_b(cov, f):
            bad += 1
        if factypes.evaluate(factypes.R(), lam, cov.group) != factypes.direct_r(cov, f):
            bad += 1
    return bad == 0, f"{bad} disagreements on {k} sampled elements"


def _prime_checks(label, cov, r):
    ctx = cov.ctx
    q = r["q"]
    ram_by_deg: dict[int, int] = {}
    for d, *_ in r["ramified"]:
        ram_by_deg[d] = ram_by_deg.get(d, 0) + 1

    def partition():
        bad = [
            n for n, row in enumerate(r["tallies"], 1)
            if sum(row) + ram_by_deg.get(n, 0) != polys.count_primes(ctx, n)
        ]
        return not bad, f"degrees not adding up to count_primes: {bad}"

    def psi_vs_tallies():
        # psi(n) = sum over primes with d*f | n of d*f; classes are elements
        # of the abelian group, f is the element order
        bad = []
        for n in range(1, len(r["tallies"]) + 1):
            total = 0
            for d, row in enumerate(r["tallies"][:n], 1):
                for ci, cnt in enumerate(row):
                    f = r["element_orders"][r["classes"][ci][0]]
                    if n % (d * f) == 0:
                        total += d * f * cnt
            for d, _e, f, _g in r["ramified"]:
                if n % (d * f) == 0:
                    total += d * f
            if total != r["psi"][n - 1]:
                bad.append(n)
        return not bad, f"degrees where psi_E disagrees with the tallies: {bad}"

    def band():
        G = r["d"]
        M = max(r["genus"], G)
        bad = []
        for n, row in enumerate(r["tallies"], 1):
            for ci, pi in enumerate(row):
                dev = abs(Fraction(pi) - Fraction(q**n, n * G))
                if dev**2 * n**2 > Fraction(16 * M**2 * q**n):
                    bad.append((n, ci))
        return not bad, f"(n, class) outside the Chebotarev band: {bad}"

    return [
        _guard(f"{label}.class_partition", partition),
        _guard(f"{label}.psi_vs_tallies", psi_vs_tallies),
        _guard(f"{label}.chebotarev_band", band),
    ]


def _cli_checks(r):
    rows = list(csv.reader(io.StringIO(r["csv"])))
    head, body = rows[0], rows[1:]
    want_b = wreath.rising_binom(Fraction(1, 2), 4)
    predicted = {"1C:0": Fraction(1, 8), "1C:1": Fraction(1, 8), "B": want_b, "R": Fraction(1)}

    def shape():
        ok = head[:2] == ["q", "fn"] and len(body) == 16 and len(r["reports"]) == 16
        return ok, f"{len(body)} rows, {len(r['reports'])} reports"

    def rows_consistent():
        bad = []
        for q, fn, emp, pred, dev, scaled in body:
            e, p, dv = Fraction(emp), Fraction(pred), Fraction(dev)
            ok = (
                p == predicted[fn]
                and dv == abs(e - p)
                and (int(q) ** 3) % e.denominator == 0
                and scaled == repr(float(dv) * math.sqrt(int(q)))
            )
            if not ok:
                bad.append((q, fn))
        return not bad, f"inconsistent rows: {bad}"

    def reports_match_rows():
        bad = [
            i for i, (row, rep) in enumerate(zip(body, r["reports"]))
            if rep.get("fn") != row[1]
            or rep.get("cover.q") != row[0]
            or Fraction(rep.get("empirical_mean", "nan")) != Fraction(row[2])
            or Fraction(rep.get("predicted_mean", "nan")) != Fraction(row[3])
        ]
        return not bad, f"reports disagreeing with CSV rows: {bad}"

    return [
        _guard("cli.shape", shape),
        _guard("cli.rows_consistent", rows_consistent),
        _guard("cli.reports_match_rows", reports_match_rows),
    ]
