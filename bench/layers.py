"""Which calls into ffcheb the traced run wraps, and the per-layer metrics
read from the spans and, after the run, from the package's caches.

Layers are the package's modules.  Each wrapped function gets one span name;
`Cover.coset_class` is split by cover kind and `polys.ppowmod` by the kernel
its field selects (k = 1: prime; k > 1 with add tables, q <= 256: tables;
otherwise generic).
"""

from __future__ import annotations

import random
import time

from ffcheb import cli, covers, factypes, ffield, groups, intervals, polys, wreath, zeta

# (owner, attribute, span name); owners are modules or classes
SPANS = (
    (ffield, "make_field", "ffield.make_field"),
    (polys, "factor_raw", "polys.factor_raw"),
    (polys, "is_irreducible_raw", "polys.is_irreducible_raw"),
    (polys, "primes_of_degree", "polys.primes_of_degree"),
    (polys, "residue_field", "polys.residue_field"),
    (groups.GroupTable, "__init__", "groups.build"),
    (groups.GroupTable, "omega_of_coset", "groups.omega_of_coset"),
    (covers, "kummer", "covers.construct"),
    (covers, "artin_schreier", "covers.construct"),
    (covers, "product", "covers.construct"),
    (covers, "validate_cover", "covers.construct"),
    (covers, "parse_cover", "covers.construct"),
    (factypes, "lambda_entries_raw", "factypes.lambda_entries_raw"),
    (wreath, "enumerate_class_types", "wreath.enumerate_class_types"),
    (wreath, "mean_class_function", "wreath.mean_class_function"),
    (intervals, "interval_lambda_counts", "intervals.interval_lambda_counts"),
    (intervals, "interval_mean", "intervals.interval_mean"),
    (intervals, "census", "intervals.census"),
    (zeta.AbelianFrobeniusData, "__init__", "zeta.ldata_build"),
    (zeta.AbelianFrobeniusData, "ensure", "zeta.ensure"),
    (zeta, "count_prime_frobenius_global", "zeta.count_prime_frobenius_global"),
    (zeta, "psi_E", "zeta.psi_E"),
    (cli, "main", "cli.main"),
)

KERNELS = ("prime", "tables", "generic")
KINDS = ("kummer", "artin_schreier", "product", "splitting")


def _kernel(args) -> str:
    F = args[0]
    if F.k == 1:
        return "prime"
    return "tables" if F._add_tab is not None else "generic"


def install(tracer) -> None:
    for owner, attr, name in SPANS:
        tracer.install(owner, attr, lambda f, name=name: tracer.wrap(name, f))
    tracer.install(polys, "ppowmod", lambda f: tracer.wrap("polys.ppowmod", f, _kernel))
    tracer.install(
        covers.Cover, "coset_class",
        lambda f: tracer.wrap("covers.coset_class", f, lambda a: a[0].kind),
    )
    tracer.install(
        intervals, "_chunk_worker",
        lambda f: tracer.pool_worker(tracer.wrap("intervals.chunk_worker", f)),
    )
    # remember the covers and fields the run builds, to read cache sizes
    for attr in ("kummer", "artin_schreier", "product", "validate_cover", "parse_cover"):
        tracer.install(covers, attr, lambda f: tracer.keep("cover", f))
    tracer.install(ffield, "make_field", lambda f: tracer.keep("field", f))


# ---------------------------------------------------------------------------


def _micro_ns(F, op, pairs, repeats=5) -> float:
    """Median ns per call of op over the operand pairs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            op(a, b)
        times.append((time.perf_counter_ns() - t0) / len(pairs))
    times.sort()
    return times[len(times) // 2]


def field_micro(seed: int) -> dict[str, float]:
    out = {}
    for q, (p, k) in ((13, (13, 1)), (25, (5, 2)), (729, (3, 6))):
        F = ffield.make_field(p, k)
        rng = random.Random(f"ffcheb-bench/{seed}/micro/{q}")
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(20000)]
        out[f"ffield.mul_ns.q{q}"] = _micro_ns(F, F.mul, pairs)
        out[f"ffield.add_ns.q{q}"] = _micro_ns(F, F.add, pairs)
    return out


def collect(tracer, wl) -> dict:
    """Per-layer metrics of one traced repetition (after uninstall)."""
    agg = tracer.aggregate()

    def g(name, key):
        return agg.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    pp = [f"polys.ppowmod.{k}" for k in KERNELS]
    m["polys.ppowmod.calls"] = sum(g(n, "calls") for n in pp)
    m["polys.ppowmod.self_s"] = sum(g(n, "self_s") for n in pp)
    for k in KERNELS:
        m[f"polys.ppowmod.self_s.{k}"] = g(f"polys.ppowmod.{k}", "self_s")
    for fn in ("factor_raw", "is_irreducible_raw"):
        m[f"polys.{fn}.calls"] = g(f"polys.{fn}", "calls")
        m[f"polys.{fn}.self_s"] = g(f"polys.{fn}", "self_s")
    m["polys.primes_of_degree.total_s"] = g("polys.primes_of_degree", "total_s")
    m["polys.residue_field.calls"] = g("polys.residue_field", "calls")
    m["polys.residue_field.total_s"] = g("polys.residue_field", "total_s")
    coset_calls = 0
    for kind in KINDS:
        m[f"covers.coset_class.{kind}.calls"] = g(f"covers.coset_class.{kind}", "calls")
        m[f"covers.coset_class.{kind}.total_s"] = g(f"covers.coset_class.{kind}", "total_s")
        coset_calls += m[f"covers.coset_class.{kind}.calls"]
    m["covers.construct.total_s"] = g("covers.construct", "total_s")
    m["groups.build.total_s"] = g("groups.build", "total_s")
    m["groups.omega_of_coset.calls"] = g("groups.omega_of_coset", "calls")
    m["factypes.lambda_entries_raw.calls"] = g("factypes.lambda_entries_raw", "calls")
    m["factypes.lambda_entries_raw.self_s"] = g("factypes.lambda_entries_raw", "self_s")
    ilc = "intervals.interval_lambda_counts"
    m[f"{ilc}.calls"] = g(ilc, "calls")
    m[f"{ilc}.self_s"] = g(ilc, "self_s")
    m[f"{ilc}.total_s"] = g(ilc, "total_s")
    m["intervals.chunk_worker.calls"] = g("intervals.chunk_worker", "calls")
    m["intervals.chunk_worker.total_s"] = g("intervals.chunk_worker", "total_s")
    m["zeta.ldata_build.total_s"] = g("zeta.ldata_build", "total_s")
    m["zeta.ldata_build.self_s"] = g("zeta.ldata_build", "self_s")
    m["zeta.ensure.total_s"] = g("zeta.ensure", "total_s")
    m["wreath.enumerate_class_types.total_s"] = g("wreath.enumerate_class_types", "total_s")
    m["wreath.mean_class_function.total_s"] = g("wreath.mean_class_function", "total_s")
    m["ffield.make_field.total_s"] = g("ffield.make_field", "total_s")
    m["cli.main.total_s"] = g("cli.main", "total_s")

    # cache sizes, read only now that the run is over
    cov_list = list(tracer.objects.get("cover", {}).values())
    fields = {id(c.ctx): c.ctx for c in cov_list}
    fields.update(tracer.objects.get("field", {}))
    omega = sum(len(c._omega_cache) for c in cov_list)
    omega += sum(p["objects"]["omega_cache"] for p in tracer.worker_spans)
    m["covers.omega_cache.size"] = omega
    m["covers.omega_cache.hit_ratio"] = 1 - omega / coset_calls if coset_calls else 0.0
    icache = [v for c in cov_list for v in getattr(c, "_interval_cache", {}).values()]
    m["intervals.polys_tallied"] = sum(sum(counts.values()) for counts, _ in icache)
    calls = m[f"{ilc}.calls"]
    m["intervals.interval_cache.hit_ratio"] = 1 - len(icache) / calls if calls else 0.0
    cand = 0
    for F in fields.values():
        cand += sum(F.q**n for n in getattr(F, "_prime_cache", {}) if n > 1)
    m["polys.primes_of_degree.candidates"] = cand
    m["polys.residue_cache.size"] = sum(len(getattr(F, "_residue_cache", {})) for F in fields.values())
    sweep, classified = 0, 0
    for c in cov_list:
        data = getattr(c, "_ldata", None)
        if data is not None:
            sweep += sum(data.ctx.q**j for j in range(1, data.J + 1))
            classified += sum(sum(data.tallies[j]) for j in range(1, data.J + 1))
    m["zeta.prime_sweep.candidates"] = sweep
    m["zeta.primes_classified"] = classified
    m.update(field_micro(wl.seed))
    return m
