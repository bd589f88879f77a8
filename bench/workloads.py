"""The four benchmark workloads: seeded inputs, set-up, the timed phase and
the exact results it produced.

Every workload is one closed-loop client in one fresh interpreter (the CLI
workload adds its own subprocess and pool).  `inputs(seed)` derives all
input data from the benchmark seed; the package only ever sees those inputs.
Seed 0 reproduces the acceptance configuration: D = T(T-1)(T-2), interval
centre T^4, Artin-Schreier poles at 0, 1 (and 3 in the product), factoring
seed 0.

Field elements are encoded ints in [0, q), as in ffcheb.  Where a workload
shares one integer pattern across several fields (the q grid and the CLI),
its roots are integers with distinct residues mod 3, 5, 7 and 13, so D stays
squarefree over every field of the grid.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from ffcheb import covers, factypes, ffield, groups, intervals, polys, zeta  # noqa: E402

FIELDS = {5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1), 25: (5, 2), 49: (7, 2), 729: (3, 6)}
GRID = ((5, 2), (9, 2), (13, 2), (25, 2), (49, 1))  # (q, m) for interval_grid
CLI_QS = (5, 9, 13, 25)
FNS = ("1C:0", "1C:1", "B", "R")
GRID_PRIMES = (3, 5, 7, 13)


def field(q: int):
    return ffield.make_field(*FIELDS[q])


def _rng(seed: int, what: str) -> random.Random:
    return random.Random(f"ffcheb-bench/{seed}/{what}")


def _distinct(rng: random.Random, q: int, k: int, avoid=()) -> list[int]:
    out: list[int] = []
    while len(out) < k:
        a = rng.randrange(q)
        if a not in out and a not in avoid:
            out.append(a)
    return out


def _int_roots(seed: int) -> list[int]:
    if seed == 0:
        return [0, 1, 2]
    rng = _rng(seed, "int_roots")
    while True:
        roots = [rng.randrange(3 * 5 * 7 * 13) for _ in range(3)]
        if all(len({r % p for r in roots}) == 3 for p in GRID_PRIMES):
            return roots


def _coeffs(seed: int, what: str, q: int, k: int) -> list[int]:
    """k free centre coefficients in [0, q), top-down below the leading T^4."""
    if seed == 0:
        return [0] * k
    rng = _rng(seed, what)
    return [rng.randrange(q) for _ in range(k)]


def _term_text(c: int, e: int) -> str:
    if c == 0:
        return ""
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    head = "" if mag == 1 and e > 0 else str(mag)
    var = "" if e == 0 else "T" if e == 1 else f"T^{e}"
    return sign + head + ("*" if head and var else "") + var


def grid_centre(seed: int, m: int) -> str:
    """Integer-pattern centre T^4 + c3 T^3 (+ c2 T^2 when m = 1), shared by
    interval_grid and the CLI workload."""
    free = _coeffs(seed, "grid/centre", 3 * 5 * 7 * 13, 2)[: 3 - m]
    return poly_text(free + [0] * (m + 1))


def poly_text(top: list[int]) -> str:
    """Monic integer polynomial from its coefficients, top degree first
    (leading 1 implied): [-3, 2, 0] -> 'T^3-3*T^2+2*T'."""
    n = len(top)
    return f"T^{n}" + "".join(_term_text(c, n - 1 - i) for i, c in enumerate(top))


def cubic_from_roots(roots: list[int]) -> list[int]:
    a, b, c = roots
    return [-(a + b + c), a * b + a * c + b * c, -(a * b * c)]


def linear_product(ctx, roots: list[int]):
    """prod (T - a) over encoded field elements a."""
    out = polys.Poly.one(ctx)
    for a in roots:
        out = out * polys.Poly(ctx, [ctx.neg(a), 1])
    return out


def centre(ctx, free: list[int]):
    """T^4 + free[0] T^3 + ... (encoded field elements)."""
    return polys.Poly(ctx, [0] * (4 - len(free)) + list(reversed(free)) + [1])


def factoring_seed(seed: int) -> int:
    return 0 if seed == 0 else _rng(seed, "factor").randrange(2**31)


# ---------------------------------------------------------------------------


class IntervalWorkload:
    """Shared timed phase of the two interval workloads: for each (cover,
    interval), interval_mean for 1C:0, 1C:1, B, R and then census."""

    def __init__(self, seed: int):
        self.seed = seed
        self.fseed = factoring_seed(seed)
        self.items: list[tuple[str, object, object]] = []  # (label, cover, interval)

    def run(self) -> None:
        fns = [factypes.parse_fn(t) for t in FNS]
        self.reports = {}
        for label, cov, I in self.items:
            reps = [intervals.interval_mean(cov, fn, I, self.fseed, 1) for fn in fns]
            reps.append(intervals.census(cov, I, self.fseed, 1))
            self.reports[label] = reps

    def results(self) -> dict:
        out = {}
        for label, cov, I in self.items:
            counts, excluded = intervals.interval_lambda_counts(cov, I, self.fseed)
            *means, cen = self.reports[label]
            out[label] = {
                "q": cov.ctx.q,
                "n": I.n,
                "m": I.m,
                "group_order": cov.group.n,
                "class_to_omega": list(cov.group.class_to_omega),
                "size": I.size(),
                "excluded": excluded,
                "counts": sorted(
                    [factypes.FactorizationType(dict(k)).serialize(), v]
                    for k, v in counts.items()
                ),
                "means": {
                    r.fn_id: [str(r.empirical_mean), str(r.predicted_mean), str(r.deviation)]
                    for r in means
                },
                "excluded_fraction": str(means[0].excluded_fraction),
                "census": [
                    [row.lam.serialize(), row.count, str(row.empirical), str(row.predicted)]
                    for row in cen.rows
                ],
                "census_nonsquarefree": [cen.nonsquarefree_count, str(cen.nonsquarefree_empirical)],
                "census_tv": str(cen.tv_distance),
            }
        return out


class IntervalGrid(IntervalWorkload):
    name = "interval_grid"

    def inputs(self) -> dict:
        roots = _int_roots(self.seed)
        return {
            "D": poly_text(cubic_from_roots(roots)),
            "roots": roots,
            "centres": {q: grid_centre(self.seed, m) for q, m in GRID},
            "factoring_seed": self.fseed,
        }

    def setup(self) -> None:
        inp = self.inputs()
        for q, m in GRID:
            ctx = field(q)
            cov = covers.kummer(ctx, 2, polys.parse_poly(ctx, inp["D"]))
            I = intervals.IntervalSpec(polys.parse_poly(ctx, inp["centres"][q]), m)
            self.items.append((f"kummer_q{q}_m{m}", cov, I))


SPLITTING_Y = ("-1*T", "-1*T", "0", "1")  # Y^3 - T*Y - T, group S_3 (asserted)


class IntervalKinds(IntervalWorkload):
    name = "interval_kinds"

    def inputs(self) -> dict:
        s = self.seed
        as_poles = [0, 1] if s == 0 else _distinct(_rng(s, "as49"), 49, 2)
        prod_roots = [0, 1, 2] if s == 0 else _distinct(_rng(s, "prod25"), 25, 3)
        prod_pole = 3 if s == 0 else _distinct(_rng(s, "prod25pole"), 25, 1, prod_roots)[0]
        k729_roots = [0, 1, 2] if s == 0 else _distinct(_rng(s, "k729"), 729, 3)
        return {
            "as49_poles": as_poles,
            "as49_centre": _coeffs(s, "as49c", 49, 2),
            "prod25_roots": prod_roots,
            "prod25_pole": prod_pole,
            "prod25_centre": _coeffs(s, "prod25c", 25, 2),
            "split13_centre": _coeffs(s, "split13c", 13, 1),
            "k729_roots": k729_roots,
            "k729_centre": _coeffs(s, "k729c", 729, 3),
            "factoring_seed": self.fseed,
        }

    def setup(self) -> None:
        inp = self.inputs()
        one = polys.Poly.one
        F49 = field(49)
        as49 = covers.artin_schreier(
            F49, polys.RationalFn(one(F49), linear_product(F49, inp["as49_poles"]))
        )
        self.items.append(("as_q49_m1", as49, intervals.IntervalSpec(centre(F49, inp["as49_centre"]), 1)))
        F25 = field(25)
        prod = covers.product([
            covers.kummer(F25, 2, linear_product(F25, inp["prod25_roots"])),
            covers.artin_schreier(
                F25, polys.RationalFn(one(F25), linear_product(F25, [inp["prod25_pole"]]))
            ),
        ])
        self.items.append(("product_q25_m1", prod, intervals.IntervalSpec(centre(F25, inp["prod25_centre"]), 1)))
        F13 = field(13)
        spl = covers.validate_cover(covers.SplittingCover(
            F13,
            [polys.parse_poly(F13, t) for t in SPLITTING_Y],
            [groups.parse_cycles("(1 2)", 3), groups.parse_cycles("(1 2 3)", 3)],
            {(1, 1, 1): 0, (2, 1): 1, (3,): 2},
            declared_genus=0,
            declared_tame_at_infinity=False,
        ))
        self.items.append(("splitting_q13_m2", spl, intervals.IntervalSpec(centre(F13, inp["split13_centre"]), 2)))
        F729 = field(729)
        k729 = covers.kummer(F729, 2, linear_product(F729, inp["k729_roots"]))
        self.items.append(("kummer_q729_m0", k729, intervals.IntervalSpec(centre(F729, inp["k729_centre"]), 0)))


class PrimeTallies:
    """count_prime_frobenius_global for every class and n <= 6, then psi_E(n)
    for n <= 8, over Kummer covers; covers over one field share its cached
    prime lists, as in the acceptance suite."""

    name = "prime_tallies"
    COVERS = ((2, 5), (2, 7), (2, 9), (2, 13), (3, 7), (3, 13))  # (d, q)
    N_CLASS, N_PSI = 6, 8

    def __init__(self, seed: int):
        self.seed = seed
        self.items: list[tuple[str, object]] = []

    def inputs(self) -> dict:
        return {
            f"d{d}_q{q}": [0, 1, 2] if self.seed == 0 else _distinct(_rng(self.seed, f"pt/{d}/{q}"), q, 3)
            for d, q in self.COVERS
        }

    def setup(self) -> None:
        for label, roots in self.inputs().items():
            d, q = (int(t[1:]) for t in label.split("_"))
            ctx = field(q)
            self.items.append((label, covers.kummer(ctx, d, linear_product(ctx, roots))))

    def run(self) -> None:
        self.tallies, self.psi = {}, {}
        for label, cov in self.items:
            self.tallies[label] = [
                [zeta.count_prime_frobenius_global(cov, ci, n) for ci in range(len(cov.group.classes))]
                for n in range(1, self.N_CLASS + 1)
            ]
            self.psi[label] = [zeta.psi_E(cov, n) for n in range(1, self.N_PSI + 1)]

    def results(self) -> dict:
        out = {}
        for label, cov in self.items:
            ram = []
            for P in cov.ramified_primes():
                sd = cov.splitting_data(P)
                ram.append([P.degree, sd.e, sd.f, sd.g])
            out[label] = {
                "q": cov.ctx.q,
                "d": cov.group.n,
                "genus": cov.genus(),
                "element_orders": list(cov.group.element_orders),
                "classes": [list(c) for c in cov.group.classes],
                "ramified": sorted(ram),
                "tallies": self.tallies[label],
                "psi": self.psi[label],
            }
        return out


class CliGridPool:
    """`ffcheb cheb-grid` in a subprocess with a 2-worker pool: the same
    math as the first four q of interval_grid."""

    name = "cli_grid_pool"
    THREADS = 2

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.csv_path = os.path.join(out_dir, "cheb-grid.csv")
        self.stdout_path = os.path.join(out_dir, "cheb-grid.out")
        self.speed_dir = os.path.join(out_dir, "hostspeed")

    def inputs(self) -> dict:
        roots = _int_roots(self.seed)
        return {
            "D": poly_text(cubic_from_roots(roots)),
            "roots": roots,
            "f0": grid_centre(self.seed, 2),
            "factoring_seed": factoring_seed(self.seed),
        }

    def argv(self) -> list[str]:
        inp = self.inputs()
        return [
            "cheb-grid", "--d", "2", "--D", inp["D"], "--qs", ",".join(map(str, CLI_QS)),
            "--f0", inp["f0"], "--m", "2", "--fns", ",".join(FNS), "--threads", str(self.THREADS),
            "--csv", self.csv_path, "--seed", str(inp["factoring_seed"]),
        ]

    @staticmethod
    def env() -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        return env

    def setup(self) -> None:
        """A fresh interpreter that imports ffcheb.cli and does no work."""
        subprocess.run([sys.executable, "-c", "import ffcheb.cli"], env=self.env(), check=True)

    def run(self) -> None:
        """The CLI runs through bench/hostspeed.py, which samples the host's
        speed in the CLI process and its pool workers into speed_dir."""
        with open(self.stdout_path, "wb") as out:
            subprocess.run(
                [sys.executable, str(HERE / "hostspeed.py"), self.speed_dir, *self.argv()],
                env=self.env(), stdout=out, check=True, timeout=150,
            )

    def run_in_process(self) -> None:
        """The traced form: cli.main in this interpreter, so the wrappers
        see the calls; pool workers are forked from here."""
        import contextlib

        from ffcheb import cli

        with open(self.stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            code = cli.main(self.argv())
        if code != 0:
            raise RuntimeError(f"cheb-grid exited with {code}")

    def results(self) -> dict:
        with open(self.csv_path, "rb") as fh:
            csv_bytes = fh.read()
        with open(self.stdout_path, encoding="utf-8") as fh:
            text = fh.read()
        reports = []
        for block in text.split("report = ")[1:]:
            rep = intervals.parse_report("report = " + block)
            rep.pop("threads", None)  # host-dependent metadata, not a result
            reports.append(rep)
        return {"csv": csv_bytes.decode("utf-8"), "reports": reports}


def make(name: str, seed: int, out_dir: str):
    if name == "cli_grid_pool":
        return CliGridPool(seed, out_dir)
    return {"interval_grid": IntervalGrid, "interval_kinds": IntervalKinds,
            "prime_tallies": PrimeTallies}[name](seed)


NAMES = ("interval_grid", "interval_kinds", "prime_tallies", "cli_grid_pool")
