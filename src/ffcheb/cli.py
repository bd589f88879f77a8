"""Command-line surface.

Commands: factor, frobenius, lambda, interval-mean, census, cheb-grid,
wreath-mean, norms-check, zeta, psi-check.  Exit codes: 0 success, 1 usage
error, 2 domain error, 3 resource bound exceeded; domain errors print their
name on stderr.  Reports are stable-ordered key=value text; reruns with the
same seed and configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from fractions import Fraction

from .covers import load_cover
from .errors import DomainError, OutputFileError, ResourceError, TooLarge
from .factypes import parse_fn
from .ffield import make_field
from .groups import GroupTable
from .intervals import (
    IntervalSpec,
    NORM_NOTE,
    census,
    cover_hash,
    interval_mean,
)
from .polys import parse_poly
from .wreath import (
    GROUP_ORDER_LIMIT,
    brute_force_mean,
    closed_form_mean,
    enumerate_class_types,
    mean_class_function,
)
from . import zeta as zeta_mod


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _field_from_q(q: int):
    if q < 2:
        raise DomainError(f"{q} is not a prime power")
    p = next((cand for cand in range(2, math.isqrt(q) + 1) if q % cand == 0), q)
    k = 0
    m = q
    while m % p == 0 and m > 1:
        m //= p
        k += 1
    if m != 1:
        raise DomainError(f"{q} is not a prime power")
    return make_field(p, k)


def _open_output(path: str, **kw):
    """Open an --out or --csv file for appending, which leaves a file that is
    already there as it is until `_output` empties it; an unwritable path is
    a domain error that names it."""
    try:
        return open(path, "a", encoding="utf-8", **kw)
    except OSError as e:
        raise OutputFileError(f"cannot write {path!r}: {e.strerror}") from None


def _open_outputs(args, created: list[str]) -> None:
    """Open the command's --out and --csv files into `args.outputs` before
    it computes anything, so that an unwritable path ends the run before a
    report is printed or written; each path this opens anew joins
    `created`."""
    for name, kw in (("out", {}), ("csv", {"newline": ""})):
        path = getattr(args, name, None)
        if path:
            existed = os.path.exists(path)
            args.outputs[name] = _open_output(path, **kw)
            if not existed:
                created.append(path)


def _output(args, name: str):
    """The open --out or --csv file, emptied for the report when it is a
    regular file (a pipe or a device is written as it is), or None."""
    fh = args.outputs.get(name)
    if fh is not None and os.path.isfile(fh.name):
        fh.truncate(0)
    return fh


def _emit(args, text: str) -> None:
    fh = _output(args, "out")
    if fh is None:
        sys.stdout.write(text)
    else:
        fh.write(text)
        fh.flush()  # before a --csv at the same path empties it


def _parse_group(text: str) -> GroupTable:
    kind, _, rest = text.partition(":")
    try:
        sizes = [int(t) for t in rest.split(",")]
    except ValueError:
        sizes = []
    if (
        not sizes
        or min(sizes) < 1
        or kind not in ("cyclic", "sym", "product")
        or (kind != "product" and len(sizes) > 1)
    ):
        raise DomainError(
            f"bad group spec {text!r} (use cyclic:N, sym:N or product:a,b with N, a, b >= 1)"
        )
    # the order, without building a table: sym:30 has 30! elements
    order = 1
    for s in range(2, sizes[0] + 1) if kind == "sym" else sizes:
        order *= s
        if order > GROUP_ORDER_LIMIT:
            raise TooLarge(f"group {text!r} has more than {GROUP_ORDER_LIMIT} elements")
    if kind == "cyclic":
        return GroupTable.cyclic(sizes[0])
    if kind == "sym":
        return GroupTable.symmetric(sizes[0])
    return GroupTable.direct_product([GroupTable.cyclic(n) for n in sizes])


# ---------------------------------------------------------------------------
# commands


def cmd_factor(args) -> int:
    ctx = _field_from_q(args.q)
    f = parse_poly(ctx, args.poly)
    fac = f.factor(args.seed)
    print(fac)
    return 0


def cmd_frobenius(args) -> int:
    spec = load_cover(args.cover, args.force_wild)
    P = parse_poly(spec.ctx, args.prime)
    ci = spec.frobenius_class(P)
    label = "trivial" if spec.group.classes[ci] == (0,) else "nontrivial"
    _emit(args, f"class {ci} ({label})\n")
    return 0


def cmd_lambda(args) -> int:
    from .factypes import lambda_of_poly

    spec = load_cover(args.cover, args.force_wild)
    f = parse_poly(spec.ctx, args.poly)
    _emit(args, lambda_of_poly(spec, f, args.seed).serialize() + "\n")
    return 0


def cmd_interval_mean(args) -> int:
    spec = load_cover(args.cover, args.force_wild)
    f0 = parse_poly(spec.ctx, args.f0)
    I = IntervalSpec(f0, args.m)
    out = []
    for fntext in args.fns.split(","):
        fn = parse_fn(fntext)
        rep = interval_mean(spec, fn, I, args.seed, args.threads)
        out.append(rep.serialize())
    _emit(args, "\n".join(out))
    return 0


def cmd_census(args) -> int:
    spec = load_cover(args.cover, args.force_wild)
    f0 = parse_poly(spec.ctx, args.f0)
    I = IntervalSpec(f0, args.m)
    result = census(spec, I, args.seed, args.threads)
    _emit(args, result.report.serialize())
    fh = _output(args, "csv")
    if fh is not None:
        w = csv.writer(fh)
        w.writerow(["lambda", "count", "empirical", "predicted"])
        for row in result.rows:
            w.writerow(
                [row.lam.serialize(), row.count, str(row.empirical), str(row.predicted)]
            )
        w.writerow(
            [
                "nonsquarefree",
                result.nonsquarefree_count,
                str(result.nonsquarefree_empirical),
                "0",
            ]
        )
    return 0


def cmd_cheb_grid(args) -> int:
    from .covers import kummer

    try:
        qs = [int(t) for t in args.qs.split(",")]
    except ValueError:
        raise DomainError(f"--qs {args.qs!r} is not a comma list of integers") from None
    ftexts = args.fns.split(",")
    reports = []
    rows = []
    for q in qs:
        ctx = _field_from_q(q)
        spec = kummer(ctx, args.d, parse_poly(ctx, args.D))
        f0 = parse_poly(ctx, args.f0)
        I = IntervalSpec(f0, args.m)
        for fntext in ftexts:
            fn = parse_fn(fntext)
            rep = interval_mean(spec, fn, I, args.seed, args.threads)
            reports.append(rep.serialize())
            rows.append(
                [
                    q,
                    fn.describe(),
                    str(rep.empirical_mean),
                    str(rep.predicted_mean),
                    str(rep.deviation),
                    repr(rep.deviation_times_sqrt_q),
                ]
            )
    _emit(args, "\n".join(reports))
    fh = _output(args, "csv")
    if fh is not None:
        w = csv.writer(fh)
        w.writerow(
            ["q", "fn", "empirical", "predicted", "deviation", "deviation_times_sqrt_q"]
        )
        w.writerows(rows)
    return 0


def cmd_wreath_mean(args) -> int:
    if args.n < 1:
        raise DomainError(f"--n {args.n}: the wreath product G wr S_n needs n >= 1")
    G = _parse_group(args.group)
    fn = parse_fn(args.fn)
    if args.brute:
        val = brute_force_mean(fn, G, args.n)
    elif args.closed:
        val = closed_form_mean(fn, G, args.n)
    else:
        val = mean_class_function(fn, G, args.n)
    print(val)
    fh = _output(args, "csv")
    if fh is not None:
        from .factypes import evaluate

        w = csv.writer(fh)
        w.writerow(["class_type", "size", "fn_value"])
        for ct, sz in enumerate_class_types(G, args.n):
            w.writerow(
                [ct.serialize(), sz, str(evaluate(fn, ct.to_lambda(G), G))]
            )
    return 0


def cmd_norms_check(args) -> int:
    from .factypes import B, R

    spec = load_cover(args.cover, args.force_wild)
    ctx = spec.ctx
    if args.f0 is None and args.n is None:
        raise DomainError("norms-check needs --n or --f0")
    f0 = parse_poly(ctx, args.f0) if args.f0 else parse_poly(ctx, f"T^{args.n}")
    m = args.m if args.m is not None else f0.degree - 1
    I = IntervalSpec(f0, m)
    out = []
    for fn in (B(), R()):
        rep = interval_mean(spec, fn, I, args.seed, args.threads)
        rep.command = "norms-check"
        out.append(rep.serialize())
    _emit(args, "\n".join(out))
    return 0


def cmd_zeta(args) -> int:
    spec = load_cover(args.cover, args.force_wild)
    q = spec.ctx.q
    pt = zeta_mod.ptilde(spec)
    curve = zeta_mod.curve_zeta_numerator(spec)
    value = sum(Fraction(c, q**i) for i, c in enumerate(pt))
    kval, ktail = zeta_mod.K_E(spec)
    lines = [
        ("report", "ffcheb/1"),
        ("command", "zeta"),
        ("seed", str(args.seed)),
        ("cover.hash", cover_hash(spec)),
        ("cover.q", str(q)),
        ("cover.genus", str(spec.genus())),
        ("ptilde", "[" + ",".join(map(str, pt)) + "]"),
        ("ptilde_at_1_over_q", f"{value.numerator}/{value.denominator}"),
        ("curve_numerator", "[" + ",".join(map(str, curve)) + "]"),
        ("K_E_truncated", f"{kval.numerator}/{kval.denominator}"),
        ("K_E_tail_bound", repr(ktail)),
        (
            "rh_root_moduli_times_q",
            "[" + ",".join(f"{x:.9f}" for x in zeta_mod.rh_root_moduli(curve, q)) + "]",
        ),
        ("note", NORM_NOTE),
    ]
    _emit(args, "\n".join(f"{k} = {v}" for k, v in lines) + "\n")
    return 0


def cmd_psi_check(args) -> int:
    if args.max_n < 1:
        raise DomainError(f"--max-n {args.max_n}: psi_E is defined for degrees n >= 1")
    spec = load_cover(args.cover, args.force_wild)
    q = spec.ctx.q
    size = spec.group.n
    genus = spec.genus()
    bound_const = 4 * max(genus, size)
    lines = [
        ("report", "ffcheb/1"),
        ("command", "psi-check"),
        ("cover.hash", cover_hash(spec)),
        ("cover.q", str(q)),
        ("cover.genus", str(genus)),
        ("bound_constant", str(bound_const)),
    ]
    ok_all = True
    for n in range(1, args.max_n + 1):
        psi = zeta_mod.psi_E(spec, n)
        dev = abs(Fraction(psi) - Fraction(q**n, size))
        ok = dev * dev <= Fraction(bound_const**2 * q**n)
        ok_all = ok_all and ok
        lines.append(
            (f"psi.{n}", f"{psi} dev={float(dev):.3f} bound={bound_const * q ** (n / 2):.3f} ok={'true' if ok else 'false'}")
        )
    lines.append(("all_within_bound", "true" if ok_all else "false"))
    _emit(args, "\n".join(f"{k} = {v}" for k, v in lines) + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="ffcheb", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, threads=True):
        """--cover, --force-wild and --out, plus --seed and --threads where
        the command reads them."""
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if threads:
            sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--out", default=None)
        sp.add_argument("--force-wild", action="store_true", dest="force_wild")
        sp.add_argument("--cover", required=True)

    sp = sub.add_parser("factor", help="factor a polynomial over F_q")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("poly")
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("frobenius", help="Frobenius class at an unramified prime")
    common(sp, seed=False, threads=False)
    sp.add_argument("prime")
    sp.set_defaults(func=cmd_frobenius)

    sp = sub.add_parser("lambda", help="factorization type of a polynomial")
    common(sp, threads=False)
    sp.add_argument("poly")
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("interval-mean", help="empirical vs predicted interval mean")
    common(sp)
    sp.add_argument("--f0", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--fns", required=True, help="comma list, e.g. 1C:0,B,R")
    sp.set_defaults(func=cmd_interval_mean)

    sp = sub.add_parser("census", help="factorization-type census of an interval")
    common(sp)
    sp.add_argument("--f0", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("cheb-grid", help="Kummer short-interval experiment over a q grid")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--D", required=True, help="integer-coefficient pattern, e.g. T^3-3*T^2+2*T")
    sp.add_argument("--qs", required=True)
    sp.add_argument("--f0", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--fns", required=True)
    sp.add_argument("--csv", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_cheb_grid)

    sp = sub.add_parser("wreath-mean", help="exact mean of a class function on G wr S_n")
    sp.add_argument("--group", required=True, help="cyclic:N, sym:N, or product:a,b")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--fn", required=True)
    sp.add_argument("--brute", action="store_true")
    sp.add_argument("--closed", action="store_true")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_wreath_mean)

    sp = sub.add_parser("norms-check", help="b and r interval means vs predictions")
    common(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--f0", default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.set_defaults(func=cmd_norms_check)

    sp = sub.add_parser("zeta", help="ptilde, K_E, and the exact mean of r")
    common(sp, threads=False)  # the report prints --seed
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("psi-check", help="psi_E(n) against its square-root band")
    common(sp, seed=False, threads=False)
    sp.add_argument("--max-n", type=int, default=8, dest="max_n")
    sp.set_defaults(func=cmd_psi_check)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.outputs, created = {}, []
    code = 1  # an exception that escapes fails the run too
    try:
        _open_outputs(args, created)
        code = args.func(args)
    except ResourceError as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        code = 3
    except DomainError as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        code = 2
    finally:
        # a run that fails leaves behind no file that it created
        for fh in args.outputs.values():
            fh.close()
        if code:
            for path in created:
                os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
