"""ffcheb benchmark: runs the workloads and prints their metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one table
    python3 bench/run.py --selftest
    python3 bench/run.py --record-expected 0,1,2   # rewrite expected.json

Each repetition runs in a fresh interpreter (bench/child.py), so the
package's process-wide caches start empty as they do for a CLI user.
Untraced, repetitions are started until S seconds have passed (at least
three) and each end-to-end metric is the median over repetitions, with
times at reference host speed (bench/hostspeed.py).  Traced,
one untraced repetition is followed by two traced ones; their call counts
must agree exactly, and the per-layer metrics are the median of the two.
The last line of output is one JSON object: correct, attempted, failed
(checks) and metrics.  A record with every sample goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("interval_grid", "interval_kinds", "prime_tallies", "cli_grid_pool")
E2E = (("run_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
RAW = ("wall_run_s", "wall_setup_s", "wall_cpu_s", "speed_factor", "speed_chunks")
MIN_REPS = 3


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _rep(workload: str, seed: int, tag: str, *flags: str) -> dict:
    out = OUT / f"{workload}-s{seed}-{tag}.json"
    if out.exists():
        out.unlink()
    spawn = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), str(spawn), str(out), *flags],
            cwd=ROOT, timeout=175,
        )
    except subprocess.TimeoutExpired:
        return {"error": "repetition timed out", "checks": []}
    if proc.returncode != 0 or not out.exists():
        return {"error": f"child exited with {proc.returncode}", "checks": []}
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _failed_checks(rec: dict) -> tuple[int, int]:
    """(attempted, failed); a repetition that raised counts as one failed
    check on top of those it completed."""
    attempted = len(rec["checks"]) + (1 if rec.get("error") else 0)
    failed = sum(1 for _, ok, _ in rec["checks"] if not ok) + (1 if rec.get("error") else 0)
    return attempted, failed


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (summary for the JSON line, full record)."""
    OUT.mkdir(exist_ok=True)
    reps: list[dict] = []
    t0 = time.monotonic()
    while True:
        reps.append(_rep(workload, seed, f"rep{len(reps)}"))
        if reps[-1].get("error") or trace:
            break
        if len(reps) >= MIN_REPS and time.monotonic() - t0 >= seconds:
            break
    traced = []
    if trace and not reps[-1].get("error"):
        for i in range(2):
            traced.append(_rep(workload, seed, f"trace{i}", "--trace"))
            if traced[-1].get("error"):
                break
    attempted = failed = 0
    for rec in reps + traced:
        a, f = _failed_checks(rec)
        attempted, failed = attempted + a, failed + f
    # the same inputs must give the same exact results in every interpreter
    hashes = sorted({r["results_sha256"] for r in reps + traced if r.get("results_sha256")})
    attempted += 1
    failed += len(hashes) != 1
    ok_reps = [r for r in reps if not r.get("error")]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "samples": {k: [r[k] for r in ok_reps] for k, _ in E2E},
        "raw_samples": {k: [r[k] for r in ok_reps] for k in RAW},
        "inputs": ok_reps[0]["inputs"] if ok_reps else None,
        "results_sha256": hashes,
        "failed_checks": [
            [name, detail] for r in reps + traced for name, ok, detail in r["checks"] if not ok
        ],
        "errors": [r["error"] for r in reps + traced if r.get("error")],
    }
    metrics: dict[str, dict] = {}
    if trace:
        metrics = _trace_metrics(reps, traced, record)
        if record.get("count_mismatch"):
            failed += 1
        attempted += 1
    elif ok_reps:
        for k, unit in E2E:
            q1, med, q3 = _quartiles(record["samples"][k])
            metrics[k] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(ok_reps)}
    record["attempted"], record["failed"] = attempted, failed
    record["metrics"] = metrics
    correct = failed == 0 and bool(metrics)
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, record


COUNT_KEYS = (".calls", ".size", ".candidates", ".polys_tallied", ".primes_classified")


def _trace_metrics(reps, traced, record) -> dict:
    spec = {m["name"]: m for m in _spec()["per_layer"]}
    if len(traced) < 2 or any(t.get("error") for t in traced):
        return {}
    a, b = traced[0]["trace"], traced[1]["trace"]
    counts = [k for k in a if k.endswith(COUNT_KEYS)]
    mismatch = [k for k in counts if a[k] != b[k]]
    record["count_mismatch"] = mismatch
    record["trace_samples"] = [a, b]
    out = {}
    untraced_run = reps[0]["run_s"]
    traced_run = statistics.median(t["run_s"] for t in traced)
    values = dict(a)
    for k in a:
        if k not in counts:
            values[k] = statistics.median([a[k], b[k]])
    values["trace.overhead_s"] = traced_run - untraced_run
    values["trace.spans"] = a["spans_written"]
    for name, m in spec.items():
        out[name] = {"value": values.get(name, 0), "unit": m["unit"]}
    return out


def _print_summary(workload: str, summary: dict, record: dict) -> None:
    print(f"== {workload}  seed {record['seed']}  python {record['python']}  "
          f"nproc {record['nproc']}  git {record['git_sha'][:12]}")
    for name, m in summary["metrics"].items():
        extra = ""
        if "q1" in m:
            extra = f"   (q1 {m['q1']:.4g}, q3 {m['q3']:.4g}, n = {m['n']})"
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}{extra}")
    att, fail = summary["attempted"], summary["failed"]
    print(f"  {'fail_frac':44s} {fail / att if att else 1.0:>14.6g}   ({fail} of {att} checks failed)")
    for name, detail in record["failed_checks"]:
        print(f"  FAILED {name}: {detail}")
    for err in record["errors"]:
        print("  ERROR " + err.strip().replace("\n", "\n        "))
    if len(record["results_sha256"]) != 1:
        print(f"  FAILED results differ between repetitions: {record['results_sha256']}")
    if record.get("count_mismatch"):
        print(f"  FAILED traced call counts differ between two runs: {record['count_mismatch']}")


def _write_record(workload: str, seed: int, trace: bool, record: dict) -> Path:
    path = OUT / f"result-{workload}-s{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


def selftest() -> int:
    """An altered tally must fail an invariant check, not only the recorded
    hash; two traced runs must count the same calls (checked inside every
    traced run)."""
    ok = True
    for workload in WORKLOADS:
        rec = _rep(workload, 1, "tamper", "--tamper")
        caught = [n for n, good, _ in rec["checks"] if not good and n != "results_hash"]
        print(f"selftest tamper {workload}: {'caught by ' + ', '.join(caught) if caught else 'MISSED'}")
        ok &= bool(caught) and not rec.get("error")
    summary, record = run_workload("prime_tallies", 1, 0, True)
    same = record.get("count_mismatch") == [] and summary["correct"]
    print(f"selftest traced call counts repeat: {'yes' if same else 'NO'}")
    ok &= same
    print(json.dumps({"correct": ok, "attempted": len(WORKLOADS) + 1, "failed": 0 if ok else 1, "metrics": {}}))
    return 0 if ok else 1


def record_expected(seeds: list[int]) -> int:
    """Rewrite bench/expected.json for these seeds from fresh repetitions
    whose invariant checks all pass."""
    path = HERE / "expected.json"
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    for workload in WORKLOADS:
        for seed in seeds:
            rec = _rep(workload, seed, "record")
            bad = [n for n, good, _ in rec["checks"] if not good and n != "results_hash"]
            if rec.get("error") or bad or not rec["checks"]:
                sys.stderr.write(f"{workload} seed {seed}: not recorded ({rec.get('error') or bad})\n")
                return 1
            expected.setdefault(workload, {})[str(seed)] = rec["results_sha256"]
            print(f"{workload} seed {seed}: {rec['results_sha256'][:16]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-expected", metavar="SEEDS", default=None,
                    help="comma-separated seeds whose result hashes to (re)write")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ffcheb" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no ffcheb package under {ROOT / 'src'}; run from a checkout\n")
        return 2
    if args.selftest:
        return selftest()
    if args.record_expected:
        return record_expected([int(t) for t in args.record_expected.split(",")])
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        summary, record = run_workload(workload, args.seed, seconds, bool(args.trace))
        path = _write_record(workload, args.seed, bool(args.trace), record)
        _print_summary(workload, summary, record)
        print(f"  record: {path.relative_to(ROOT)}")
        line["correct"] &= summary["correct"]
        line["attempted"] += summary["attempted"]
        line["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else f"{workload}."
        for k, m in summary["metrics"].items():
            line["metrics"][prefix + k] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
