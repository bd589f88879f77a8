"""One repetition of one workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED SPAWN_NS OUT_JSON [--trace] [--tamper]

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time includes interpreter start.  Phases: set-up
(imports, fields, covers), the timed phase, then results and checks.  With
--trace the layer wrappers are installed before set-up and removed before
the checks; spans are written next to OUT_JSON.  --tamper alters one tally
before checking (the benchmark's self-test).

Untraced, the host's speed is sampled from set-up to the end of the timed
phase (bench/hostspeed.py): each time is recorded as measured minus the
reference chunks' own time (wall_*), and as scaled to reference speed.
"""

import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402


def _cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _peak_rss_mb(own: bool) -> float:
    """Largest max-RSS of the workload's processes: this one (unless the
    work ran in subprocesses only) and every waited-for descendant."""
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if own else 0
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0  # ru_maxrss is in KiB on Linux


def _tamper(results: dict) -> None:
    """Alter one tally: an interval count, a prime tally, or the first
    empirical mean of the CLI's CSV."""
    for rec in results.values():
        if isinstance(rec, dict) and "counts" in rec:
            rec["counts"][0][1] += 1
            return
        if isinstance(rec, dict) and "tallies" in rec:
            rec["tallies"][0][0] += 1
            return
    import csv
    import io
    from fractions import Fraction

    rows = list(csv.reader(io.StringIO(results["csv"])))
    q = int(rows[1][0])
    rows[1][2] = str(Fraction(rows[1][2]) + Fraction(1, q**3))
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    results["csv"] = buf.getvalue()


def main(argv) -> int:
    name, seed, spawn_ns, out_path = argv[:4]
    seed, spawn_ns = int(seed), int(spawn_ns)
    traced, tamper = "--trace" in argv, "--tamper" in argv
    signal.alarm(170)  # never outlive the benchmark's per-run limit
    out_dir = os.path.dirname(out_path)
    rec = {"workload": name, "seed": seed, "traced": traced, "error": None, "checks": []}
    tracer = None
    speed = hostspeed.HostSpeed()
    # traced repetitions run no chunks inside spans; the CLI workload
    # samples in its own processes
    if not traced and name != "cli_grid_pool":
        speed.start()
    try:
        if traced:
            import layers
            from tracing import Tracer

            wdir = os.path.join(out_dir, "workers")
            os.makedirs(wdir, exist_ok=True)
            tracer = Tracer(wdir)
            layers.install(tracer)
        import workloads

        wl = workloads.make(name, seed, out_dir)
        rec["inputs"] = wl.inputs()
        subprocess_run = name == "cli_grid_pool" and not traced
        t_setup = time.monotonic_ns()
        wl.setup()
        t0 = time.monotonic_ns()
        if subprocess_run:
            rec["wall_setup_s"] = (t0 - t_setup) * 1e-9  # the import-only interpreter
        else:
            rec["wall_setup_s"] = (t0 - spawn_ns) * 1e-9 - sum(speed.samples)
        setup_chunks = len(speed.samples)
        if traced:  # chunks just outside the timed phase, so outside every span
            speed.calibrate()
            t0 = time.monotonic_ns()
        cpu0 = _cpu()
        if name == "cli_grid_pool" and traced:
            wl.run_in_process()
        else:
            wl.run()
        t1 = time.monotonic_ns()
        wall, cpu = (t1 - t0) * 1e-9, _cpu() - cpu0
        if traced:
            speed.calibrate()
            samples = speed.samples
        elif subprocess_run:
            cli_proc, workers = hostspeed.load(wl.speed_dir)
            samples = cli_proc + workers
            # the workers' chunks ran side by side, one pool slot each
            wall -= sum(cli_proc) + sum(workers) / wl.THREADS
            cpu -= sum(samples)
        else:
            speed.stop()
            samples = speed.samples
            wall -= sum(samples[setup_chunks:])
            cpu -= sum(samples[setup_chunks:])
        rec["wall_run_s"], rec["wall_cpu_s"] = wall, cpu
        rec["speed_chunks"] = len(samples)
        rec["speed_factor"] = hostspeed.factor(samples)
        for k in ("setup_s", "run_s", "cpu_s"):
            rec[k] = rec["wall_" + k] * rec["speed_factor"]
        if tracer is not None:
            tracer.uninstall()
            tracer.merge_workers()
            rec["trace"] = layers.collect(tracer, wl)
            rec["trace"]["spans_written"] = tracer.dump(out_path[: -len(".json")] + ".spans.json")
        import checks

        results = wl.results()
        if tamper:
            _tamper(results)
        rec["results_sha256"] = checks.results_hash(results)
        rec["checks"] = checks.run_checks(wl, results)
    except Exception:
        rec["error"] = traceback.format_exc()
    rec["peak_rss_mb"] = _peak_rss_mb(own=traced or name != "cli_grid_pool")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
