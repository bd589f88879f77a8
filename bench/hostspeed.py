"""Host speed, measured in the same processes and at the same time as the work.

On a shared host the same pure-Python code can take 1.6 times as long for a
minute or more at a time, because of other tenants' load.  CPU time slows
with wall time, so it is not scheduling, and repetitions inside one run do
not escape it.  The benchmark therefore measures the host's speed while it
works: a fixed reference chunk (pure-Python, no ffcheb code) runs from a
SIGVTALRM handler every PERIOD_S of the process's CPU time, and each chunk
is timed.  A repetition's times are reported as

    (measured time - time spent in chunks) * REF_CHUNK_S / mean chunk time,

seconds at the speed where a chunk takes REF_CHUNK_S.  Contention slows the
work and the chunks alike and cancels; a change to ffcheb moves the work
only.

The CLI workload works in a subprocess and its pool workers, so it runs the
CLI through this file, which samples in the CLI process and in every call
of `intervals._chunk_worker` and leaves the samples in a directory.  A
traced repetition must keep chunks out of its spans, so it runs them back to
back for CALIBRATE_S just before and just after its timed phase.

The CLI runs through this file as

    python3 bench/hostspeed.py SAMPLE_DIR cheb-grid --d 2 ...
"""

from __future__ import annotations

import functools
import json
import os
import signal
import statistics
import sys
import time

REF_CHUNK_S = 3.3e-4  # mean chunk time, quiet 2.0 GHz Xeon (Sapphire Rapids) vCPU
PERIOD_S = 0.02
CALIBRATE_S = 0.5
_CHUNK_POLY = (3, 1, 4, 1, 5, 9, 2, 6)


def _chunk() -> int:
    """Schoolbook products of small coefficient lists mod 13, the shape of
    ffcheb's inner loops: it slowed with ffcheb's workloads under load more
    closely than plain integer or large-array loops did."""
    acc = 0
    for _ in range(40):
        out = [0] * 15
        for i, x in enumerate(_CHUNK_POLY):
            for j, y in enumerate(_CHUNK_POLY):
                out[i + j] = (out[i + j] + x * y) % 13
        acc += out[3]
    return acc


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        _chunk()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def calibrate(self, seconds: float = CALIBRATE_S) -> None:
        """Chunks back to back, for a phase that must run none inside it."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._tick(None, None)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.samples, fh)


def factor(samples: list[float]) -> float:
    """Multiply a measured time by this to get reference-speed seconds."""
    return REF_CHUNK_S / statistics.fmean(samples)


def load(sample_dir: str) -> tuple[list[float], list[float]]:
    """(samples of the CLI process, samples of all its pool workers)."""
    cli_proc: list[float] = []
    workers: list[float] = []
    for fname in sorted(os.listdir(sample_dir)):
        with open(os.path.join(sample_dir, fname), encoding="utf-8") as fh:
            (cli_proc if fname == "main.json" else workers).extend(json.load(fh))
    return cli_proc, workers


def _sampled_worker(fn, sample_dir: str):
    @functools.wraps(fn)  # pickled by name, so forked workers find this wrapper
    def wrapper(*args, **kwargs):
        speed = HostSpeed()
        speed.start()
        try:
            return fn(*args, **kwargs)
        finally:
            speed.stop()
            speed.dump(os.path.join(sample_dir, f"worker-{os.getpid()}-{time.monotonic_ns()}.json"))

    return wrapper


def main(argv: list[str]) -> int:
    sample_dir, cli_args = argv[0], argv[1:]
    os.makedirs(sample_dir, exist_ok=True)
    for fname in os.listdir(sample_dir):
        os.remove(os.path.join(sample_dir, fname))
    from ffcheb import cli, intervals

    intervals._chunk_worker = _sampled_worker(intervals._chunk_worker, sample_dir)
    speed = HostSpeed()
    speed.start()
    try:
        return cli.main(cli_args)
    finally:
        speed.stop()
        speed.dump(os.path.join(sample_dir, "main.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
