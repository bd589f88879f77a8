"""Outside-in tracer: spans around calls into ffcheb's layers.

The package is not edited.  `Tracer.install` replaces a function at every
name a caller looks it up under (modules bind functions at import, so
`factor_raw` must be swapped in `polys`, `covers` and `factypes` alike) and
`uninstall` puts the originals back.  Each call records one span: a name id,
start and end (perf_counter_ns), its parent span and whether a span of the
same name is already open (so `total` counts recursion once).  Spans stay in
memory as flat arrays until `dump` writes them out.

Pool workers forked while the tracer is installed inherit the wrappers; the
wrapper around `intervals._chunk_worker` clears the inherited spans on entry
and dumps the worker's own spans to `worker_dir` before it returns, and the
traced process merges those files into its totals.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.objects: dict[str, dict[int, object]] = {}  # kind -> id -> obj
        self._reset()
        for fname in os.listdir(worker_dir):  # left by a run that died
            if fname.startswith("worker-"):
                os.remove(os.path.join(worker_dir, fname))

    def _reset(self) -> None:
        self.sname = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.nested = array("b")
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self.worker_spans: list[dict] = []

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- spans -------------------------------------------------------------

    def call(self, name_id: int, fn, args, kwargs):
        idx = len(self.sname)
        stack = self._stack
        opened = self._open.get(name_id, 0)
        self.sname.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.nested.append(1 if opened else 0)
        self.end.append(0)
        self._open[name_id] = opened + 1
        stack.append(idx)
        self.start.append(_clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = _clock()
            stack.pop()
            self._open[name_id] = opened

    def wrap(self, name: str, fn, name_of=None):
        """Span-recording wrapper; `name_of(args)` may refine the span name
        per call (for example by cover kind)."""
        call = self.call
        if name_of is None:
            nid = self._name_id(name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)

        else:
            ids: dict[str, int] = {}

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sub = name_of(args)
                nid = ids.get(sub)
                if nid is None:
                    nid = ids[sub] = self._name_id(f"{name}.{sub}")
                return call(nid, fn, args, kwargs)

        return wrapper

    def keep(self, kind: str, fn):
        """Wrapper that remembers what fn returns (covers, fields) so their
        cache sizes can be read after the run."""
        bucket = self.objects.setdefault(kind, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            bucket[id(out)] = out
            return out

        return wrapper

    def pool_worker(self, fn):
        """Wrapper for a function run in forked pool workers: drop the
        parent's inherited spans, run, write this worker's spans out."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return fn(*args, **kwargs)
            self._reset()
            for bucket in self.objects.values():
                bucket.clear()
            out = fn(*args, **kwargs)
            path = os.path.join(
                self.worker_dir, f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
            )
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.export(), fh)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, owner, attr: str, make) -> None:
        """Replace owner.attr and every module-level alias of it."""
        orig = getattr(owner, attr)
        new = make(orig)
        targets = [(owner, attr)]
        for mod in list(sys.modules.values()):
            if mod is owner or not getattr(mod, "__name__", "").startswith("ffcheb"):
                continue
            for name, val in list(vars(mod).items()):
                if val is orig:
                    targets.append((mod, name))
        for obj, name in targets:
            self._installed.append((obj, name, getattr(obj, name)))
            setattr(obj, name, new)

    def uninstall(self) -> None:
        for obj, name, orig in reversed(self._installed):
            setattr(obj, name, orig)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def export(self) -> dict:
        return {
            "pid": os.getpid(),
            "names": list(self.names),
            "sname": self.sname.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "nested": self.nested.tolist(),
            "objects": self.worker_objects(),
        }

    def worker_objects(self) -> dict:
        """Cache sizes of covers a pool worker built for itself."""
        covers = self.objects.get("cover", {}).values()
        return {"omega_cache": sum(len(c._omega_cache) for c in covers)}

    def merge_workers(self) -> None:
        for fname in sorted(os.listdir(self.worker_dir)):
            if fname.startswith("worker-"):
                path = os.path.join(self.worker_dir, fname)
                with open(path, encoding="utf-8") as fh:
                    self.worker_spans.append(json.load(fh))
                os.remove(path)

    def dump(self, path: str) -> int:
        """Write this process's spans plus merged worker spans; returns the
        number of spans written."""
        parts = [self.export()] + self.worker_spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(parts, fh, separators=(",", ":"))
        return sum(len(p["sname"]) for p in parts)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans only) and self_s
        (duration minus time covered by child spans)."""
        out: dict[str, dict[str, float]] = {}
        for part in [self.export()] + self.worker_spans:
            names = part["names"]
            sname, start, end = part["sname"], part["start"], part["end"]
            parent, nested = part["parent"], part["nested"]
            n = len(sname)
            child = [0] * n
            for i in range(n):
                p = parent[i]
                if p >= 0:
                    child[p] += end[i] - start[i]
            for i in range(n):
                rec = out.setdefault(
                    names[sname[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                dur = end[i] - start[i]
                rec["calls"] += 1
                rec["self_s"] += (dur - child[i]) * 1e-9
                if not nested[i]:
                    rec["total_s"] += dur * 1e-9
        return out
