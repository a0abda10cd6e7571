"""In-memory span tracer that wraps recdistill's layers from the outside.

Every wrapper replaces a name where its caller looks it up (a module or
class attribute), so nothing under src/ changes.  Each call records its
name, start, end, parent span and thread; the spans stay in memory until
`dump` writes them out.  Self times partition the traced wall time: at
every instant the time goes, in equal shares, to the innermost open span
of each thread that is not waiting on spans it spawned in other threads
(the classify pool), or to no span at all.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._name_ids: dict[str, int] = {}
        self._thread_ids: dict[int, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.cpu_s: dict[str, float] = defaultdict(float)
        self.adopter = -1          # open span that parents spans of pool threads
        self.pool_threads = 0
        self.particle_iters = 0
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.adopter
        with self._lock:
            nid = self._name_ids.setdefault(name, len(self._name_ids))
            if nid == len(self.names):
                self.names.append(name)
            tid = self._thread_ids.setdefault(threading.get_ident(), len(self._thread_ids))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.thread.append(tid)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def cpu_timed(self, name: str, fn):
        """A span that also adds up its thread's CPU time, which excludes
        time spent waiting for the interpreter lock."""
        traced = self.wrap(name, fn)

        def timed(*args, **kwargs):
            c0 = time.thread_time()
            try:
                return traced(*args, **kwargs)
            finally:
                spent = time.thread_time() - c0
                with self._lock:
                    self.cpu_s[name] += spent

        timed.__wrapped__ = fn
        return timed

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span_at(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self.wrap(name, fn))

    def count_at(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self.counter(name, fn))

    def install(self) -> None:
        """Wrap each layer at the names its callers use."""
        from recdistill import classifier, cli, config, distill, rectify, schedule, worldmodel

        for owner in (cli, config):
            self.span_at(owner, "parse_config", "config.parse_config")
        for owner in (cli, schedule):
            self.span_at(owner, "build_schedule", "schedule.build_schedule")
        self.span_at(distill, "loss_weight", "schedule.loss_weight")
        # score is reached as worldmodel.score (rectify, distill) and as the
        # module global inside eps_pretrain; both read the module attribute
        self.span_at(worldmodel, "score", "worldmodel.score")
        self.span_at(worldmodel, "category_posterior", "worldmodel.category_posterior")
        for attr in ("render", "render_jacobian"):
            self.span_at(distill, attr, "worldmodel.render")
        self.count_at(worldmodel.PoseLabeledMixture, "__post_init__", "worldmodel.mixture_builds")
        self.count_at(np.linalg, "cholesky", "worldmodel.cholesky")
        self.span_at(distill, "grad_log_r", "rectify.grad_log_r")
        self.span_at(rectify, "finite_difference_grad", "oracle.finite_difference_grad")
        self.span_at(distill, "ema_update", "estimator.ema_update")
        self.span_at(distill, "tweedie_x0", "estimator.tweedie_x0")
        self.span_at(distill, "variational_eps", "distill.variational_eps")
        for attr in ("sds_step", "vsd_step", "usd_step", "ctrl_step"):
            self.span_at(distill, attr, "distill.step")
        self.span_at(distill, "particle_split", "distill.particle_split")
        self.span_at(distill, "write_report", "distill.write_report")
        self._patch(distill, "run", self._run_wrapper)
        self._patch(classifier, "classify", lambda fn: self.cpu_timed("classifier.classify", fn))
        for attr in ("extract_features", "segment_foreground", "orientation_similarity", "texture_similarity"):
            self.span_at(classifier, attr, f"classifier.{attr}")
        self.span_at(classifier, "build_template", "classifier.template_build")
        self.span_at(classifier, "generate_corpus", "classifier.generate_corpus")
        for attr in ("read_pgm", "write_pgm"):
            self.span_at(classifier, attr, "classifier.pgm_io")
        self._patch(cli, "ThreadPoolExecutor", lambda _: self._pool_class())

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _run_wrapper(self, run):
        traced = self.wrap("distill.run", run)

        def counted_run(ps, m, schedule, cfg):
            self.particle_iters += ps.num_particles * cfg.iters
            return traced(ps, m, schedule, cfg)

        return counted_run

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pool_threads = self._max_workers

            def __enter__(self):
                self._span = tracer.open("cli.classify_pool")
                tracer.adopter = self._span
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.adopter = -1
                    tracer.close(self._span)

        return TracedPool

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, float]:
        """Per-span self time and the traced time covered by no span."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        idx = np.arange(n)
        # ends sort before starts at equal times; nested ends innermost first
        times = np.concatenate([end, start])
        kinds = np.concatenate([np.zeros(n, int), np.ones(n, int)])
        order_key = np.concatenate([-idx, idx])
        order = np.lexsort((order_key, kinds, times))
        parent = self.parent.tolist()
        thread = self.thread.tolist()
        out = [0.0] * n
        stacks: dict[int, list[int]] = defaultdict(list)
        waiting = defaultdict(int)
        running: list[int] = []
        uncovered = 0.0
        prev = float(times[order[0]]) if n else 0.0
        for t, kind, key in zip(times[order].tolist(), kinds[order].tolist(), order_key[order].tolist()):
            dt = t - prev
            if dt > 0.0:
                if running:
                    share = dt / len(running)
                    for r in running:
                        out[r] += share
                else:
                    uncovered += dt
            prev = t
            i = key if kind else -key
            th, p = thread[i], parent[i]
            cross = p >= 0 and thread[p] != th
            if kind:
                stacks[th].append(i)
                waiting[p] += cross
            else:
                stacks[th].pop()
                waiting[p] -= cross
            running = [s[-1] for s in stacks.values() if s and not waiting[s[-1]]]
        return np.array(out), uncovered

    def layer_stats(self) -> tuple[dict, float]:
        """calls, self_s and total_s per span name, and the uncovered time."""
        self_s, uncovered = self.self_times()
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_s, minlength=k)
        totals = np.bincount(names, weights=dur, minlength=k)
        stats = {name: {"calls": int(calls[i]), "self_s": float(selfs[i]), "total_s": float(totals[i])}
                 for i, name in enumerate(self.names)}
        return stats, uncovered

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 thread=np.frombuffer(self.thread, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float))
