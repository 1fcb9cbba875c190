"""Spans and counts around the library's public calls, for the traced run.

``Tracer.install`` replaces each traced function under the name its caller
looks it up by (``pipeline`` calls ``randomized_truncated_svd`` through its
own import, ``weighted_best_fit`` through ``linalg``'s, and so on) and
``Tracer.uninstall`` puts the originals back; nothing inside the package is
edited. Spans nest through a stack, so a span's self time is its duration
minus the time of the spans opened inside it. Aggregates are keyed by the
job phase that was open (``pass``, ``cluster`` or ``evaluate``), which
keeps, say, the reads of the evaluation pass out of the summarization
pass's read time. Spans opened per point or per piece are only aggregated;
every other span is also kept whole for the trace file.
"""

import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from piecy import coreset, evaluation, linalg, mergereduce, pipeline, streams

# Spans too many to keep whole: one per point read, piece pulled or insert.
AGGREGATE_ONLY = {"streams.read", "pipeline.iter_pieces", "coreset.insert"}


def svd_gflop(rows: int, cols: int, trunc) -> float:
    """Floating-point work of ``randomized_truncated_svd`` on a rows x cols
    matrix: 2*rows*cols*r per product with the sketch, 2 + 2q of them,
    plus the QR factorizations of the rows x r and cols x r panels."""
    r = trunc.rank + trunc.oversample
    q = trunc.power_iterations
    products = 2.0 * rows * cols * r * (2 + 2 * q)
    qrs = 4.0 * r * r * (rows * (q + 1) + cols * q)
    return (products + qrs) / 1e9


def tree_levels(flush_sources) -> int:
    """Levels of a merge-and-reduce tree: a flush from level L feeds L + 1."""
    return max(flush_sources, default=-1) + 2


class Tracer:
    def __init__(self):
        self.phase = None
        self._stack = []                  # open spans: [name, start, child time]
        self._agg = {}                    # (phase, name) -> [inclusive s, self s, calls]
        self.counts = Counter()           # (phase, name) -> count
        self.spans = []                   # whole spans, all but AGGREGATE_ONLY
        self._first_threshold = {}        # id(engine) -> first nonzero threshold
        self._saved = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def end(self) -> None:
        now = perf_counter()
        name, start, child = self._stack.pop()
        dur = now - start
        agg = self._agg.get((self.phase, name))
        if agg is None:
            agg = self._agg[(self.phase, name)] = [0.0, 0.0, 0]
        agg[0] += dur
        agg[1] += dur - child
        agg[2] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if name not in AGGREGATE_ONLY:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((self.phase, name, parent, start, now))

    def count(self, name: str, amount=1) -> None:
        self.counts[(self.phase, name)] += amount

    @contextmanager
    def in_phase(self, phase: str):
        self.phase = phase
        self.begin("job." + phase)
        try:
            yield
        finally:
            self.end()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        self._patch(streams.PointSource, "points", self._wrap_points)
        for owner in (pipeline, mergereduce):
            self._patch(owner, "iter_pieces", self._wrap_iter_pieces)
            self._patch(owner, "project", lambda f: self._wrap_call("linalg.project", f))
        self._patch(pipeline, "run_bico", lambda f: self._wrap_call("pipeline.run", f))
        self._patch(pipeline, "run_piecy", lambda f: self._wrap_call("pipeline.run", f))
        self._patch(mergereduce, "run_piecy_mr",
                    lambda f: self._wrap_call("pipeline.run", f))
        for method in ("push_piece", "finalize"):
            self._patch(mergereduce.MergeReduceTree, method,
                        lambda f: self._wrap_call("mergereduce.tree", f))
        for owner in (pipeline, linalg):
            self._patch(owner, "randomized_truncated_svd", self._wrap_svd)
        self._patch(mergereduce, "weighted_best_fit",
                    lambda f: self._wrap_call("linalg.weighted_best_fit", f))
        self._patch(coreset.BicoEngine, "insert", self._wrap_insert)
        self._patch(coreset.BicoEngine, "_rebuild", self._wrap_rebuild)
        self._patch(coreset.BicoEngine, "extract_coreset", self._wrap_extract)
        self._patch(evaluation, "kmeanspp_seed",
                    lambda f: self._wrap_call("evaluation.seed", f))
        self._patch(evaluation, "lloyd_iterate", self._wrap_lloyd)
        self._patch(evaluation, "evaluate_cost_multi",
                    lambda f: self._wrap_call("evaluation.full_pass", f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def _timed_iter(self, name: str, counter: str, iterator):
        while True:
            self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end()
            self.count(counter)
            yield item

    def _wrap_points(self, fn):
        def points(source):
            return self._timed_iter("streams.read", "streams.points", fn(source))
        return points

    def _wrap_iter_pieces(self, fn):
        def iter_pieces(points, piece_size, dim):
            return self._timed_iter("pipeline.iter_pieces", "pipeline.pieces",
                                    fn(points, piece_size, dim))
        return iter_pieces

    def _wrap_svd(self, fn):
        def randomized_truncated_svd(a, trunc):
            self.count("linalg.svd_gflop", svd_gflop(a.shape[0], a.shape[1], trunc))
            self.begin("linalg.randomized_svd")
            try:
                return fn(a, trunc)
            finally:
                self.end()
        return randomized_truncated_svd

    def _note_threshold(self, engine) -> None:
        if id(engine) not in self._first_threshold and engine.threshold > 0.0:
            self._first_threshold[id(engine)] = engine.threshold

    def _wrap_insert(self, fn):
        def insert(engine, point, weight=None):
            self.begin("coreset.insert")
            try:
                if weight is None:
                    fn(engine, point)
                else:
                    fn(engine, point, weight)
            finally:
                self.end()
            self._note_threshold(engine)
            if weight is not None:
                self.count("coreset.weight_of_weighted", int(weight))
                self.count("mergereduce.weighted_inserts")
        return insert

    def _wrap_rebuild(self, fn):
        def _rebuild(engine):
            # The first rebuild can run inside the very insert that set the
            # initial threshold, before the insert wrapper sees it.
            self._note_threshold(engine)
            self.begin("coreset.rebuild")
            try:
                return fn(engine)
            finally:
                self.end()
        return _rebuild

    def _wrap_extract(self, fn):
        def extract_coreset(engine):
            self.begin("coreset.extract")
            try:
                out = fn(engine)
            finally:
                self.end()
            first = self._first_threshold.pop(id(engine), None)
            if first is not None:
                self.count("coreset.threshold_doublings",
                           round(math.log2(engine.threshold / first)))
            self.count("coreset.features", len(out))
            return out
        return extract_coreset

    def _wrap_lloyd(self, fn):
        def lloyd_iterate(points, weights, centers, max_iters=evaluation.DEFAULT_MAX_ITERS,
                          tol=evaluation.DEFAULT_TOL, cost_log=None):
            log = [] if cost_log is None else cost_log
            self.begin("evaluation.lloyd")
            try:
                return fn(points, weights, centers, max_iters, tol, log)
            finally:
                self.end()
                self.count("evaluation.lloyd_iters", len(log))
        return lloyd_iterate

    # -- results -----------------------------------------------------------

    def layer_metrics(self, tree_stats) -> dict:
        """Per-layer figures of one traced job."""
        def total(name, phase="pass"):
            return self._agg.get((phase, name), (0.0, 0.0, 0))[0]

        def self_s(name, phase="pass"):
            return self._agg.get((phase, name), (0.0, 0.0, 0))[1]

        def calls(name, phase="pass"):
            return self._agg.get((phase, name), (0.0, 0.0, 0))[2]

        def count(name, phase="pass"):
            return self.counts[(phase, name)]

        inserts = calls("coreset.insert")
        weighted = count("mergereduce.weighted_inserts")
        insert_s = total("coreset.insert")
        if tree_stats is None:
            flushes = levels = peak_engines = 0
        else:
            flushes = len(tree_stats.flush_sources)
            levels = tree_levels(tree_stats.flush_sources)
            peak_engines = tree_stats.peak_live_engines
        return {
            "streams.points": count("streams.points"),
            "streams.read_s": total("streams.read"),
            "pipeline.pieces": count("pipeline.pieces"),
            "pipeline.piece_s": self_s("pipeline.iter_pieces"),
            "pipeline.run_self_s": self_s("pipeline.run"),
            "linalg.svd_calls": calls("linalg.randomized_svd"),
            "linalg.svd_s": total("linalg.randomized_svd") + self_s("linalg.weighted_best_fit"),
            "linalg.svd_gflop": count("linalg.svd_gflop"),
            "linalg.project_s": total("linalg.project"),
            "coreset.inserts": inserts,
            "coreset.weight_inserted": inserts - weighted + count("coreset.weight_of_weighted"),
            "coreset.insert_s": insert_s,
            "coreset.insert_us": insert_s / inserts * 1e6 if inserts else 0.0,
            "coreset.rebuilds": calls("coreset.rebuild"),
            "coreset.rebuild_s": total("coreset.rebuild"),
            "coreset.threshold_doublings": count("coreset.threshold_doublings"),
            "coreset.features": count("coreset.features"),
            "coreset.extract_s": total("coreset.extract"),
            "mergereduce.flushes": flushes,
            "mergereduce.levels": levels,
            "mergereduce.weighted_inserts": weighted,
            "mergereduce.peak_live_engines": peak_engines,
            "mergereduce.tree_self_s": self_s("mergereduce.tree"),
            "evaluation.seed_s": total("evaluation.seed", "cluster"),
            "evaluation.lloyd_s": total("evaluation.lloyd", "cluster"),
            "evaluation.lloyd_iters": count("evaluation.lloyd_iters", "cluster"),
            "evaluation.full_pass_s": total("evaluation.full_pass", "evaluate"),
        }

    def dump(self) -> dict:
        """Aggregates, counts and whole spans in a JSON-ready form."""
        return {
            "aggregates": [{"phase": p, "name": name, "total_s": agg[0], "self_s": agg[1],
                            "calls": agg[2]}
                           for (p, name), agg in self._agg.items()],
            "counts": [{"phase": p, "name": name, "value": value}
                       for (p, name), value in self.counts.items()],
            "spans": [{"phase": p, "name": name, "parent": parent,
                       "start": start, "end": end}
                      for p, name, parent, start, end in self.spans],
        }
