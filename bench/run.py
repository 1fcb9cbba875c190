"""piecy end-to-end benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. A run generates its input streams from ``--seed`` with
the references the checks need, and runs one untimed warm-up job. A job is
what ``piecy --algo ALGO --eval both`` does: open the stream with
``streams.PointSource``, summarize it in one pass, cluster the summary with
``kmeans_repetitions`` and evaluate the centers on the full stream in a
second pass. Rounds of one job per stream then repeat for ``--seconds``.
The first job on each stream is checked against computations made apart
from the library, and every later job must reproduce it exactly. The last
stdout line is one JSON object: the end-to-end metrics (medians over the
rounds) with ``--trace 0``, the per-layer metrics with ``--trace 1``. See
README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# One BLAS/OpenMP thread: with the default pools the same k-means call took
# from 0.28 s to 1.32 s on a 2-core machine. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import piecy
from piecy import evaluation, mergereduce, pipeline, streams

if not Path(piecy.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"piecy imported from {piecy.__file__}, not from {ROOT / 'src'}")

from instance import SwnSpec, full_costs, write_swn
from tracing import Tracer, tree_levels

REPS = 5                  # the CLI's default --reps
QUALITY_BOUND = 1.0       # cost_ratio must beat the planted partition
REL_TOL = 1e-9

_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {kind: {m["name"]: m["unit"] for m in _DECLARED[kind]}
           for kind in ("end_to_end", "per_layer")}


@dataclass(frozen=True)
class Workload:
    algo: str
    spec: SwnSpec
    k: int
    budget: int                  # --coreset-size
    piece_size: int = 0          # --piece-size
    svd_dim: int = 0             # --svd-dim
    num_pieces: int = 0          # --np
    # Independent streams per run. One engine's cost per insert depends on
    # where the stream ends within a threshold-doubling cycle, which varies
    # from seed to seed by up to 35% on one stream; a round of one job per
    # stream averages that out.
    streams: int = 1


WORKLOADS = {
    # Long, moderately wide streams, unit weights, no projection: the cost
    # is per-insert engine work. linalg and mergereduce never run.
    "bico-swn-d100": Workload(
        "bico", SwnSpec(clusters=20, per_cluster=1000, dim=100, active=10),
        k=20, budget=1000, streams=3),
    # The paper's piecy regime: medium n, high d. Per-piece SVD and
    # projection, full-ambient-dimension inserts, the costliest Lloyd.
    "piecy-swn-d1000": Workload(
        "piecy", SwnSpec(clusters=10, per_cluster=800, dim=1000, active=50),
        k=10, budget=1000, piece_size=2000, svd_dim=15, streams=3),
    # The longest stream. Small pieces and branching factor 4 build a tree
    # of four levels with weighted inserts and weighted SVDs above level 0.
    # Its 18 level-0 engines already average the per-engine variation.
    "piecy-mr-swn-long": Workload(
        "piecy-mr", SwnSpec(clusters=10, per_cluster=3600, dim=300, active=15),
        k=10, budget=1000, piece_size=500, svd_dim=15, num_pieces=4),
}


@dataclass
class JobResult:
    pass_s: float
    job_s: float
    coreset: object
    runs: list
    costs: list
    tree_stats: object

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.coreset.points.tobytes())
        h.update(self.coreset.weights.tobytes())
        for centers, cost in self.runs:
            h.update(centers.tobytes())
            h.update(np.float64(cost).tobytes())
        h.update(np.asarray(self.costs, dtype=np.float64).tobytes())
        return h.hexdigest()


def run_job(w: Workload, path: str, seed: int, tracer=None) -> JobResult:
    phase = tracer.in_phase if tracer else (lambda name: nullcontext())
    trees = []
    gc.collect()
    t0 = time.perf_counter()
    with phase("pass"):
        source = streams.PointSource(path, "bin")
        if w.algo == "bico":
            coreset = pipeline.run_bico(source.points(), source.dim, w.budget)
        elif w.algo == "piecy":
            cfg = pipeline.PiecyConfig(k=w.k, piece_size=w.piece_size, svd_dim=w.svd_dim,
                                       coreset_size=w.budget, seed=seed)
            coreset = pipeline.run_piecy(source.points(), source.dim, cfg)
        else:
            cfg = mergereduce.MrConfig(k=w.k, piece_size=w.piece_size,
                                       num_pieces=w.num_pieces, svd_dim=w.svd_dim,
                                       coreset_size=w.budget, seed=seed)
            coreset = mergereduce.run_piecy_mr(source.points(), source.dim, cfg,
                                               tree_out=trees)
    t1 = time.perf_counter()
    with phase("cluster"):
        runs = evaluation.kmeans_repetitions(
            coreset.points, coreset.weights.astype(np.float64), w.k, reps=REPS, seed=seed)
    with phase("evaluate"):
        costs = evaluation.evaluate_cost_multi([c for c, _ in runs], source.points())
    t2 = time.perf_counter()
    return JobResult(t1 - t0, t2 - t0, coreset, runs, costs,
                     trees[0].stats if trees else None)


def tree_schedule(n: int, piece_size: int, branching: int):
    """(flushes, levels) of a merge-and-reduce tree over ``n`` points, from
    its rule alone: a level that has received ``branching`` batches flushes
    one batch upward; at the end every nonempty level but the top flushes,
    lowest first."""
    batches = [0]
    flushes = 0

    def add_batch(level):
        nonlocal flushes
        while True:
            if level == len(batches):
                batches.append(0)
            batches[level] += 1
            if batches[level] < branching:
                return
            batches[level] = 0
            flushes += 1
            level += 1

    for _ in range(-(-n // piece_size)):
        add_batch(0)
    while sum(1 for b in batches if b) > 1:
        low = next(i for i, b in enumerate(batches) if b)
        batches[low] = 0
        flushes += 1
        add_batch(low + 1)
    return flushes, len(batches)


def check_job(w: Workload, job: JobResult, ref, path: str) -> list:
    """Failed checks of one job's outputs, as messages; empty when correct."""
    bad = []
    pts, wts = job.coreset.points, job.coreset.weights
    if job.coreset.total_weight != ref.n:
        bad.append(f"coreset weight {job.coreset.total_weight} != {ref.n} points written")
    if len(job.coreset) > w.budget:
        bad.append(f"coreset size {len(job.coreset)} exceeds budget {w.budget}")
    if wts.dtype.kind not in "iu" or wts.size == 0 or wts.min() < 1:
        bad.append("coreset weights are not positive integers")
    if not np.isfinite(pts).all():
        bad.append("coreset has non-finite points")
    # Centroids and orthogonal projections can only shrink sum w|p|^2.
    mass = float(wts @ np.einsum("ij,ij->i", pts, pts))
    if mass > ref.sq_norm_sum * (1 + REL_TOL):
        bad.append(f"sum w|p|^2 = {mass!r} exceeds input sum |x|^2 = {ref.sq_norm_sum!r}")
    own = full_costs(path, ref.coord_sum.shape[0], [c for c, _ in job.runs])
    for got, want in zip(job.costs, own):
        if abs(got - want) > REL_TOL * want:
            bad.append(f"evaluate_cost_multi {got!r} != chunked cost {want!r}")
    ratio = statistics.median(job.costs) / ref.planted_cost
    if not ratio < QUALITY_BOUND:
        bad.append(f"cost_ratio {ratio!r} not below {QUALITY_BOUND}")
    if w.algo == "bico":
        # Without projection the linear sums are conserved exactly ...
        lin = wts.astype(np.float64) @ pts
        slack = REL_TOL * (ref.coord_abs_sum + 1.0)
        if (np.abs(lin - ref.coord_sum) > slack).any():
            bad.append("sum w*p differs from the input's coordinate sum")
        # ... and a centroid summary drops only each feature's internal error.
        for (_, on_coreset), on_data in zip(job.runs, own):
            if on_coreset > on_data * (1 + REL_TOL):
                bad.append(f"coreset cost {on_coreset!r} above full-data cost {on_data!r}")
    if w.algo == "piecy-mr":
        flushes, levels = tree_schedule(ref.n, w.piece_size, w.num_pieces)
        sources = job.tree_stats.flush_sources
        if len(sources) != flushes:
            bad.append(f"tree flushed {len(sources)} times, schedule says {flushes}")
        if tree_levels(sources) != levels:
            bad.append(f"tree reached {tree_levels(sources)} levels, schedule says {levels}")
        if job.tree_stats.peak_live_engines > levels:
            bad.append(f"{job.tree_stats.peak_live_engines} live engines "
                       f"on {levels} levels")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    paths = [str(out_dir / f"{args.workload}-{os.getpid()}-{i}.bin")
             for i in range(w.streams)]
    try:
        refs = [write_swn(path, w.spec, (args.seed, i)) for i, path in enumerate(paths)]
        first = {0: run_job(w, paths[0], args.seed)}
        setup_s = time.perf_counter() - PROCESS_START
        # The peak of one job in a fresh process, as a CLI user sees it.
        # Later jobs in the same process only add allocator history.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digests = {0: first[0].digest()}

        # One round is one job on every stream; figures are per round.
        pass_rate, job_s, traced_job_s, layers, dumps = [], [], [], [], []
        reproduced = True
        deadline = time.perf_counter() + args.seconds
        while True:
            round_pass = round_job = round_traced = 0.0
            round_layers = []
            for i, path in enumerate(paths):
                job = None   # drop the previous job's outputs first, as a user would
                job = run_job(w, path, args.seed)
                if i not in first:
                    first[i] = job
                    digests[i] = job.digest()
                reproduced &= job.digest() == digests[i]
                round_pass += job.pass_s
                round_job += job.job_s
                if args.trace:
                    job = None
                    tracer = Tracer()
                    tracer.install()
                    try:
                        job = run_job(w, path, args.seed, tracer)
                    finally:
                        tracer.uninstall()
                    reproduced &= job.digest() == digests[i]
                    round_traced += job.job_s
                    round_layers.append(tracer.layer_metrics(job.tree_stats))
                    dumps.append(tracer.dump())
            job = None
            pass_rate.append(w.streams * w.spec.n / round_pass)
            job_s.append(round_job / w.streams)
            if args.trace:
                traced_job_s.append(round_traced / w.streams)
                layers.append({name: statistics.fmean(m[name] for m in round_layers)
                               for name in round_layers[0]})
            if time.perf_counter() >= deadline:
                break
        problems = []
        for i, path in enumerate(paths):
            problems += check_job(w, first[i], refs[i], path)
        cost_ratio = statistics.fmean(statistics.median(first[i].costs) / refs[i].planted_cost
                                      for i in range(w.streams))
    finally:
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
    if not reproduced:
        problems.append("a job's outputs differ from the first job's on the same stream")

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_job_s) - statistics.median(job_s)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "jobs": dumps}))
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_pts_per_s": statistics.median(pass_rate),
            "job_s": statistics.median(job_s),
            "cost_ratio": cost_ratio,
            "peak_rss_mb": peak_rss_mb,
        }
    declared = METRICS["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's "
                           f"{sorted(declared)}")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": w.streams * (len(job_s) + len(traced_job_s)),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
