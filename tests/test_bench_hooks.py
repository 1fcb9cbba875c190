"""Smoke test of the benchmark's tracer against the library.

``bench/tracing.py`` wraps library functions under the names their callers
look them up by. A rename that leaves a traced hook off the call path makes
the traced benchmark report zero for that layer without failing, so this
runs tiny piecy and piecy-mr jobs under the tracer, through the same three
phases as a benchmark job (summarize, cluster the summary, evaluate the
centers on the stream), and checks that every layer saw work and that
uninstalling restores every original.
"""

import types
from pathlib import Path

import numpy as np

from piecy import coreset, evaluation, linalg, mergereduce, pipeline, streams

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """Run bench/tracing.py as a fresh module, writing no bytecode cache."""
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def hook_owners():
    return (coreset, evaluation, linalg, mergereduce, pipeline, streams,
            coreset.BicoEngine, mergereduce.MergeReduceTree, streams.PointSource)


def snapshot():
    return {(owner, name): value
            for owner in hook_owners() for name, value in vars(owner).items()}


def changed_since(before):
    now = snapshot()
    return {key for key in before.keys() | now.keys() if now.get(key) is not before.get(key)}


def traced_layers(summarize):
    """Per-layer metrics of one job under a freshly installed tracer, which
    is uninstalled afterwards: ``summarize(tree_out)`` in the pass phase,
    then the benchmark's clustering and full-cost calls on its coreset."""
    before = snapshot()
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert (coreset.BicoEngine, "insert") in changed_since(before)
        trees = []
        with tracer.in_phase("pass"):
            summary = summarize(trees)
        with tracer.in_phase("cluster"):
            runs = evaluation.kmeans_repetitions(
                summary.points, summary.weights.astype(np.float64), SIZES["k"],
                reps=2, seed=1)
        with tracer.in_phase("evaluate"):
            evaluation.evaluate_cost_multi([c for c, _ in runs], iter(POINTS))
        layers = tracer.layer_metrics(trees[0].stats if trees else None)
    finally:
        tracer.uninstall()
    assert not changed_since(before)
    return layers


POINTS = np.random.default_rng(2).normal(size=(240, 12))
SIZES = dict(k=2, piece_size=30, svd_dim=3, coreset_size=20, seed=1)
EVALUATION = ("evaluation.seed_s", "evaluation.lloyd_s", "evaluation.lloyd_iters",
              "evaluation.full_pass_s")


def test_tracer_sees_piecy_layers():
    cfg = pipeline.PiecyConfig(**SIZES)
    layers = traced_layers(lambda trees: pipeline.run_piecy(iter(POINTS), 12, cfg))
    for name in ("pipeline.pieces", "linalg.svd_calls", "coreset.inserts") + EVALUATION:
        assert layers[name] > 0, name


def test_tracer_sees_piecy_mr_layers():
    cfg = mergereduce.MrConfig(**SIZES, num_pieces=2)
    layers = traced_layers(
        lambda trees: mergereduce.run_piecy_mr(iter(POINTS), 12, cfg, tree_out=trees))
    for name in ("pipeline.pieces", "linalg.svd_calls", "coreset.inserts",
                 "mergereduce.flushes", "mergereduce.weighted_inserts") + EVALUATION:
        assert layers[name] > 0, name
