"""Command-line front end.

Two modes share one flag set:

* generator mode (``--gen`` without ``--algo``): write a synthetic stream
  to ``--out``.
* run mode (``--algo``): summarize a stream (from ``--input`` or generated
  in-process via ``--gen``), evaluate the summary, and print a key-value
  report. ``--out`` stores the coreset in the weighted point format,
  ``--report`` duplicates the report to a file.

Reports are ``key = value`` lines (schema version 1); every field except
the ``*_seconds`` timings is reproducible for fixed flags and seeds.
"""

import argparse
import sys
import time

import numpy as np

from . import datagen
from .coreset import BicoEngine
from .evaluation import CostSummary, evaluate_cost_multi, kmeans_repetitions
from .mergereduce import MrConfig, run_piecy_mr
from .pipeline import (PiecyConfig, PipelineStats, default_coreset_size,
                       run_bico, run_piecy)
from .streams import FORMATS, PointSource, StreamFormatError, write_stream

REPORT_VERSION = 1
DEFAULT_NUM_PIECES = 10  # --np


class CliError(Exception):
    """Fatal usage or input problem; message goes to stderr, exit code 2."""


class _TimedPoints:
    """Wrap a point iterable, accumulating pull time and count."""

    def __init__(self, iterable):
        self._iterable = iterable
        self.seconds = 0.0
        self.count = 0

    def __iter__(self):
        it = iter(self._iterable)
        while True:
            t0 = time.perf_counter()
            try:
                x = next(it)
            except StopIteration:
                self.seconds += time.perf_counter() - t0
                return
            self.seconds += time.perf_counter() - t0
            self.count += 1
            yield x


class _GeneratedSource:
    """Re-iterable in-process generator source."""

    def __init__(self, family: str, cfg):
        self._family = family
        self._cfg = cfg
        self.dim = cfg.dim

    def points(self):
        if self._family == "swn":
            return datagen.structured_with_noise(self._cfg)
        if self._family == "lb":
            return datagen.lower_bound(self._cfg)
        return datagen.random_cube(self._cfg)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="piecy",
        description="One-pass weighted coreset summaries for k-means on "
                    "long, high-dimensional point streams.")
    p.add_argument("--algo", choices=["bico", "piecy", "piecy-mr"],
                   help="pipeline to run on the input stream")
    p.add_argument("--gen", choices=["swn", "lb", "random"],
                   help="synthetic family: hidden clusters (swn), nested "
                        "simplices (lb), or a uniform cube (random)")
    p.add_argument("--input", help="input stream file")
    p.add_argument("--format", choices=FORMATS,
                   help="stream file format (default: by file extension)")
    p.add_argument("--weighted", action="store_true",
                   help="input records carry a leading weight")
    p.add_argument("--out", help="output file: generated stream, or the "
                                 "coreset in the weighted format")
    p.add_argument("--report", help="also write the report to this file")

    p.add_argument("--k", type=int, help="number of centers")
    p.add_argument("--coreset-size", type=int,
                   help="feature budget (default 200*k)")
    p.add_argument("--piece-size", type=int,
                   help="points per projection piece (default: coreset size)")
    p.add_argument("--svd-dim", type=int,
                   help="projection rank (default ceil(3k/2))")
    p.add_argument("--np", type=int, dest="num_pieces",
                   help="pieces per engine before a flush (piecy-mr only, "
                        f"default {DEFAULT_NUM_PIECES})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5,
                   help="evaluation repetitions")
    p.add_argument("--eval", choices=["coreset", "full", "both"],
                   dest="eval_mode", default="coreset",
                   help="evaluate centers on the summary, the original "
                        "stream (second pass), or both")

    p.add_argument("--clusters", type=int, help="swn: number of clusters")
    p.add_argument("--y", type=int, dest="points_per_cluster",
                   help="swn: points per cluster")
    p.add_argument("--d", type=int, dest="dim", help="swn: ambient dimension")
    p.add_argument("--x", type=int, dest="active_dims",
                   help="swn: active dimensions per cluster")
    p.add_argument("--n", type=int, help="lb/random: number of points")
    p.add_argument("--spread", type=float,
                   help="half-width of the signal range (family default)")
    p.add_argument("--noise", type=float,
                   help="half-width of the noise range (family default)")
    return p


# Size flags each algorithm does not read; giving one is an error.
_UNREAD_FLAGS = {"bico": (("piece_size", "--piece-size"), ("svd_dim", "--svd-dim"),
                          ("num_pieces", "--np")),
                 "piecy": (("num_pieces", "--np"),)}


def _require(args, name: str, flag: str):
    value = getattr(args, name)
    if value is None:
        raise CliError(f"missing required flag {flag}")
    return value


def _gen_config(args):
    """The ``--gen`` family's config; an unset range keeps the family default."""
    family = args.gen
    ranges = {name: getattr(args, name) for name in ("spread", "noise")
              if getattr(args, name) is not None}
    if family == "swn":
        return datagen.SwnConfig(
            clusters=_require(args, "clusters", "--clusters"),
            points_per_cluster=_require(args, "points_per_cluster", "--y"),
            dim=_require(args, "dim", "--d"),
            active_dims=_require(args, "active_dims", "--x"),
            seed=args.seed, **ranges)
    if family == "lb":
        return datagen.LowerBoundConfig(k=_require(args, "k", "--k"),
                                        n=_require(args, "n", "--n"), **ranges)
    ranges.pop("noise", None)  # a uniform cube has no noise range
    return datagen.RandomConfig(n=_require(args, "n", "--n"), seed=args.seed, **ranges)


def _guess_format(path: str, explicit) -> str:
    if explicit:
        return explicit
    return "csv" if str(path).endswith(".csv") else "bin"


def _make_source(args):
    if args.input is not None:
        fmt = _guess_format(args.input, args.format)
        return PointSource(args.input, fmt, weighted=args.weighted)
    if args.gen is not None:
        return _GeneratedSource(args.gen, _gen_config(args))
    raise CliError("need an input stream: give --input or --gen")


def _run_generator(args) -> int:
    out = _require(args, "out", "--out")
    source = _GeneratedSource(args.gen, _gen_config(args))
    fmt = _guess_format(out, args.format)
    count = write_stream(out, source.points(), source.dim, fmt)
    print(f"wrote {count} points of dimension {source.dim} to {out} ({fmt})")
    return 0


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_report(entries, report_path):
    lines = [f"{key} = {_format_value(value)}" for key, value in entries]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if report_path:
        with open(report_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _summary_entries(prefix: str, summary: CostSummary):
    return [
        (f"{prefix}_cost_min", summary.minimum),
        (f"{prefix}_cost_max", summary.maximum),
        (f"{prefix}_cost_avg", summary.average),
        (f"{prefix}_cost_median", summary.median),
    ]


def _run_pipeline(args) -> int:
    algo = args.algo
    k = _require(args, "k", "--k")
    if k < 1:
        raise CliError("--k must be >= 1")
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    if args.weighted and algo != "bico":
        raise CliError("weighted input is only supported by --algo bico")
    if args.weighted and args.eval_mode != "coreset":
        raise CliError("full-stream evaluation expects unweighted input")
    if args.weighted and args.input is None:
        raise CliError("--weighted needs --input: generated streams are unweighted")
    for name, flag in _UNREAD_FLAGS.get(algo, ()):
        if getattr(args, name) is not None:
            raise CliError(f"{flag} is not used by --algo {algo}")
    # Configuration is validated here, before the input is opened.
    if algo == "bico":
        cfg = None
        coreset_size = (default_coreset_size(k) if args.coreset_size is None
                        else args.coreset_size)
        if coreset_size < k:
            raise CliError(f"--coreset-size {coreset_size} is below --k {k}: "
                           "the feature budget must hold at least k features")
    else:
        sizes = dict(k=k, piece_size=args.piece_size, svd_dim=args.svd_dim,
                     coreset_size=args.coreset_size, seed=args.seed)
        if algo == "piecy":
            cfg = PiecyConfig(**sizes)
        else:
            num_pieces = (DEFAULT_NUM_PIECES if args.num_pieces is None
                          else args.num_pieces)
            cfg = MrConfig(**sizes, num_pieces=num_pieces)
        coreset_size = cfg.coreset_size
    source = _make_source(args)
    if source.dim is None:
        raise CliError("input stream is empty and has no dimension header")

    stats = PipelineStats()
    coreset_t0 = time.perf_counter()
    timed = _TimedPoints(iter(source) if args.weighted else source.points())
    # An overflowing squared norm is reported by BicoEngine.insert.
    with np.errstate(over="ignore"):
        if algo == "bico" and args.weighted:
            engine = BicoEngine(source.dim, coreset_size)
            for point, weight in timed:
                engine.insert(point, weight)
            coreset = engine.extract_coreset()
        elif algo == "bico":
            coreset = run_bico(timed, source.dim, coreset_size)
        elif algo == "piecy":
            coreset = run_piecy(timed, source.dim, cfg, stats)
        else:
            trees = []
            coreset = run_piecy_mr(timed, source.dim, cfg, tree_out=trees)
            stats = trees[0].stats
    coreset_seconds = time.perf_counter() - coreset_t0 - timed.seconds

    n = timed.count
    eval_t0 = time.perf_counter()
    entries_costs = []
    if len(coreset) == 0:
        entries_costs.append(("coreset_empty", True))
    else:
        runs = kmeans_repetitions(coreset.points,
                                  coreset.weights.astype(np.float64), k,
                                  reps=args.reps, seed=args.seed)
        if args.eval_mode in ("coreset", "both"):
            summary = CostSummary.of(cost for _, cost in runs)
            entries_costs.extend(_summary_entries("coreset", summary))
        if args.eval_mode in ("full", "both"):
            centers = [c for c, _ in runs]
            costs = evaluate_cost_multi(centers, source.points())
            entries_costs.extend(_summary_entries("fulldata", CostSummary.of(costs)))
    eval_seconds = time.perf_counter() - eval_t0

    if args.out:
        fmt = _guess_format(args.out, args.format if args.input is None else None)
        write_stream(args.out, coreset, source.dim, fmt, weighted=True)

    entries = [
        ("report_version", REPORT_VERSION),
        ("algorithm", algo),
        ("n", n),
        ("d", source.dim),
        ("k", k),
        ("coreset_budget", coreset_size),
        ("coreset_size", len(coreset)),
        ("coreset_total_weight", coreset.total_weight),
        ("piece_size", "-" if cfg is None else cfg.piece_size),
        ("svd_dim", "-" if cfg is None else cfg.svd_dim),
        ("num_pieces", getattr(cfg, "num_pieces", "-")),
        ("svd_calls", stats.svd_calls),
        ("reps", args.reps),
        ("eval", args.eval_mode),
        ("seed", args.seed),
        ("source", args.input if args.input else f"gen:{args.gen}"),
        ("ingest_seconds", round(timed.seconds, 6)),
        ("svd_seconds", round(stats.svd_seconds, 6)),
        ("coreset_seconds", round(max(coreset_seconds - stats.svd_seconds, 0.0), 6)),
        ("eval_seconds", round(eval_seconds, 6)),
    ]
    entries.extend(entries_costs)
    _emit_report(entries, args.report)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.algo is None and args.gen is not None:
            return _run_generator(args)
        if args.algo is not None:
            return _run_pipeline(args)
        raise CliError("nothing to do: give --algo and/or --gen")
    except (CliError, StreamFormatError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
