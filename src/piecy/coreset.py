"""Bounded-memory stream summarizer built on clustering features.

A clustering feature stores, for a weighted multiset of points, its total
weight n, the weighted coordinate sum s, and the weighted sum of squared
norms q. That triple is enough to evaluate the exact summed squared error
of the multiset against any single center, so the engine can maintain an
error budget per feature without keeping the points.

The engine covers the stream with features anchored at reference points,
organized in levels whose admission radius shrinks with the level, as in
BICO (Fichtenberger, Gille, Schmidt, Schwiegelshohn and Sohler, ESA 2013):
level 1 admits a point within squared distance R_1^2 = T/16 of a
reference, and radius^2 halves per level, so the radius shrinks by sqrt(2)
per level. These constants are a design choice measured on the benchmark
streams, where they keep level 1 wide enough that inserts do not fall
through to one flat group below it. A point joins the nearest eligible
feature for as many copies as fit under the error threshold T, and the
remainder descends a level; when no feature is eligible a new one opens
at the point. When the feature count would
exceed the budget, T doubles and all features are re-anchored under the
larger threshold. T starts either from the spread of the first distinct
points or from a warm start the caller passes in; the merge-and-reduce
tree gives each level's next engine the final T of the one before it.

Inserting a point with weight w is guaranteed to leave the engine in the
same state as inserting w consecutive unit-weight copies of the same point
(identical feature multiset; weights match exactly, sums up to float
roundoff). The closed-form insertion bound below and the rebuild timing
are both arranged to preserve that equivalence.

Until the structure is built, the engine buffers its input in one
location-keyed bootstrap buffer: one copy and one summed weight per
distinct location, in first-arrival order. The build runs when the
(budget + 1)-th distinct location arrives, so the buffer holds at most
budget + 1 locations however long the stream runs before it. An engine
extracted before its build returns the buffered locations as stored.

``BicoEngine.grow`` raises the engine's dimension by appending zero
coordinates to every point it holds: references, linear sums and buffered
bootstrap locations. Norms and inner products are unchanged, so the engine
goes on as if every point so far had arrived zero-padded. The pipelines
use it to run an engine in the coordinates of a growing orthonormal basis
of its inputs' span: new basis vectors are orthogonal to the old ones, so
the points already absorbed have zero coordinates along them; such an
engine starts at dimension 0, before its basis has a column.

Nearest-reference queries and s.x products are memoized under the point's
bytes, not its identity, so a caller may refill one buffer between inserts.
The memos serve only back-to-back copies of one point, as when w unit
copies stand in for one weighted insert: at seed 1001 they hit 0 times on
all three benchmark workloads, while acceptance criterion 01, which inserts
every point both ways, took 7.7-10.2 s with them and 12.2-15.6 s without
them on a 2-core machine.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .streams import block_rows

# At most this many bootstrap locations set a cold engine's starting threshold;
# ``_min_pairwise_sq`` scans them in row blocks of ``streams.BLOCK_BYTES``.
SAMPLE_CAP = 1001

# Admission radius^2 is T * ROOT_RADIUS_SQ at level 1 and is multiplied by
# LEVEL_RADIUS_SQ per level below, in both ``_absorb`` and ``_reattach``.
ROOT_RADIUS_SQ = 1.0 / 16.0
LEVEL_RADIUS_SQ = 0.5

MAX_TOTAL_WEIGHT = int(np.iinfo(np.int64).max)  # coreset weights are int64


def reject_infinite_norm(x: np.ndarray) -> None:
    """Raise the error for coordinates whose squared norm is not finite."""
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite coordinates")
    raise ValueError("point coordinates overflow")


def max_insertable_copies(group_weight: int, copies: int, cur_error: float,
                          threshold: float, dist_sq: float) -> int:
    """Largest w' <= copies keeping cur_error + s*w'/(s+w')*dist_sq <= threshold.

    The increment is increasing but bounded by s*dist_sq, so when
    s*dist_sq - threshold + cur_error <= 0 the threshold is unreachable and
    every copy fits. Otherwise the bound solves to
    w' = s*(threshold - cur_error) / (s*dist_sq - threshold + cur_error),
    floored because weights are integral.
    """
    slack = group_weight * dist_sq - threshold + cur_error
    if slack <= 0.0:
        return copies
    limit = (group_weight * threshold - group_weight * cur_error) / slack
    if limit >= copies:
        return copies
    if limit <= 0.0:
        return 0
    return int(limit)


@dataclass
class ClusteringFeature:
    """Snapshot of one feature: weight n, linear sum s, squared sum q, and
    the reference point the feature is anchored at."""

    weight: int
    linear_sum: np.ndarray
    square_sum: float
    reference: np.ndarray

    @classmethod
    def from_point(cls, point, weight: int = 1) -> "ClusteringFeature":
        x = np.asarray(point, dtype=np.float64)
        return cls(weight, weight * x, weight * float(x @ x), x.copy())

    def internal_error(self) -> float:
        """SSE of the represented multiset to its own centroid: q - |s|^2/n,
        clamped at zero against roundoff."""
        err = self.square_sum - float(self.linear_sum @ self.linear_sum) / self.weight
        return err if err > 0.0 else 0.0

    def cost_to(self, center) -> float:
        """Exact weighted SSE of the represented multiset to ``center``."""
        c = np.asarray(center, dtype=np.float64)
        if c.shape != self.linear_sum.shape:
            raise ValueError("center dimension does not match the feature")
        cost = (self.square_sum - 2.0 * float(c @ self.linear_sum)
                + self.weight * float(c @ c))
        return cost if cost > 0.0 else 0.0


@dataclass
class Coreset:
    """Weighted point summary: one row per feature centroid."""

    points: np.ndarray   # (size, dim)
    weights: np.ndarray  # (size,), positive integers

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return zip(self.points, self.weights)

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())


class _Group:
    """A candidate set at one tree level: nodes plus a packed reference
    index for vectorized nearest-reference queries.

    The last query is memoized by the point's byte key (references are
    immutable and only appended, so membership changes are the only
    invalidation); repeated copies of one point hit the cache with
    bit-identical results.
    """

    __slots__ = ("nodes", "refs", "norms", "norm0", "size", "work",
                 "ckey", "cj", "cpart")

    def __init__(self, dim: int):
        self.nodes = []
        self.refs = np.empty((8, dim))
        self.norms = np.empty(8)
        self.work = np.empty(8)
        self.size = 0
        self.ckey = None
        self.cj = -1
        self.cpart = math.inf

    def add(self, node: "_Node") -> None:
        i = self.size
        if i == self.refs.shape[0]:
            self.refs = np.resize(self.refs, (2 * i, self.refs.shape[1]))
            self.norms = np.resize(self.norms, 2 * i)
            self.work = np.empty(2 * i)
        ref_sq = float(node.reference @ node.reference)
        self.refs[i] = node.reference
        self.norms[i] = ref_sq
        if i == 0:
            self.norm0 = ref_sq  # a Python float for the one-node query
        self.size = i + 1
        self.nodes.append(node)
        self.ckey = None

    def nearest(self, x: np.ndarray, key: bytes | None = None):
        """Index and |ref|^2 - 2*ref.x of the nearest reference (add |x|^2
        for the true squared distance); (-1, inf) when empty. Ties resolve
        to the lowest insertion index. ``key`` is ``x.tobytes()``, or None
        for a query that is not memoized."""
        n = self.size
        if n == 0:
            return -1, math.inf
        if key is not None and key == self.ckey:
            return self.cj, self.cpart
        if n == 1:
            j = 0
            part = self.norm0 - 2.0 * float(self.nodes[0].reference.dot(x))
        else:
            work = self.work[:n]
            np.dot(self.refs[:n], x, out=work)
            work *= -2.0
            work += self.norms[:n]
            j = int(work.argmin())
            part = float(work[j])
        self.ckey = key
        self.cj = j
        self.cpart = part
        return j, part


class _Node:
    """One feature in the tree; children hold the finer features spawned
    when this one saturated. ``norm_over_n`` (|s|^2/n) and ``err`` (the
    clamped internal error q - |s|^2/n) are refreshed on every update
    rather than recomputed on every visit. The last s.x product is memoized
    by the point's byte key plus the weight at cache time (any update
    changes the weight)."""

    __slots__ = ("weight", "linear_sum", "square_sum", "sum_norm", "norm_over_n",
                 "err", "reference", "children", "index", "dkey", "dweight",
                 "ddot")

    def __init__(self, x: np.ndarray, weight: int, x_sq: float, index: int):
        self.weight = weight
        self.linear_sum = weight * x          # fresh array
        self.square_sum = weight * x_sq
        self.sum_norm = float(weight * weight) * x_sq  # cached |s|^2
        self.refresh()
        self.reference = x.copy()
        self.children = None
        self.index = index
        self.dkey = None
        self.dweight = -1
        self.ddot = 0.0

    def refresh(self) -> None:
        norm_over_n = self.sum_norm / self.weight
        err = self.square_sum - norm_over_n
        self.norm_over_n = norm_over_n
        self.err = err if err > 0.0 else 0.0


class BicoEngine:
    """Single-pass summarizer with a hard feature budget.

    The structure is built once ``budget + 1`` distinct locations have
    arrived. Until then the bootstrap buffer holds at most budget + 1
    distinct locations, one copy each with its summed weight, and the build
    replays them in first-arrival order; an engine extracted before its
    build returns its buffered locations as stored, bit for bit, with their
    summed weights. The threshold it is built with is ``threshold`` when
    that is positive (a warm start, such as the final threshold of an
    engine that summarized similar data), and otherwise comes from the
    spread of the first ``SAMPLE_CAP`` buffered locations: their smallest
    pairwise squared distance times budget / 16. Any positive start works,
    because doubling self-corrects upward. Level
    i admits within radius^2 T/16 * 2^-(i-1), so a cold start puts R_1^2 at
    that smallest squared distance times budget / 256: below budget 256, a
    cold build of distinct locations opens budget + 1 roots and doubles T
    at once. ``dim`` may be 0, as the start of ``grow``. One writer per
    engine; extracted coresets are independent snapshots.
    """

    def __init__(self, dim: int, budget: int, threshold: float = 0.0):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if not 0.0 <= threshold < math.inf:
            raise ValueError("threshold must be finite and >= 0")
        self._dim = dim
        self._budget = budget
        self._total_weight = 0
        self._threshold = float(threshold)
        self._roots = None
        self._num_features = 0
        self._next_index = 0
        self._pending = {}  # bootstrap: key -> [x, summed weight], first-arrival order

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def total_weight(self) -> int:
        return self._total_weight

    @property
    def threshold(self) -> float:
        """The current error threshold T; before the build, the warm start
        given to the constructor, or 0.0 for a cold engine."""
        return self._threshold

    @property
    def num_features(self) -> int:
        if self._roots is None:
            return len(self._pending)
        return self._num_features

    def grow(self, dim: int) -> None:
        """Append ``dim - self.dim`` zero coordinates to every point held.

        Exact: weights, squared sums, norms and the threshold are unchanged.
        Buffered bootstrap points get their location keys recomputed from the
        padded bytes; memo keys from before are shorter than any key after,
        so they never match again. Shrinking is refused.
        """
        if dim < self._dim:
            raise ValueError(f"cannot grow dimension {self._dim} down to {dim}")
        if dim == self._dim:
            return
        self._dim = dim
        if self._roots is None:
            entries = [(_padded(x, dim), w) for x, w in self._pending.values()]
            self._pending = {x.tobytes(): [x, w] for x, w in entries}
            return
        self._roots.refs = _padded(self._roots.refs, dim)
        for _, node in self._walk():
            node.linear_sum = _padded(node.linear_sum, dim)
            node.reference = _padded(node.reference, dim)
            if node.children is not None:
                node.children.refs = _padded(node.children.refs, dim)

    # -- ingestion ---------------------------------------------------------

    def insert(self, point, weight: int = 1) -> None:
        """Absorb ``weight`` copies of ``point``."""
        x = np.asarray(point, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self._dim:
            raise ValueError(f"expected a point of dimension {self._dim}")
        w = int(weight)
        if w < 1 or w != weight:
            raise ValueError("weight must be a positive integer")
        x_sq = float(x.dot(x))
        if not math.isfinite(x_sq):
            reject_infinite_norm(x)
        total = self._total_weight + w
        if total > MAX_TOTAL_WEIGHT:
            raise ValueError("total weight would overflow a coreset's int64 weights")
        self._total_weight = total
        key = x.tobytes()
        if self._roots is None:
            self._bootstrap(x, w, key)
        else:
            self._insert_live(x, x_sq, w, key)

    def _bootstrap(self, x: np.ndarray, w: int, key: bytes) -> None:
        entry = self._pending.get(key)
        if entry is not None:
            entry[1] += w
            return
        self._pending[key] = [x.copy(), w]
        if len(self._pending) > self._budget:
            self._build()

    def _build(self) -> None:
        pending, self._pending = self._pending, {}
        if self._threshold == 0.0:  # cold: the start comes from the first locations
            sample = np.stack([x for x, _ in islice(pending.values(), SAMPLE_CAP)])
            self._threshold = _min_pairwise_sq(sample) * self._budget / 16.0
        self._roots = _Group(self._dim)
        for key, (x, w) in pending.items():
            self._insert_live(x, float(x.dot(x)), w, key)

    def _insert_live(self, x: np.ndarray, x_sq: float, w: int, key: bytes) -> None:
        remaining = w
        while remaining > 0:
            remaining -= self._absorb(x, x_sq, remaining, key)

    def _absorb(self, x: np.ndarray, x_sq: float, remaining: int, key: bytes) -> int:
        """One descent from the roots; returns the number of copies placed.

        Opens at most one feature. If opening would exceed the budget, the
        new feature takes a single copy and a rebuild runs before the caller
        retries the rest; that is exactly the order of events when the
        copies arrive one at a time, which keeps weighted and unit-weight
        streams aligned across rebuilds.
        """
        threshold = self._threshold
        group = self._roots
        radius_sq = threshold * ROOT_RADIUS_SQ
        placed = 0
        while True:
            j, part = group.nearest(x, key)
            if j < 0 or part + x_sq > radius_sq:
                if self._num_features < self._budget:
                    self._open(group, x, x_sq, remaining)
                    return placed + remaining
                self._open(group, x, x_sq, 1)
                self._rebuild()
                return placed + 1
            node = group.nodes[j]
            n = node.weight
            if key == node.dkey and node.dweight == n:
                dot = node.ddot
            else:
                dot = float(node.linear_sum.dot(x))
                node.dkey = key
                node.dweight = n
                node.ddot = dot
            dist_sq = x_sq - (2.0 * dot - node.norm_over_n) / n
            if dist_sq < 0.0:
                dist_sq = 0.0
            take = max_insertable_copies(n, remaining, node.err, threshold, dist_sq)
            if take > 0:
                node.weight = n + take
                if take == 1:
                    node.linear_sum += x
                else:
                    node.linear_sum += take * x
                node.square_sum += take * x_sq
                node.sum_norm += 2.0 * take * dot + float(take * take) * x_sq
                node.refresh()
                placed += take
                remaining -= take
                if remaining == 0:
                    return placed
            if node.children is None:
                node.children = _Group(self._dim)
            group = node.children
            radius_sq *= LEVEL_RADIUS_SQ

    def _open(self, group: _Group, x: np.ndarray, x_sq: float, w: int) -> None:
        group.add(_Node(x, w, x_sq, self._next_index))
        self._next_index += 1
        self._num_features += 1

    # -- rebuilding --------------------------------------------------------

    def _rebuild(self) -> None:
        """Double the threshold and re-anchor every feature until the count
        fits the budget again. Heaviest features first; creation order
        breaks ties. Weight, linear and squared sums are conserved."""
        while self._num_features > self._budget:
            self._threshold *= 2.0
            nodes = [node for _, node in self._walk()]
            for node in nodes:
                node.children = None
            nodes.sort(key=_rebuild_order)
            self._roots = _Group(self._dim)
            self._num_features = 0
            for node in nodes:
                self._reattach(node)

    def _reattach(self, node: _Node) -> None:
        threshold = self._threshold
        group = self._roots
        radius_sq = threshold * ROOT_RADIUS_SQ
        ref = node.reference
        ref_sq = float(ref @ ref)
        while True:
            j, part = group.nearest(ref)
            if j < 0 or part + ref_sq > radius_sq:
                group.add(node)
                self._num_features += 1
                return
            host = group.nodes[j]
            m_weight = host.weight + node.weight
            m_sum = host.linear_sum + node.linear_sum
            m_square = host.square_sum + node.square_sum
            m_norm = float(m_sum @ m_sum)
            if m_square - m_norm / m_weight <= threshold:
                host.weight = m_weight
                host.linear_sum = m_sum
                host.square_sum = m_square
                host.sum_norm = m_norm
                host.refresh()
                return
            if host.children is None:
                host.children = _Group(self._dim)
            group = host.children
            radius_sq *= LEVEL_RADIUS_SQ

    # -- extraction --------------------------------------------------------

    def _walk(self):
        """(level, node) over the built tree in preorder: parents before
        their children, siblings in insertion order."""
        stack = [(1, node) for node in reversed(self._roots.nodes)]
        while stack:
            level, node = stack.pop()
            yield level, node
            if node.children is not None:
                stack.extend((level + 1, child) for child in reversed(node.children.nodes))

    def features(self):
        """Snapshot of all features as (level, ClusteringFeature) pairs, in
        deterministic traversal order."""
        if self._roots is None:
            return [(1, ClusteringFeature.from_point(x, w)) for x, w in self._pending.values()]
        return [(level, ClusteringFeature(node.weight, node.linear_sum.copy(),
                                          node.square_sum, node.reference.copy()))
                for level, node in self._walk()]

    def extract_coreset(self) -> Coreset:
        """One weighted point per feature: centroid with the feature weight,
        in the order of ``features()``. Before the build, the buffered
        locations as stored with their summed weights. Weights sum exactly
        to the total weight consumed."""
        if self._roots is None:
            entries = list(self._pending.values())
        else:
            entries = [(node.linear_sum / node.weight, node.weight)
                       for _, node in self._walk()]
        if not entries:
            return Coreset(np.zeros((0, self._dim)), np.zeros(0, dtype=np.int64))
        points = np.stack([x for x, _ in entries])
        weights = np.array([w for _, w in entries], dtype=np.int64)
        return Coreset(points, weights)


def _rebuild_order(node: _Node):
    return (-node.weight, node.index)


def _padded(a: np.ndarray, dim: int) -> np.ndarray:
    """``a`` with zero columns appended up to ``dim``; a row for 1-d ``a``."""
    out = np.zeros(a.shape[:-1] + (dim,))
    out[..., :a.shape[-1]] = a
    return out


def _min_pairwise_sq(sample: np.ndarray) -> float:
    """Smallest positive squared distance among the m sample rows.

    The rows are scanned in blocks of ``streams.block_rows(8 * m)`` rows, so
    each block's (rows, m) distance matrix fits in ``streams.BLOCK_BYTES``
    however large m is, and a cold build holds no m x m matrix. Each entry
    is |a|^2 + |b|^2 - 2 a.b, evaluated in the order the full matrix used;
    only the products a.b may differ from it in the last bit, because numpy
    forms a full a @ a.T with a symmetric routine and each block with a
    general one. Rows at distance zero (duplicates, signed zeros) are
    skipped; when no pair is apart, the result is 1e-12 times the largest
    squared norm, or 1e-12 when that norm is below 1.
    """
    m = sample.shape[0]
    if m < 2:
        return 1.0
    norms = np.einsum("ij,ij->i", sample, sample)
    smallest = math.inf
    step = block_rows(8 * m)
    for i in range(0, m, step):
        j = min(i + step, m)
        d2 = norms[i:j, None] + norms[None, :]
        gram = sample[i:j] @ sample.T
        gram *= 2.0
        d2 -= gram
        del gram  # free it before the next block allocates its d2
        d2[np.arange(j - i), np.arange(i, j)] = np.inf
        d2[~(d2 > 0.0)] = np.inf  # in place; also drops NaN from overflow
        smallest = min(smallest, float(d2.min()))
    if smallest == math.inf:
        return 1e-12 * float(max(norms.max(), 1.0))
    return smallest
