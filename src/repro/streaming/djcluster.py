"""Incremental DJ-Cluster: density clusters maintained point by point.

The batch attack (:class:`~repro.attacks.djcluster.DjCluster`) projects a
user's stationary fixes to planar meters, finds the ``eps``-radius neighbour
relation through a clique grid and labels the connected components of the
core-core graph.  Here the same clusters are *maintained* as points arrive:

* stationarity resolves with one point of lookahead (a fix is stationary
  when either adjacent segment is slow; the left segment is known when the
  next fix arrives, the last fix resolves at ``finalize``), replaying the
  exact speed arithmetic of :meth:`Trajectory.speeds`;
* each stationary fix is projected against the user's first-fix anchor (the
  same anchor the batch engines use) and inserted into a coarse grid of cell
  side ``eps``; its neighbours are found with one 3x3 cell probe and the
  kernel's exact squared-distance test, so the incremental neighbour
  relation equals the batch clique-grid relation point for point;
* neighbourhood counts update incrementally, fixes promote to *core* when
  their count reaches ``min_points``, and a union-find over core fixes
  absorbs every core-core edge at promotion time (the later endpoint of an
  edge always sees the earlier one already marked core).

``update_many(chunk)`` returns exactly the concatenation of the per-point
``update()`` events over the chunk's rows.  Per user it resolves the
chunk's stationarity with one batched haversine (decided bitwise as the
scalar speed test), projects the stationary fixes, and takes their
neighbour lists from one batched 3x3 cell probe confirmed with the same
``dx*dx + dy*dy <= eps*eps`` expression.  Counts and promotions then follow
in closed form: a fix becomes core at the insert of its ``k``-th neighbour,
``k`` being what its count still lacks.  Only the union-find stays a
sequential fold, over promotions, and it skips redundant union attempts:
a promoted fix emits (distinct roots among itself and its core neighbours)
- 1 ``"merge"`` events, and every already-processed core of one certified
clique cell (:func:`~repro.geo.kernels.clique_cells`) shares a root, so one
representative per cell stands for all of them.

``finalize()`` ranks the clusters by smallest core fix, attaches border
fixes to the smallest-ranked adjacent cluster, and emits per-cluster POIs
with the batch centroid arithmetic — bitwise-identical to
``DjCluster.extract_dataset`` on the same data.

Resident state is every stationary fix: density clusters are defined over
the whole history.  ``update()`` only probes that state through the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..attacks.djcluster import DjClusterConfig
from ..attacks.poi_extraction import ExtractedPoi
from ..core.trajectory import MobilityDataset
from ..geo.distance import haversine, haversine_array, meters_per_degree
from ..geo.kernels import cell_probe_pairs, clique_cells
from .sources import ReplaySource, StreamChunk, StreamPoint

__all__ = ["ClusterEvent", "StreamingDjCluster", "replay_extract_djclusters"]

#: Promotion time of a fix that is not (yet) core.
_NEVER = np.iinfo(np.int64).max

#: Relative band around ``max_stationary_speed_mps`` inside which a chunk's
#: batched speeds are re-decided with the scalar :meth:`_segment_below`.
_SPEED_BAND = 1e-9


@dataclass(frozen=True)
class ClusterEvent:
    """An observable change of one user's cluster structure.

    ``kind`` is ``"core"`` (the fix at ``index`` became a cluster core) or
    ``"merge"`` (two core components joined); ``index`` is the stationary-fix
    insertion index the event anchors to.
    """

    user_id: str
    kind: str
    index: int


class _UserClusters:
    """Incremental cluster state of one user."""

    __slots__ = (
        "anchor", "prev", "prev_below", "xs", "ys", "lats", "lons", "ts",
        "grid", "counts", "core", "parent",
    )

    def __init__(self) -> None:
        # (lat0, lon0, lat_m, lon_m) — set by the user's first fix.
        self.anchor: Optional[Tuple[float, float, float, float]] = None
        # The latest fix (ts, lat, lon), stationarity not yet resolved.
        self.prev: Optional[Tuple[float, float, float]] = None
        self.prev_below = False  # was the segment *into* ``prev`` slow?
        self.xs: List[float] = []
        self.ys: List[float] = []
        self.lats: List[float] = []
        self.lons: List[float] = []
        self.ts: List[float] = []
        self.grid: Dict[Tuple[int, int], List[int]] = {}
        self.counts: List[int] = []
        self.core: List[bool] = []
        self.parent: List[int] = []

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


class StreamingDjCluster:
    """Online DJ-Cluster with ``update(point) -> events`` and batch-pinned labels."""

    def __init__(
        self,
        config: Optional[DjClusterConfig] = None,
        user_ids: Sequence[str] = (),
    ) -> None:
        self.config = config or DjClusterConfig()
        self._users: Dict[str, _UserClusters] = {}
        for user_id in user_ids:
            self.register_user(user_id)

    def register_user(self, user_id: str) -> None:
        if user_id not in self._users:
            self._users[user_id] = _UserClusters()

    @property
    def stationary_points(self) -> int:
        """Stationary fixes currently indexed across users (resident state)."""
        return sum(len(st.xs) for st in self._users.values())

    # -- online updates ---------------------------------------------------------

    def update(self, point: StreamPoint) -> List[ClusterEvent]:
        """Feed one fix; resolve the previous fix's stationarity."""
        self.register_user(point.user_id)
        st = self._users[point.user_id]
        if st.anchor is None:
            lat_m, lon_m = meters_per_degree(point.lat)
            st.anchor = (point.lat, point.lon, lat_m, lon_m)
        events: List[ClusterEvent] = []
        if st.prev is not None:
            prev_ts, prev_lat, prev_lon = st.prev
            below = self._segment_below(
                prev_ts, prev_lat, prev_lon, point.timestamp, point.lat, point.lon
            )
            if st.prev_below or below:
                events = self._insert(point.user_id, st, prev_ts, prev_lat, prev_lon)
            st.prev_below = below
        st.prev = (point.timestamp, point.lat, point.lon)
        return events

    def update_many(self, chunk: StreamChunk) -> List[ClusterEvent]:
        """Feed a chunk; the concatenated events of per-point ``update()``."""
        if len(chunk) == 0:
            return []
        for user_id in chunk.users_in_order():
            self.register_user(user_id)
        # (arrival row, events) per insert; each row belongs to one user.
        tagged: List[Tuple[int, List[ClusterEvent]]] = []
        for user_id, rows in chunk.rows_by_user():
            tagged.extend(self._update_user(user_id, chunk, rows))
        tagged.sort(key=lambda item: item[0])
        return [event for _, events in tagged for event in events]

    def finalize(self) -> Dict[str, List[ExtractedPoi]]:
        """Per-user cluster POIs, bitwise-identical to the batch attack."""
        out: Dict[str, List[ExtractedPoi]] = {}
        for user_id, st in self._users.items():
            if st.prev is not None and st.prev_below:
                prev_ts, prev_lat, prev_lon = st.prev
                self._insert(user_id, st, prev_ts, prev_lat, prev_lon)
                st.prev_below = False  # resolved; finalize stays idempotent
            out[user_id] = self._label_user(user_id, st)
        return out

    # -- stationarity (one point of lookahead) ----------------------------------

    def _segment_below(
        self, t0: float, lat0: float, lon0: float, t1: float, lat1: float, lon1: float
    ) -> bool:
        """Is the segment slow?  Exact :meth:`Trajectory.speeds` arithmetic."""
        dist = haversine(lat0, lon0, lat1, lon1)
        dur = t1 - t0
        if dur > 0.0:
            speed = dist / dur
        elif dist == 0.0:
            speed = 0.0
        else:
            speed = math.inf
        return speed <= self.config.max_stationary_speed_mps

    def _segments_below(self, ts: np.ndarray, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """:meth:`_segment_below` of every consecutive pair, batched.

        Speeds inside a relative band of the threshold, and zero-duration
        segments, are re-decided by the scalar method itself.
        """
        vmax = self.config.max_stationary_speed_mps
        dur = ts[1:] - ts[:-1]
        dist = haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = dist / dur
        below = speed <= vmax
        recheck = (dur <= 0.0) | (np.abs(speed - vmax) <= _SPEED_BAND * vmax)
        for k in np.flatnonzero(recheck).tolist():
            below[k] = self._segment_below(
                float(ts[k]), float(lats[k]), float(lons[k]),
                float(ts[k + 1]), float(lats[k + 1]), float(lons[k + 1]),
            )
        return below

    def _update_user(
        self, user_id: str, chunk: StreamChunk, rows: np.ndarray
    ) -> List[Tuple[int, List[ClusterEvent]]]:
        """One user's rows of a chunk: stationarity, then the inserts."""
        st = self._users[user_id]
        ts, lats, lons = chunk.timestamps[rows], chunk.lats[rows], chunk.lons[rows]
        if st.anchor is None:
            lat_m, lon_m = meters_per_degree(float(lats[0]))
            st.anchor = (float(lats[0]), float(lons[0]), lat_m, lon_m)
        arrival = rows
        if st.prev is not None:
            ts = np.concatenate([[st.prev[0]], ts])
            lats = np.concatenate([[st.prev[1]], lats])
            lons = np.concatenate([[st.prev[2]], lons])
            arrival = np.concatenate([[-1], rows])
        st.prev = (float(ts[-1]), float(lats[-1]), float(lons[-1]))
        if ts.size < 2:
            return []
        # A fix is stationary when the segment into it or out of it is slow;
        # it is inserted when the fix after it arrives.
        below = self._segments_below(ts, lats, lons)
        into = np.concatenate([[st.prev_below], below[:-1]])
        st.prev_below = bool(below[-1])
        fixes = np.flatnonzero(into | below)
        if not fixes.size:
            return []
        return self._insert_many(
            user_id, st, ts[fixes], lats[fixes], lons[fixes], arrival[fixes + 1]
        )

    def _insert_many(
        self,
        user_id: str,
        st: _UserClusters,
        ts: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
        arrivals: np.ndarray,
    ) -> List[Tuple[int, List[ClusterEvent]]]:
        """Index a run of stationary fixes; per insert, :meth:`_insert`'s events.

        Works on a local view: the run's new fixes plus every earlier fix of
        the 3x3 cells around them (all the neighbours a new fix can have).
        """
        assert st.anchor is not None
        cfg = self.config
        eps, min_points = cfg.eps_m, cfg.min_points
        lat0, lon0, lat_m, lon_m = st.anchor
        new_x = (lons - lon0) * lon_m
        new_y = (lats - lat0) * lat_m
        new_cx = np.floor(new_x / eps).astype(np.int64)
        new_cy = np.floor(new_y / eps).astype(np.int64)
        n_old, n_new = len(st.xs), int(new_x.size)

        cells = set(zip(new_cx.tolist(), new_cy.tolist()))
        probed = {(x + dx, y + dy) for x, y in cells for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
        old = np.array(
            [i for cell in probed for i in st.grid.get(cell, ())], dtype=np.int64
        )
        n_loc = old.size + n_new
        g = np.concatenate([old, n_old + np.arange(n_new, dtype=np.int64)])
        x = np.concatenate([[st.xs[i] for i in old.tolist()], new_x])
        y = np.concatenate([[st.ys[i] for i in old.tolist()], new_y])
        cx = np.floor(x / eps).astype(np.int64)
        cy = np.floor(y / eps).astype(np.int64)

        # Neighbour pairs (b, a): new fix b with an earlier fix a, local ids.
        q, a = cell_probe_pairs(new_cx, new_cy, cx, cy)
        b = old.size + q
        keep = a < b
        b, a = b[keep], a[keep]
        dx = x[b] - x[a]
        dy = y[b] - y[a]
        keep = dx * dx + dy * dy <= eps * eps
        b, a = b[keep], a[keep]

        # Counts: a new fix starts at 1 + its earlier neighbours; every
        # later neighbour's insert adds one.
        start = np.concatenate(
            [
                np.array([st.counts[i] for i in old.tolist()], dtype=np.int64),
                1 + np.bincount(b - old.size, minlength=n_new),
            ]
        )
        final = start + np.bincount(a, minlength=n_loc)
        # Promotion time (global insert index): -1 = core before this run.
        when = np.full(n_loc, _NEVER, dtype=np.int64)
        when[: old.size][np.array([st.core[i] for i in old.tolist()], dtype=bool)] = -1
        fresh = np.arange(old.size, n_loc)
        self_core = fresh[start[old.size :] >= min_points]
        when[self_core] = g[self_core]
        # The rest promote at the insert of the neighbour that completes
        # their count: rank the later neighbours of each such fix.
        waiting = when[a] == _NEVER
        order = np.lexsort((b[waiting], a[waiting]))
        a_s, b_s = a[waiting][order], b[waiting][order]
        rank = np.arange(a_s.size) - np.searchsorted(a_s, a_s, side="left")
        hit = rank == min_points - start[a_s] - 1
        when[a_s[hit]] = g[b_s[hit]]

        st.xs.extend(new_x.tolist())
        st.ys.extend(new_y.tolist())
        st.lats.extend(lats.tolist())
        st.lons.extend(lons.tolist())
        st.ts.extend(ts.tolist())
        st.parent.extend(range(n_old, n_old + n_new))
        st.core.extend([False] * n_new)
        st.counts.extend(final[old.size :].tolist())
        for i, count in zip(old.tolist(), final[: old.size].tolist()):
            st.counts[i] = count

        promoted = np.flatnonzero((when >= n_old) & (when != _NEVER))
        tagged: List[Tuple[int, List[ClusterEvent]]] = []
        if promoted.size:
            reps = self._representatives(st, g, x, y, when, a, b, promoted, n_old)
            # Per insert: the inserted fix first, then its neighbours in the
            # 3x3 probe order (cell x, cell y, index).
            seq = promoted[
                np.lexsort(
                    (g[promoted], cy[promoted], cx[promoted],
                     g[promoted] != when[promoted], when[promoted])
                )
            ]
            find, parent, core = st.find, st.parent, st.core
            seq_when = when[seq].tolist()
            seq_g = g[seq].tolist()
            lo = 0
            while lo < len(seq_g):
                hi = lo
                while hi < len(seq_g) and seq_when[hi] == seq_when[lo]:
                    hi += 1
                group = seq_g[lo:hi]
                events = [ClusterEvent(user_id=user_id, kind="core", index=p) for p in group]
                for p in group:
                    core[p] = True
                for p in group:
                    roots = {find(p)}
                    roots.update(find(r) for r in reps.get(p, ()))
                    if len(roots) > 1:
                        root = min(roots)
                        for r in roots:
                            parent[r] = root
                        merge = ClusterEvent(user_id=user_id, kind="merge", index=p)
                        events.extend([merge] * (len(roots) - 1))
                tagged.append((int(arrivals[seq_when[lo] - n_old]), events))
                lo = hi

        for cell, idx in zip(zip(new_cx.tolist(), new_cy.tolist()), range(n_old, n_old + n_new)):
            st.grid.setdefault(cell, []).append(idx)
        return tagged

    def _representatives(
        self,
        st: _UserClusters,
        g: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        when: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        promoted: np.ndarray,
        n_old: int,
    ) -> Dict[int, List[int]]:
        """Per promoted fix, one core neighbour per component it may join.

        The core neighbours of ``p`` at its promotion are the neighbours
        promoted no later than ``p``.  Those promoted at an earlier insert
        are already unioned with every core of their certified clique cell,
        so one per cell represents them; those promoted by the same insert
        are kept one by one.  Fixes indexed before this run only know their
        new neighbours here, so their older ones come from the grid probe.
        """
        eps = self.config.eps_m
        fx, fy = clique_cells(x, y, eps)
        p_loc = np.concatenate([b, a])
        q_loc = np.concatenate([a, b])
        keep = (when[p_loc] >= n_old) & (when[p_loc] != _NEVER) & (when[q_loc] <= when[p_loc])
        p_loc, q_loc = p_loc[keep], q_loc[keep]
        # One packed key per (p, cell) — or per (p, q) for same-insert q —
        # so one unique pass keeps a single representative of each.
        fx = fx - int(fx.min())
        fy = fy - int(fy.min())
        n_cells = (int(fx.max()) + 1) * (int(fy.max()) + 1)
        group = np.where(
            when[q_loc] == when[p_loc],
            n_cells + q_loc,
            fx[q_loc] * (int(fy.max()) + 1) + fy[q_loc],
        )
        _, first = np.unique(p_loc * (n_cells + g.size) + group, return_index=True)
        reps: Dict[int, List[int]] = {}
        for p, r in zip(g[p_loc[first]].tolist(), g[q_loc[first]].tolist()):
            reps.setdefault(p, []).append(r)

        older_promoted = promoted[g[promoted] < n_old].tolist()
        local = {int(i): k for k, i in enumerate(g.tolist())} if older_promoted else {}
        for k in older_promoted:
            p, t = int(g[k]), int(when[k])
            older = self._neighbors(st, st.xs[p], st.ys[p], skip=p)
            cells: Set[Tuple[int, int]] = set()
            extra = reps.setdefault(p, [])
            ox, oy = clique_cells(
                np.array([st.xs[i] for i in older]), np.array([st.ys[i] for i in older]), eps
            )
            for i, cell in zip(older, zip(ox.tolist(), oy.tolist())):
                j = local.get(i)
                t_i = int(when[j]) if j is not None else (-1 if st.core[i] else _NEVER)
                if t_i == t:
                    extra.append(i)
                elif t_i < t and cell not in cells:
                    cells.add(cell)
                    extra.append(i)
        return reps

    # -- incremental neighbourhood maintenance ----------------------------------

    def _neighbors(self, st: _UserClusters, x: float, y: float, skip: int) -> List[int]:
        """In-radius fixes via a 3x3 probe of the eps-sized grid.

        The exact confirmation ``dx*dx + dy*dy <= eps*eps`` reproduces the
        batch clique kernel's pair test on the same projected floats, so the
        maintained relation is the batch relation.
        """
        eps = self.config.eps_m
        r2 = eps * eps
        cx, cy = math.floor(x / eps), math.floor(y / eps)
        xs, ys = st.xs, st.ys
        found: List[int] = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for i in st.grid.get((gx, gy), ()):
                    if i == skip:
                        continue
                    dx = x - xs[i]
                    dy = y - ys[i]
                    if dx * dx + dy * dy <= r2:
                        found.append(i)
        return found

    def _insert(
        self, user_id: str, st: _UserClusters, ts: float, lat: float, lon: float
    ) -> List[ClusterEvent]:
        """Index one resolved stationary fix and maintain counts/cores."""
        assert st.anchor is not None
        lat0, lon0, lat_m, lon_m = st.anchor
        x = (lon - lon0) * lon_m
        y = (lat - lat0) * lat_m
        idx = len(st.xs)
        st.xs.append(x)
        st.ys.append(y)
        st.lats.append(lat)
        st.lons.append(lon)
        st.ts.append(ts)
        st.parent.append(idx)
        st.core.append(False)
        eps = self.config.eps_m
        cell = (math.floor(x / eps), math.floor(y / eps))
        neighbors = self._neighbors(st, x, y, skip=idx)
        st.grid.setdefault(cell, []).append(idx)
        st.counts.append(1 + len(neighbors))

        promoted: List[int] = []
        if st.counts[idx] >= self.config.min_points:
            promoted.append(idx)
        for nb in neighbors:
            st.counts[nb] += 1
            if st.counts[nb] >= self.config.min_points and not st.core[nb]:
                promoted.append(nb)
        if not promoted:
            return []
        # Mark first, then union: when both endpoints of a core-core edge
        # promote in the same update, the rescan still sees both flags set.
        for p in promoted:
            st.core[p] = True
        events = [ClusterEvent(user_id=user_id, kind="core", index=p) for p in promoted]
        for p in promoted:
            for nb in self._neighbors(st, st.xs[p], st.ys[p], skip=p):
                if st.core[nb] and st.union(p, nb):
                    events.append(ClusterEvent(user_id=user_id, kind="merge", index=p))
        return events

    # -- finalization: batch-identical labels and POIs --------------------------

    def _label_user(self, user_id: str, st: _UserClusters) -> List[ExtractedPoi]:
        m = len(st.xs)
        if m == 0 or not any(st.core):
            return []
        # Rank components by smallest core fix: scanning cores in insertion
        # order, the first core of each root defines the component's rank.
        rank_of_root: Dict[int, int] = {}
        for i in range(m):
            if st.core[i]:
                root = st.find(i)
                if root not in rank_of_root:
                    rank_of_root[root] = len(rank_of_root)
        labels = [-1] * m
        for i in range(m):
            if st.core[i]:
                labels[i] = rank_of_root[st.find(i)]
            else:
                best = -1
                for nb in self._neighbors(st, st.xs[i], st.ys[i], skip=i):
                    if st.core[nb]:
                        r = rank_of_root[st.find(nb)]
                        if best < 0 or r < best:
                            best = r
                labels[i] = best
        members: List[List[int]] = [[] for _ in range(len(rank_of_root))]
        for i, label in enumerate(labels):
            if label >= 0:
                members[label].append(i)
        pois: List[ExtractedPoi] = []
        for group in members:
            lats = np.asarray([st.lats[i] for i in group])
            lons = np.asarray([st.lons[i] for i in group])
            ts = np.asarray([st.ts[i] for i in group])
            pois.append(
                ExtractedPoi(
                    user_id=user_id,
                    lat=float(np.mean(lats)),
                    lon=float(np.mean(lons)),
                    t_start=float(ts.min()),
                    t_end=float(ts.max()),
                    n_points=int(len(group)),
                )
            )
        return pois


def replay_extract_djclusters(
    dataset: MobilityDataset, config: Optional[DjClusterConfig] = None
) -> Dict[str, List[ExtractedPoi]]:
    """Replay ``dataset`` through the incremental DJ-Cluster (batch-identical)."""
    source = ReplaySource(dataset)
    clusterer = StreamingDjCluster(config, user_ids=source.user_ids)
    for chunk in source.chunks():
        clusterer.update_many(chunk)
    return clusterer.finalize()
