"""Incremental DJ-Cluster: density clusters maintained point by point.

The batch attack (:class:`~repro.attacks.djcluster.DjCluster`) projects a
user's stationary fixes to planar meters and labels them with one grid
DBSCAN (:func:`~repro.geo.kernels.grid_dbscan`).  Here the same clusters are
*maintained* as points arrive:

* stationarity resolves with one point of lookahead (a fix is stationary
  when either adjacent segment is slow; the left segment is known when the
  next fix arrives, the last fix resolves at ``finalize``), replaying the
  exact speed arithmetic of :meth:`Trajectory.speeds`;
* each stationary fix is projected against the user's first-fix anchor (the
  same anchor the batch engines use); neighbourhood counts update
  incrementally, fixes promote to *core* when their count reaches
  ``min_points``, and a union-find over core fixes absorbs every core-core
  edge at promotion time (the later endpoint of an edge always sees the
  earlier one already marked core).

``update()`` is the per-point oracle: it finds a fix's neighbours with one
3x3 probe of an ``eps``-sized grid and the exact ``dx*dx + dy*dy <= eps*eps``
test, so the maintained relation is the batch relation point for point.

``update_many(chunk)`` returns exactly the concatenation of the per-point
``update()`` events over the chunk's rows, with the batch kernel's dense-cell
rule carried into the stream (incremental grid DBSCAN: Gunawan 2013; Ester
et al., VLDB 1998).  Fixes live on the certified clique grid
(:func:`~repro.geo.kernels.clique_cells`, side ``(eps - margin)/sqrt(2)``),
where co-members are neighbours, so a cell holding ``min_points`` fixes is
*dense*: all its fixes are core and share one root, and a fix landing in it
is core at its own insert.  Per chunk, for every user at once:

* stationarity is one batched haversine, decided bitwise as the scalar test;
* real point pairs are built, and confirmed with the exact test, only where
  a count still matters: for a new fix whose cell is still sparse at its
  insert (against every fix of the 5x5 cells around it), and for a new fix
  of a dense cell against the fixes of a neighbouring cell that is still
  sparse at that insert (at most ``min_points - 1`` of them);
* a new fix of a dense cell reaches a neighbouring dense cell through one
  witness test (that cell's fix nearest the mean of the chunk's fixes
  testing it), with an exhaustive check when the witness misses — and not
  at all when the two cells were already in one component before the
  chunk; a fix indexed before the chunk that promotes in it re-probes its
  older neighbours the same way;
* promotions follow in closed form (a fix becomes core at the insert of the
  neighbour that completes its count, or when its cell turns dense), and
  only promotions that may join two components go through the sequential
  union-find fold; a promotion whose earlier core neighbours provably form
  one component emits its one ``"merge"`` directly.

Resident state is every stationary fix, as growable numpy columns shared by
all users: density clusters are defined over the whole history.  ``update()``
probes that state through the grid; ``update_many`` selects the fixes of the
cells around the chunk's own with one vectorized pass over the resident cell
column per chunk, and points every fix at its root once per chunk.  Counts
are kept exact for fixes that are not core; a core fix's count is no longer
needed.

``finalize()`` labels the resident fixes with the batch kernel itself
(:func:`~repro.geo.kernels.grid_dbscan`, one call keyed by user) and emits
per-cluster POIs with the batch centroid arithmetic — bitwise-identical to
``DjCluster.extract_dataset`` on the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..attacks.djcluster import DjCluster, DjClusterConfig
from ..attacks.poi_extraction import ExtractedPoi
from ..core.trajectory import MobilityDataset
from ..geo.distance import haversine, haversine_array, meters_per_degree
from ..geo.kernels import cell_probe_pairs, clique_cells, concat_ranges, grid_dbscan
from .sources import ReplaySource, StreamChunk, StreamPoint

__all__ = ["ClusterEvent", "StreamingDjCluster", "replay_extract_djclusters"]

#: Promotion time of a fix that is not (yet) core.
_NEVER = np.iinfo(np.int64).max

#: A chunk's promotions: resident ids in fold order, the insert that promoted
#: each, and each one's number of merge events.
_Promotions = Tuple[np.ndarray, np.ndarray, np.ndarray]
_NO_PROMOTIONS: _Promotions = (np.zeros(0, np.int64),) * 3

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


class _Columns:
    """Parallel numpy columns that grow by doubling."""

    def __init__(self, **dtypes: type) -> None:
        self.size = 0
        self._names = tuple(dtypes)
        for name, dtype in dtypes.items():
            setattr(self, name, np.zeros(64, dtype=dtype))

    def grow(self, extra: int) -> slice:
        """Room for ``extra`` more rows; returns their slice (size not bumped)."""
        need = self.size + extra
        cap = getattr(self, self._names[0]).size
        if need > cap:
            cap = max(need, 2 * cap)
            for name in self._names:
                old = getattr(self, name)
                new = np.zeros(cap, dtype=old.dtype)
                new[: self.size] = old[: self.size]
                setattr(self, name, new)
        return slice(self.size, need)


class _UserClusters:
    """Per-user stream state; the fixes themselves live in the shared columns."""

    __slots__ = ("user_id", "code", "anchor", "prev", "prev_below", "n", "grid", "gridded")

    def __init__(self, user_id: str, code: int) -> None:
        self.user_id = user_id
        self.code = code
        # (lat0, lon0, lat_m, lon_m) — set by the user's first fix.
        self.anchor: Optional[Tuple[float, float, float, float]] = None
        # The latest fix (ts, lat, lon), stationarity not yet resolved.
        self.prev: Optional[Tuple[float, float, float]] = None
        self.prev_below = False  # was the segment *into* ``prev`` slow?
        self.n = 0  # stationary fixes indexed so far
        # The eps-grid of update(): cell -> resident ids, caught up lazily.
        self.grid: Dict[Tuple[int, int], List[int]] = {}
        self.gridded = 0


class StreamingDjCluster:
    """Online DJ-Cluster with ``update(point) -> events`` and batch-pinned labels."""

    def __init__(
        self,
        config: Optional[DjClusterConfig] = None,
        user_ids: Sequence[str] = (),
    ) -> None:
        self.config = config or DjClusterConfig()
        self._users: Dict[str, _UserClusters] = {}
        self._by_code: List[_UserClusters] = []
        # Every stationary fix, all users, in insertion order (the resident
        # id); ``local`` is the fix's per-user insertion index.
        self._fixes = _Columns(
            x=float, y=float, lat=float, lon=float, ts=float,
            user=np.int64, local=np.int64, count=np.int64, parent=np.int64,
            cell=np.int64, core=bool,
        )
        # Clique cells keyed by (user, col, row); ``first`` is the first fix.
        self._cells = _Columns(user=np.int64, fx=np.int64, fy=np.int64, count=np.int64,
                               first=np.int64)
        self._cell_ids: Dict[Tuple[int, int, int], int] = {}
        self._celled = 0  # resident fixes already counted into their cells
        for user_id in user_ids:
            self.register_user(user_id)

    def register_user(self, user_id: str) -> None:
        if user_id not in self._users:
            self._users[user_id] = _UserClusters(user_id, len(self._by_code))
            self._by_code.append(self._users[user_id])

    @property
    def stationary_points(self) -> int:
        """Stationary fixes currently indexed across users (resident state)."""
        return self._fixes.size

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
        return self._events(*self._advance(chunk))

    def _advance(self, chunk: StreamChunk) -> _Promotions:
        """Feed a chunk; its promotions, from which :meth:`_events` builds events."""
        if len(chunk) == 0:
            return _NO_PROMOTIONS
        for user_id in chunk.users_in_order():
            self.register_user(user_id)
        codes, ts, lats, lons = self._resolve_chunk(chunk)
        if not codes.size:
            return _NO_PROMOTIONS
        return self._insert_many(codes, ts, lats, lons)

    def finalize(self) -> Dict[str, List[ExtractedPoi]]:
        """Per-user cluster POIs, bitwise-identical to the batch attack."""
        held = [st for st in self._users.values() if st.prev is not None and st.prev_below]
        if held:
            ts, lats, lons = np.array([st.prev for st in held], dtype=float).T
            self._insert_many(np.array([st.code for st in held], dtype=np.int64), ts, lats, lons)
            for st in held:
                st.prev_below = False  # resolved; finalize stays idempotent
        fx = self._fixes
        n = fx.size
        labels = grid_dbscan(
            fx.x[:n], fx.y[:n], self.config.eps_m, self.config.min_points,
            segments=fx.user[:n],
        )
        # Per user, its fixes in insertion order (resident ids ascend in it).
        order = np.argsort(fx.user[:n], kind="stable")
        bounds = np.searchsorted(fx.user[:n][order], np.arange(len(self._by_code) + 1))
        out: Dict[str, List[ExtractedPoi]] = {}
        for user_id, st in self._users.items():
            rows = order[bounds[st.code] : bounds[st.code + 1]]
            out[user_id] = DjCluster._user_pois(
                user_id, labels[rows], fx.ts[rows], fx.lat[rows], fx.lon[rows],
                np.arange(rows.size),
            )
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

    def _segments_below(
        self, ts: np.ndarray, lats: np.ndarray, lons: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """:meth:`_segment_below` of the ``valid`` consecutive pairs, batched.

        Speeds inside a relative band of the threshold, and zero-duration
        segments, are re-decided by the scalar method itself.
        """
        vmax = self.config.max_stationary_speed_mps
        dur = ts[1:] - ts[:-1]
        dist = haversine_array(lats[:-1], lons[:-1], lats[1:], lons[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = dist / dur
        below = (speed <= vmax) & valid
        recheck = valid & ((dur <= 0.0) | (np.abs(speed - vmax) <= _SPEED_BAND * vmax))
        for k in np.flatnonzero(recheck).tolist():
            below[k] = self._segment_below(
                float(ts[k]), float(lats[k]), float(lons[k]),
                float(ts[k + 1]), float(lats[k + 1]), float(lons[k + 1]),
            )
        return below

    def _resolve_chunk(
        self, chunk: StreamChunk
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The stationary fixes a chunk resolves, every user at once.

        Returns ``(user codes, ts, lats, lons)`` in the order per-point
        ``update()`` would insert them (the arrival of the fix after each).
        """
        order = np.argsort(chunk.user_index, kind="stable")
        roster = chunk.user_index[order]
        first = np.flatnonzero(np.concatenate([[True], roster[1:] != roster[:-1]]))
        states = [self._users[chunk.user_ids[k]] for k in roster[first].tolist()]
        ts, lats, lons = chunk.timestamps[order], chunk.lats[order], chunk.lons[order]
        for st, row in zip(states, first.tolist()):
            if st.anchor is None:
                lat_m, lon_m = meters_per_degree(float(lats[row]))
                st.anchor = (float(lats[row]), float(lons[row]), lat_m, lon_m)
        # Each user's run, preceded by its held (unresolved) fix if any.
        held = [k for k, st in enumerate(states) if st.prev is not None]
        prev = np.array([states[k].prev for k in held], dtype=float).reshape(-1, 3)
        at = first[held]
        ts = np.insert(ts, at, prev[:, 0])
        lats = np.insert(lats, at, prev[:, 1])
        lons = np.insert(lons, at, prev[:, 2])
        rows = np.insert(order, at, -1)
        opens = np.zeros(order.size, dtype=np.int64)
        opens[first] = 1
        run = np.insert(np.cumsum(opens) - 1, at, held)
        same = run[1:] == run[:-1]
        below = self._segments_below(ts, lats, lons, same)
        is_first = np.concatenate([[True], ~same])
        is_last = np.concatenate([~same, [True]])
        # A fix is stationary when the segment into it or out of it is slow;
        # it is inserted when the fix after it arrives.
        into = np.concatenate([[False], below])
        into[is_first] = [states[k].prev_below for k in run[is_first].tolist()]
        fixes = np.flatnonzero(~is_last & (into | np.concatenate([below, [False]])))
        for st, last, length in zip(
            states,
            np.flatnonzero(is_last).tolist(),
            np.diff(np.concatenate([np.flatnonzero(is_first), [run.size]])).tolist(),
        ):
            st.prev = (float(ts[last]), float(lats[last]), float(lons[last]))
            if length > 1:
                st.prev_below = bool(below[last - 1])
        fixes = fixes[np.argsort(rows[fixes + 1], kind="stable")]
        codes = np.array([st.code for st in states], dtype=np.int64)[run[fixes]]
        return codes, ts[fixes], lats[fixes], lons[fixes]

    # -- the chunked insert -----------------------------------------------------

    def _append(
        self, codes: np.ndarray, ts: np.ndarray, lats: np.ndarray, lons: np.ndarray
    ) -> np.ndarray:
        """Index fixes (projected, not yet counted); returns their resident ids."""
        present, slot, added = np.unique(codes, return_inverse=True, return_counts=True)
        slot = slot.reshape(-1)
        states = [self._by_code[code] for code in present.tolist()]
        anchors = np.array([st.anchor for st in states], dtype=float).reshape(-1, 4)
        lat0, lon0, lat_m, lon_m = (anchors[slot, k] for k in range(4))
        fx = self._fixes
        span = fx.grow(codes.size)
        ids = np.arange(span.start, span.stop, dtype=np.int64)
        # Per-user insertion index: the user's count so far + rank in the run.
        by_user = np.argsort(slot, kind="stable")
        local = np.empty(codes.size, dtype=np.int64)
        local[by_user] = np.arange(codes.size) - (np.cumsum(added) - added)[slot[by_user]]
        local += np.array([st.n for st in states], dtype=np.int64)[slot]
        for st, count in zip(states, added.tolist()):
            st.n += count
        fx.x[span] = (lons - lon0) * lon_m
        fx.y[span] = (lats - lat0) * lat_m
        fx.lat[span], fx.lon[span], fx.ts[span] = lats, lons, ts
        fx.user[span], fx.local[span] = codes, local
        fx.count[span] = 0
        fx.parent[span] = ids
        fx.core[span] = False
        fx.size = span.stop
        return ids

    def _count_into_cells(self, stop: int) -> None:
        """Assign clique cells to resident fixes up to ``stop`` and count them."""
        lo = self._celled
        if stop <= lo:
            return
        fx, cells = self._fixes, self._cells
        cx, cy = clique_cells(fx.x[lo:stop], fx.y[lo:stop], self.config.eps_m)
        keys, first, inverse = np.unique(
            np.stack([fx.user[lo:stop], cx, cy], axis=1), axis=0,
            return_index=True, return_inverse=True,
        )
        table = self._cell_ids
        ids = np.array([table.get(key, -1) for key in map(tuple, keys.tolist())], dtype=np.int64)
        fresh = np.flatnonzero(ids < 0)
        if fresh.size:
            span = cells.grow(fresh.size)
            ids[fresh] = np.arange(span.start, span.stop)
            table.update(zip(map(tuple, keys[fresh].tolist()), ids[fresh].tolist()))
            cells.user[span], cells.fx[span], cells.fy[span] = keys[fresh].T
            cells.count[span] = 0
            cells.first[span] = lo + first[fresh]
            cells.size = span.stop
        cell = ids[inverse.reshape(-1)]
        fx.cell[lo:stop] = cell
        cells.count[: cells.size] += np.bincount(cell, minlength=cells.size)
        self._celled = stop

    def _insert_many(
        self, codes: np.ndarray, ts: np.ndarray, lats: np.ndarray, lons: np.ndarray
    ) -> _Promotions:
        """Index a chunk's stationary fixes; the promotions per-point inserts make."""
        eps = self.config.eps_m
        mp = self.config.min_points
        r2 = eps * eps
        fx, cells = self._fixes, self._cells
        n_old = fx.size
        new = self._append(codes, ts, lats, lons)
        self._count_into_cells(fx.size)  # with the fixes update() indexed meanwhile
        n_cells = cells.size
        m = new.size

        # Cell timeline: a new fix's cell count at its insert, and the insert
        # at which each cell turns dense (-1: before the chunk).
        cell_new = fx.cell[new]
        old_count = cells.count[:n_cells] - np.bincount(cell_new, minlength=n_cells)
        by_cell = np.argsort(cell_new, kind="stable")
        rank = np.empty(m, dtype=np.int64)
        rank[by_cell] = np.arange(m) - np.searchsorted(cell_new[by_cell], cell_new[by_cell])
        count_at = old_count[cell_new] + rank + 1
        dense_ins = count_at >= mp
        old_dense = old_count >= mp
        dense_at = np.full(n_cells, _NEVER, dtype=np.int64)
        dense_at[old_dense] = -1
        dense_at[cell_new[count_at == mp]] = new[count_at == mp]

        # Cell pairs (query cell of new fixes, neighbouring cell), itself included.
        touched = np.unique(cell_new)
        q_cell, n_cell = self._neighbour_cells(touched)
        s_count = np.bincount(cell_new[~dense_ins], minlength=n_cells)
        d_count = np.bincount(cell_new[dense_ins], minlength=n_cells)
        # New fixes sorted by (cell, dense at insert, id): per touched cell a
        # sparse block, then a dense block.
        q_order = np.lexsort((new, dense_ins, cell_new))
        block = np.zeros(n_cells, dtype=np.int64)
        block[touched] = np.searchsorted(cell_new[q_order], touched)
        first_core = fx.parent[cells.first[:n_cells]]  # old-dense cells only
        linked = old_dense[q_cell] & old_dense[n_cell] & (
            first_core[q_cell] == first_core[n_cell]
        )
        other = q_cell != n_cell
        tested = (d_count[q_cell] > 0) & other & (dense_at[n_cell] != _NEVER) & ~linked
        need = np.zeros(n_cells, dtype=bool)
        need[n_cell[(s_count[q_cell] > 0) | ~old_dense[n_cell] | tested]] = True

        # Local view: the gathered old fixes, then the new ones (ids ascend).
        old = np.flatnonzero(need[fx.cell[:n_old]])
        ids = np.concatenate([old, new])
        n_loc, first_new = ids.size, old.size
        cell = fx.cell[ids]
        x, y = fx.x[ids], fx.y[ids]
        members = np.argsort(cell, kind="stable")
        m_count = np.bincount(cell, minlength=n_cells)
        m_start = np.cumsum(m_count) - m_count
        q_local = first_new + q_order

        # Pairs (b new, a earlier) whose counts still matter.
        sparse_q = s_count[q_cell] > 0
        pb, pa = _range_product(
            block[q_cell[sparse_q]], s_count[q_cell[sparse_q]],
            m_start[n_cell[sparse_q]], m_count[n_cell[sparse_q]],
        )
        into_sparse = (d_count[q_cell] > 0) & other & ~old_dense[n_cell]
        qb = q_cell[into_sparse]
        db, da = _range_product(
            block[qb] + s_count[qb], d_count[qb],
            m_start[n_cell[into_sparse]],
            np.minimum(m_count[n_cell[into_sparse]], mp - 1),
        )
        b = q_local[np.concatenate([pb, db])]
        a = members[np.concatenate([pa, da])]
        keep = ids[a] < ids[b]
        keep[pb.size :] &= ids[b[pb.size :]] < dense_at[cell[a[pb.size :]]]
        b, a = b[keep], a[keep]
        dx = x[b] - x[a]
        dy = y[b] - y[a]
        keep = dx * dx + dy * dy <= r2
        b, a = b[keep], a[keep]

        # New fixes of dense cells against the neighbouring cells dense at
        # their insert.
        d_cell, target = q_cell[tested], n_cell[tested]
        fix = q_local[concat_ranges(block[d_cell] + s_count[d_cell], d_count[d_cell])]
        target = np.repeat(target, d_count[d_cell])
        dense_before = dense_at[target] < ids[fix]
        fix, target = fix[dense_before], target[dense_before]
        reached = _reaches(
            ids[fix], x[fix], y[fix], cell[fix], target,
            ids[members], x[members], y[members], m_start, m_count, r2,
        )
        hit_b, hit_cell = fix[reached], target[reached]

        # Counts and promotion times (resident ids; -1 = core before the chunk).
        when = np.full(n_loc, _NEVER, dtype=np.int64)
        when[:first_new][fx.core[old]] = -1
        start = np.empty(n_loc, dtype=np.int64)
        start[:first_new] = fx.count[old]
        start[first_new:] = 1 + np.bincount(b - first_new, minlength=m)
        self_core = dense_ins | (start[first_new:] >= mp)
        when[first_new:][self_core] = new[self_core]
        # The rest promote at the insert of the neighbour that completes
        # their count, or when their cell turns dense, whichever is first.
        waiting = when[a] == _NEVER
        order = np.lexsort((b[waiting], a[waiting]))
        a_s, b_s = a[waiting][order], b[waiting][order]
        nth = np.arange(a_s.size) - np.searchsorted(a_s, a_s, side="left")
        hit = nth == mp - start[a_s] - 1
        when[a_s[hit]] = ids[b_s[hit]]
        turned = dense_at[cell]
        later = (turned >= n_old) & (turned < when) & (ids < turned)
        when[later] = turned[later]
        fx.count[ids] = start + np.bincount(a, minlength=n_loc)
        promoted = np.flatnonzero((when >= n_old) & (when != _NEVER))
        fx.core[ids[promoted]] = True
        if not promoted.size:
            return _NO_PROMOTIONS

        # Each cell's earliest core among the gathered fixes (every fix of an
        # old-dense cell is an old core): one stands for the cell's cores.
        earliest = np.full(n_cells, _NEVER, dtype=np.int64)
        np.minimum.at(earliest, cell, when)
        earliest[old_dense] = -1
        rep = cells.first[:n_cells].copy()
        earliest_fix = np.flatnonzero((when == earliest[cell]) & ~old_dense[cell])
        rep_cells, at = np.unique(cell[earliest_fix], return_index=True)
        rep[rep_cells] = ids[earliest_fix[at]]
        # Candidate core neighbours of the promoted fixes, as (promoted fix,
        # neighbour id, its cell, its promotion, its local id or -1): both
        # ends of the built pairs, the fix's own cell, the dense links, and
        # the older neighbours of fixes indexed before the chunk.
        old_p, old_q = self._older_neighbours(
            promoted[promoted < first_new], ids, x, y, old_dense, n_old, r2
        )
        at_q = np.searchsorted(ids, old_q)
        in_view = at_q < n_loc
        in_view[in_view] = ids[at_q[in_view]] == old_q[in_view]
        old_when = np.where(fx.core[old_q], -1, _NEVER)
        old_when[in_view] = when[at_q[in_view]]
        own = promoted[earliest[cell[promoted]] < when[promoted]]
        nb_p = np.concatenate([a, b, own, hit_b, old_p])
        nb_local = np.concatenate(
            [b, a, np.full(own.size + hit_b.size, -1), np.where(in_view, at_q, -1)]
        )
        nb_cell = np.concatenate([cell[b], cell[a], cell[own], hit_cell, fx.cell[old_q]])
        nb_id = np.concatenate([ids[b], ids[a], rep[cell[own]], rep[hit_cell], old_q])
        nb_when = np.concatenate(
            [when[b], when[a], earliest[cell[own]], earliest[hit_cell], old_when]
        )
        return self._fold(
            promoted, when, ids, cell, x, y, nb_p, nb_local, nb_cell, nb_id, nb_when,
            dense_at, n_old,
        )

    def _older_neighbours(
        self,
        promoted: np.ndarray,
        ids: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        old_dense: np.ndarray,
        n_old: int,
        r2: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(promoted fix, neighbour id)`` for fixes indexed before the chunk.

        A fix indexed before the chunk met its older neighbours in earlier
        chunks; on promotion they are probed again through the cells around
        its own: point pairs with the fixes of sparse cells, and one
        neighbour (the first fix) per dense cell it reaches.
        """
        fx = self._fixes
        empty = np.zeros(0, dtype=np.int64)
        if not promoted.size:
            return empty, empty
        n_cells = self._cells.size
        p_cell = fx.cell[ids[promoted]]
        q_cell, n_cell = self._neighbour_cells(np.unique(p_cell))
        need = np.zeros(n_cells, dtype=bool)
        need[n_cell] = True
        old = np.flatnonzero(need[fx.cell[:n_old]])
        members = old[np.argsort(fx.cell[old], kind="stable")]
        m_count = np.bincount(fx.cell[old], minlength=n_cells)
        m_start = np.cumsum(m_count) - m_count
        p_sorted = promoted[np.argsort(p_cell, kind="stable")]
        p_count = np.bincount(p_cell, minlength=n_cells)
        p_start = np.cumsum(p_count) - p_count
        dense = old_dense[n_cell]
        left, right = _range_product(
            p_start[q_cell[~dense]], p_count[q_cell[~dense]],
            m_start[n_cell[~dense]], m_count[n_cell[~dense]],
        )
        p, q = p_sorted[left], members[right]
        dx = x[p] - fx.x[q]
        dy = y[p] - fx.y[q]
        keep = (dx * dx + dy * dy <= r2) & (q != ids[p])
        p, q = p[keep], q[keep]
        fix = p_sorted[concat_ranges(p_start[q_cell[dense]], p_count[q_cell[dense]])]
        target = np.repeat(n_cell[dense], p_count[q_cell[dense]])
        reached = _reaches(
            np.full(fix.size, n_old), x[fix], y[fix], fx.cell[ids[fix]], target,
            members, fx.x[members], fx.y[members], m_start, m_count, r2,
        )
        return (
            np.concatenate([p, fix[reached]]),
            np.concatenate([q, self._cells.first[target[reached]]]),
        )

    def _neighbour_cells(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(query cell, cell within two cells of it)`` pairs, itself included."""
        cells = self._cells
        n = cells.size
        q, c = cell_probe_pairs(
            cells.fx[query], cells.fy[query], cells.user[query],
            cells.fx[:n], cells.fy[:n], cells.user[:n],
        )
        return query[q], c

    def _fold(
        self,
        promoted: np.ndarray,
        when: np.ndarray,
        ids: np.ndarray,
        cell: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        nb_p: np.ndarray,
        nb_local: np.ndarray,
        nb_cell: np.ndarray,
        nb_id: np.ndarray,
        nb_when: np.ndarray,
        dense_at: np.ndarray,
        n_old: int,
    ) -> _Promotions:
        """The chunk's promotions in event order, unions applied.

        The core neighbours of a fix ``p`` promoted at insert ``t`` are those
        promoted no later than ``t``.  Those promoted before ``t`` are already
        unioned with every core of their clique cell, so one per cell stands
        for them; those promoted at ``t`` itself are kept one by one.  ``p``
        emits (distinct roots among itself and them) - 1 ``"merge"`` events.
        """
        fx = self._fixes
        n_cells = self._cells.size
        n_loc = ids.size
        is_promoted = np.zeros(n_loc, dtype=bool)
        is_promoted[promoted] = True
        keep = is_promoted[nb_p] & (nb_when <= when[nb_p]) & (nb_id != ids[nb_p])
        nb_p, nb_local, nb_cell, nb_id, nb_when = (
            v[keep] for v in (nb_p, nb_local, nb_cell, nb_id, nb_when)
        )
        same = nb_when == when[nb_p]
        # Earlier cores: one per (promoted fix, cell), and the component each
        # stood in before the chunk when it was an old core (parents point at
        # roots between chunks, so equal parents mean one component).
        key, at = np.unique(nb_p[~same] * n_cells + nb_cell[~same], return_index=True)
        rep_p = key // n_cells
        rep_id = nb_id[~same][at]
        root0 = np.where(nb_when[~same][at] == -1, fx.parent[rep_id], -1)
        # A cell turning dense at ``t`` promotes its sparse fixes at ``t``:
        # the turning fix and each of them are same-insert core neighbours.
        turned = dense_at[cell]
        joined = np.flatnonzero(
            (turned >= n_old) & (turned != _NEVER) & (when == turned) & (ids != turned)
        )
        turner = np.searchsorted(ids, turned[joined])
        ind_p = np.concatenate([nb_p[same], joined, turner])
        ind_q = np.concatenate([nb_local[same], turner, joined])

        n_reps = np.bincount(rep_p, minlength=n_loc)
        one_component = _one_component(rep_p, key % n_cells, root0, cell, when, n_cells)
        _, group_of, group_size = np.unique(
            when[promoted], return_inverse=True, return_counts=True
        )
        lone = np.zeros(n_loc, dtype=bool)
        lone[promoted] = group_size[group_of.reshape(-1)] == 1
        simple = lone & one_component & (np.bincount(ind_p, minlength=n_loc) == 0)
        # Simple promotions join at most one component: link them now (a
        # promotion never reaches a fix promoted after it, so the fold below
        # sees the same components).
        first_rep = np.full(n_loc, -1, dtype=np.int64)
        first_rep[rep_p] = rep_id
        linked = simple & (n_reps > 0)
        fx.parent[ids[linked]] = first_rep[linked]

        # Per insert: the inserted fix first, then its neighbours in the eps
        # grid's 3x3 probe order (cell x, cell y, index).
        eps = self.config.eps_m
        seq = promoted[
            np.lexsort((
                ids[promoted],
                np.floor(y[promoted] / eps),
                np.floor(x[promoted] / eps),
                ids[promoted] != when[promoted],
                when[promoted],
            ))
        ]
        reps: Dict[int, List[int]] = {}
        complex_rep = ~simple[rep_p]
        for p, r in zip(rep_p[complex_rep].tolist(), rep_id[complex_rep].tolist()):
            reps.setdefault(p, []).append(r)
        complex_ind = ~simple[ind_p]
        for p, q in zip(ind_p[complex_ind].tolist(), ids[ind_q[complex_ind]].tolist()):
            reps.setdefault(p, []).append(q)

        # The sequential fold, over the other promotions only.
        merges = (simple & (n_reps > 0)).astype(np.int64)
        find = self._find
        parent = fx.parent
        for p in seq[~simple[seq]].tolist():
            roots: Set[int] = {find(int(ids[p]))}
            roots.update(find(r) for r in reps.get(p, ()))
            if len(roots) > 1:
                root = min(roots)
                for r in roots:
                    parent[r] = root
            merges[p] = len(roots) - 1
        self._compress()
        return ids[seq], when[seq], merges[seq]

    def _events(
        self, promoted: np.ndarray, when: np.ndarray, merges: np.ndarray
    ) -> List[ClusterEvent]:
        """Per insert: every "core" event, then each promoted fix's merges.

        ``promoted`` are resident ids in fold order, ``when`` the insert that
        promoted each and ``merges`` its number of merge events.
        """
        if not promoted.size:
            return []
        fx = self._fixes
        n = promoted.size
        group = np.cumsum(np.concatenate([[True], when[1:] != when[:-1]]))
        at = np.repeat(np.arange(n), merges)
        order = np.lexsort((
            np.concatenate([np.arange(n), at]),
            np.concatenate([np.zeros(n, np.int64), np.ones(at.size, np.int64)]),
            np.concatenate([group, group[at]]),
        ))
        entry = promoted[np.concatenate([np.arange(n), at])[order]]
        present, slot = np.unique(fx.user[entry], return_inverse=True)
        names = [self._by_code[code].user_id for code in present.tolist()]
        kinds = ("core", "merge")
        return [
            ClusterEvent(names[user], kinds[merge], index)
            for user, merge, index in zip(
                slot.reshape(-1).tolist(), (order >= n).tolist(), fx.local[entry].tolist()
            )
        ]

    def _compress(self) -> None:
        """Point every resident fix straight at its root."""
        parent = self._fixes.parent[: self._fixes.size]
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                return
            parent[:] = jumped

    # -- incremental neighbourhood maintenance ----------------------------------

    def _find(self, i: int) -> int:
        parent = self._fixes.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = int(parent[i])
        return i

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        self._fixes.parent[max(ra, rb)] = min(ra, rb)
        return True

    def _neighbors(self, st: _UserClusters, x: float, y: float, skip: int) -> List[int]:
        """In-radius fixes via a 3x3 probe of the eps-sized grid.

        The exact confirmation ``dx*dx + dy*dy <= eps*eps`` reproduces the
        batch kernel's pair test on the same projected floats, so the
        maintained relation is the batch relation.
        """
        eps = self.config.eps_m
        r2 = eps * eps
        cx, cy = math.floor(x / eps), math.floor(y / eps)
        xs, ys = self._fixes.x, self._fixes.y
        grid = self._grid(st)
        found: List[int] = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for i in grid.get((gx, gy), ()):
                    if i == skip:
                        continue
                    dx = x - xs[i]
                    dy = y - ys[i]
                    if dx * dx + dy * dy <= r2:
                        found.append(i)
        return found

    def _grid(self, st: _UserClusters) -> Dict[Tuple[int, int], List[int]]:
        """The user's eps-grid, caught up with every fix indexed since."""
        fx = self._fixes
        if st.gridded < fx.size:
            eps = self.config.eps_m
            mine = st.gridded + np.flatnonzero(fx.user[st.gridded : fx.size] == st.code)
            for i, gx, gy in zip(
                mine.tolist(),
                np.floor(fx.x[mine] / eps).astype(np.int64).tolist(),
                np.floor(fx.y[mine] / eps).astype(np.int64).tolist(),
            ):
                st.grid.setdefault((gx, gy), []).append(i)
            st.gridded = fx.size
        return st.grid

    def _insert(
        self, user_id: str, st: _UserClusters, ts: float, lat: float, lon: float
    ) -> List[ClusterEvent]:
        """Index one resolved stationary fix and maintain counts/cores."""
        assert st.anchor is not None
        lat0, lon0, lat_m, lon_m = st.anchor
        x = (lon - lon0) * lon_m
        y = (lat - lat0) * lat_m
        fx = self._fixes
        span = fx.grow(1)
        idx = span.start
        fx.x[idx], fx.y[idx], fx.lat[idx], fx.lon[idx], fx.ts[idx] = x, y, lat, lon, ts
        fx.user[idx], fx.local[idx] = st.code, st.n
        fx.parent[idx] = idx
        fx.core[idx] = False
        fx.size = span.stop
        st.n += 1
        neighbors = self._neighbors(st, x, y, skip=idx)
        fx.count[idx] = 1 + len(neighbors)

        promoted: List[int] = []
        if fx.count[idx] >= self.config.min_points:
            promoted.append(idx)
        for nb in neighbors:
            fx.count[nb] += 1
            if fx.count[nb] >= self.config.min_points and not fx.core[nb]:
                promoted.append(nb)
        if not promoted:
            return []
        # Mark first, then union: when both endpoints of a core-core edge
        # promote in the same update, the rescan still sees both flags set.
        for p in promoted:
            fx.core[p] = True
        events = [
            ClusterEvent(user_id=user_id, kind="core", index=int(fx.local[p])) for p in promoted
        ]
        for p in promoted:
            for nb in self._neighbors(st, fx.x[p], fx.y[p], skip=p):
                if fx.core[nb] and self._union(p, nb):
                    events.append(
                        ClusterEvent(user_id=user_id, kind="merge", index=int(fx.local[p]))
                    )
        return events


def _one_component(
    rep_p: np.ndarray,
    rep_c: np.ndarray,
    root0: np.ndarray,
    cell: np.ndarray,
    when: np.ndarray,
    n_cells: int,
) -> np.ndarray:
    """Per fix: are its earlier core neighbours provably in one component?

    ``(rep_p, rep_c)`` lists each promoted fix's earlier core neighbours by
    cell, with the component ``root0`` they stood in before the chunk (-1:
    none).  They are one component when there is at most one cell; when all
    stood in one component before the chunk; or when each cell either stood
    with the fix's own cell before the chunk or was joined to it directly by
    an earlier promotion of the chunk (a promotion leaves its own cell and
    the cells of its core neighbours in one component).
    """
    n_loc = when.size
    n_reps = np.bincount(rep_p, minlength=n_loc)
    lo_root = np.full(n_loc, _NEVER, dtype=np.int64)
    hi_root = np.full(n_loc, -1, dtype=np.int64)
    np.minimum.at(lo_root, rep_p, root0)
    np.maximum.at(hi_root, rep_p, root0)
    own_c = cell[rep_p]
    is_own = rep_c == own_c
    own_root = np.full(n_loc, -2, dtype=np.int64)
    own_root[rep_p[is_own]] = root0[is_own]
    # First time each (own cell, neighbour cell) pair was joined directly.
    pair = np.minimum(own_c, rep_c) * n_cells + np.maximum(own_c, rep_c)
    t = when[rep_p]
    order = np.lexsort((t, pair))
    keys, first = np.unique(pair[order], return_index=True)
    joined_at = t[order][first][np.searchsorted(keys, pair)]
    linked = is_own | (joined_at < t) | ((root0 == own_root[rep_p]) & (root0 >= 0))
    all_linked = np.bincount(rep_p, weights=~linked, minlength=n_loc) == 0
    return (
        (n_reps <= 1)
        | ((lo_root == hi_root) & (lo_root >= 0))
        | ((own_root != -2) & all_linked)
    )


def _reaches(
    bound: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    q_cell: np.ndarray,
    t_cell: np.ndarray,
    m_id: np.ndarray,
    mx: np.ndarray,
    my: np.ndarray,
    m_start: np.ndarray,
    m_count: np.ndarray,
    r2: float,
) -> np.ndarray:
    """Per query: does a fix of cell ``t_cell`` with id below ``bound`` lie within the radius?

    A target cell's fixes sit at ``[m_start, m_start + m_count)`` of the
    member columns.  Each (query cell, target cell) pair elects one witness,
    the target's fix nearest to the mean of the pair's queries; a query it
    reaches is decided, and only the others test every fix of the target
    (the exhaustive fallback).  Each decision is the exact
    ``dx*dx + dy*dy <= r2`` of a real pair.
    """
    reached = np.zeros(bound.size, dtype=bool)
    if not bound.size:
        return reached
    n_targets = int(t_cell.max()) + 1
    pairs, inverse, size = np.unique(
        q_cell * n_targets + t_cell, return_inverse=True, return_counts=True
    )
    inverse = inverse.reshape(-1)
    cx = np.bincount(inverse, weights=qx) / size
    cy = np.bincount(inverse, weights=qy) / size
    target = pairs % n_targets
    rows = np.repeat(np.arange(pairs.size), m_count[target])
    at = concat_ranges(m_start[target], m_count[target])
    nearest = np.lexsort(((mx[at] - cx[rows]) ** 2 + (my[at] - cy[rows]) ** 2, rows))
    witness = at[nearest[np.cumsum(m_count[target]) - m_count[target]]][inverse]
    dx = qx - mx[witness]
    dy = qy - my[witness]
    reached[:] = (dx * dx + dy * dy <= r2) & (m_id[witness] < bound)
    miss = np.flatnonzero(~reached)
    left, right = _range_product(
        miss, np.ones(miss.size, dtype=np.int64), m_start[t_cell[miss]], m_count[t_cell[miss]]
    )
    dx = qx[left] - mx[right]
    dy = qy[left] - my[right]
    reached[left[(dx * dx + dy * dy <= r2) & (m_id[right] < bound[left])]] = True
    return reached


def _range_product(
    start_a: np.ndarray, count_a: np.ndarray, start_b: np.ndarray, count_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(i, j)`` of ``range(start_a[k], +count_a[k]) x range(start_b[k], +count_b[k])``."""
    left = concat_ranges(start_a, count_a)
    width = np.repeat(count_b, count_a)
    return np.repeat(left, width), concat_ranges(np.repeat(start_b, count_a), width)


def replay_extract_djclusters(
    dataset: MobilityDataset, config: Optional[DjClusterConfig] = None
) -> Dict[str, List[ExtractedPoi]]:
    """Replay ``dataset`` through the incremental DJ-Cluster (batch-identical)."""
    source = ReplaySource(dataset)
    clusterer = StreamingDjCluster(config, user_ids=source.user_ids)
    for chunk in source.chunks():
        clusterer._advance(chunk)  # nobody reads the events of a replay
    return clusterer.finalize()
