"""Trajectory swapping inside mix-zones.

Once natural mix-zones have been detected (:mod:`repro.mixzones.detection`),
the second mechanism of the paper is applied:

* every fix falling inside a mix-zone is **suppressed** from the published
  data ("nobody is tracked inside a mix-zone"), and
* when several users traverse a zone during its activity window, the
  identifiers carried by their trajectories **may be shuffled** when they
  leave the zone, so that a trace published under one pseudonym can switch to
  the physical path of another user.

Because only identifiers are exchanged and no location is moved, spatial
utility is untouched; the only loss is the handful of points suppressed inside
the zones.

The engine keeps a full provenance record (:class:`SwapRecord` /
:class:`SwapResult`) mapping each published segment back to the physical user
that produced it.  This ground truth is what the re-identification and
tracking experiments (E4, E5) score attackers against.

Implementation
--------------
:meth:`MixZoneSwapper.apply` works on the dataset's columnar view.  Each
(zone, participant) pair's time window, widened by ``time_tolerance_s``, is
an index range of the participant's sorted timestamps, found by one
:func:`~repro.geo.kernels.segmented_searchsorted` per window edge; distance
to the zone center is tested only on the fixes inside those ranges, in one
batched :func:`~repro.geo.distance.haversine_array` call.  Labels are then
permuted zone by zone exactly as before, so the random draws, the records,
the segment ownership and the suppression count do not change.  The loop
that calls :meth:`MixZone.mask_of` on each participant's whole trajectory is
kept as the scalar oracle :meth:`MixZoneSwapper.apply_reference`; the two are
pinned bitwise by ``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.trajectory import MobilityDataset, Trajectory
from ..geo.distance import haversine_array
from ..geo.kernels import ColumnarTraces, concat_ranges, segmented_searchsorted
from .zones import MixZone

__all__ = [
    "SwapPolicy",
    "SwapConfig",
    "SwapRecord",
    "SwapResult",
    "MixZoneSwapper",
    "swap_dataset",
]


class SwapPolicy(str, Enum):
    """How identifiers are permuted among the users traversing a zone.

    * ``ALWAYS`` — apply a uniformly random *derangement-biased* permutation:
      a non-identity permutation is drawn whenever at least two users are
      present (maximum confusion).
    * ``COIN_FLIP`` — draw a uniformly random permutation, which may be the
      identity (matches the paper's "possibly shuffled" wording).
    * ``NEVER`` — suppress in-zone points but never exchange identifiers
      (ablation: measures how much of the protection comes from suppression
      alone).
    """

    ALWAYS = "always"
    COIN_FLIP = "coin_flip"
    NEVER = "never"


@dataclass(frozen=True)
class SwapConfig:
    """Parameters of the swapping engine.

    Attributes
    ----------
    policy:
        The permutation policy (see :class:`SwapPolicy`).
    pseudonymize:
        When true (default), published identifiers are fresh pseudonyms
        (``p000``, ``p001``, ...) rather than the original user ids, as a real
        publication would do.  Provenance records always retain the mapping.
    suppress_in_zone:
        When true (default), fixes inside a zone are removed from the
        published data.  Disabling this is only useful for ablation studies.
    time_tolerance_s:
        Mix-zones are detected on the *original* data, but the data being
        published has usually been time-distorted by the speed-smoothing step,
        so a trace may cross the zone's location at a published timestamp that
        differs from the original crossing time.  The zone's temporal window
        is expanded by this tolerance when matching published fixes, so the
        spatial crossing is still recognised.  Within-session time distortion
        is bounded by the session duration, so 30 minutes covers typical trips.
    seed:
        Seed of the random generator used to draw permutations, for
        reproducible experiments.
    """

    policy: SwapPolicy = SwapPolicy.COIN_FLIP
    pseudonymize: bool = True
    suppress_in_zone: bool = True
    time_tolerance_s: float = 1800.0
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.time_tolerance_s < 0.0:
            raise ValueError("time_tolerance_s must be non-negative")


@dataclass(frozen=True)
class SwapRecord:
    """Provenance of one mix-zone traversal.

    ``labels_before`` and ``labels_after`` map each *physical* participant to
    the published label it carries immediately before and after the zone.
    ``swapped`` is true when at least one participant changed label.
    """

    zone: MixZone
    labels_before: Mapping[str, str]
    labels_after: Mapping[str, str]

    @property
    def swapped(self) -> bool:
        return any(self.labels_before[u] != self.labels_after[u] for u in self.labels_before)

    @property
    def participants(self) -> Tuple[str, ...]:
        return tuple(sorted(self.labels_before))


@dataclass
class SwapResult:
    """Output of the swapping engine.

    Attributes
    ----------
    dataset:
        The published :class:`MobilityDataset` (pseudonymous labels).
    records:
        One :class:`SwapRecord` per processed mix-zone, in chronological order.
    segment_ownership:
        For every published label, the chronological list of
        ``(t_start, t_end, physical_user)`` segments composing its trajectory.
        This is the ground truth used to score linkage attacks.
    pseudonym_of:
        Initial label assigned to each physical user (before any swap).
    """

    dataset: MobilityDataset
    records: List[SwapRecord]
    segment_ownership: Dict[str, List[Tuple[float, float, str]]]
    pseudonym_of: Dict[str, str]

    @property
    def n_swaps(self) -> int:
        """Number of zones in which at least one identifier changed hands."""
        return sum(1 for r in self.records if r.swapped)

    @property
    def suppressed_points(self) -> int:
        """Number of fixes removed because they fell inside a mix-zone."""
        return self._suppressed

    _suppressed: int = 0


class MixZoneSwapper:
    """Applies mix-zone suppression and identifier swapping to a dataset."""

    def __init__(self, config: Optional[SwapConfig] = None) -> None:
        self.config = config or SwapConfig()

    # -- public API ---------------------------------------------------------------

    def apply(self, dataset: MobilityDataset, zones: Sequence[MixZone]) -> SwapResult:
        """Publish ``dataset`` after suppression and swapping in ``zones``.

        Zones are processed in chronological order of their midpoint time.
        For each zone, the participants *currently having at least one fix in
        the zone* exchange their published labels according to the configured
        policy; users listed as participants but absent from the dataset are
        ignored.

        Each (zone, participant) pair tests only the participant's fixes
        inside the zone's widened time window, found by a segmented
        ``searchsorted`` over the dataset's columnar view; the distances of
        all windows are one batched haversine call.  The result is identical
        to :meth:`apply_reference`.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        pseudonym_of = self._initial_labels(dataset, rng)
        columnar = dataset.columnar()
        offsets = columnar.offsets
        counts = np.diff(offsets)
        row_of = {user: k for k, user in enumerate(columnar.user_ids) if counts[k]}
        ordered = sorted(zones, key=lambda z: z.midpoint_time)

        # Every (zone, participant) pair with fixes, in the oracle's order.
        pairs = [
            (z, row_of[user])
            for z, zone in enumerate(ordered)
            for user in sorted(zone.participants)
            if user in row_of
        ]
        zone_of = np.array([z for z, _ in pairs], dtype=np.int64)
        row = np.array([r for _, r in pairs], dtype=np.int64)

        # Each pair's fixes inside the zone's widened time window.
        tolerance = cfg.time_tolerance_s
        ts = columnar.timestamps
        t_lo = np.array([zone.t_start for zone in ordered], dtype=float) - tolerance
        t_hi = np.array([zone.t_end for zone in ordered], dtype=float) + tolerance
        first = segmented_searchsorted(ts, offsets, t_lo, side="left")[row, zone_of]
        stop = segmented_searchsorted(ts, offsets, t_hi, side="right")[row, zone_of]
        points = concat_ranges(offsets[row] + first, stop - first)
        pair_of_point = np.repeat(np.arange(row.size), stop - first)
        zone_of_point = zone_of[pair_of_point]
        centers = np.array([(zone.center_lat, zone.center_lon, zone.radius_m) for zone in ordered])
        centers = centers.reshape(-1, 3)[zone_of_point]
        inside = (
            haversine_array(
                columnar.lats[points], columnar.lons[points], centers[:, 0], centers[:, 1]
            )
            <= centers[:, 2]
        )
        present = np.zeros(row.size, dtype=bool)
        present[pair_of_point[inside]] = True
        keep = np.ones(columnar.n_points, dtype=bool)
        if cfg.suppress_in_zone:
            keep[points[inside]] = False

        present_in: Dict[int, List[str]] = {}
        for z, r in zip(zone_of[present].tolist(), row[present].tolist()):
            present_in.setdefault(z, []).append(columnar.user_ids[r])
        records, label_history = self._swap_labels(
            [(ordered[z], users) for z, users in present_in.items()], pseudonym_of, rng
        )
        published, ownership = self._assemble(columnar, keep, label_history)
        result = SwapResult(
            dataset=published,
            records=records,
            segment_ownership=ownership,
            pseudonym_of=pseudonym_of,
        )
        result._suppressed = int(keep.size - np.count_nonzero(keep))
        return result

    def apply_reference(self, dataset: MobilityDataset, zones: Sequence[MixZone]) -> SwapResult:
        """:meth:`apply` by one ``mask_of`` per (zone, participant) (the scalar oracle)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        pseudonym_of = self._initial_labels(dataset, rng)

        # In-zone suppression masks, accumulated over every zone.
        keep_masks: Dict[str, np.ndarray] = {
            t.user_id: np.ones(len(t), dtype=bool) for t in dataset
        }

        present_in: List[Tuple[MixZone, List[str]]] = []
        suppressed = 0
        for zone in sorted(zones, key=lambda z: z.midpoint_time):
            matching_zone = self._widened(zone)
            present: List[str] = []
            for user in sorted(zone.participants):
                traj = dataset.get(user)
                if traj is None or len(traj) == 0:
                    continue
                mask = matching_zone.mask_of(traj)
                if not np.any(mask):
                    continue
                present.append(user)
                if cfg.suppress_in_zone:
                    before = int(np.count_nonzero(keep_masks[user]))
                    keep_masks[user] &= ~mask
                    suppressed += before - int(np.count_nonzero(keep_masks[user]))
            present_in.append((zone, present))

        records, label_history = self._swap_labels(present_in, pseudonym_of, rng)
        published, ownership = self._assemble_reference(dataset, keep_masks, label_history)
        result = SwapResult(
            dataset=published,
            records=records,
            segment_ownership=ownership,
            pseudonym_of=pseudonym_of,
        )
        result._suppressed = suppressed
        return result

    # -- internals ----------------------------------------------------------------

    def _initial_labels(self, dataset: MobilityDataset, rng: np.random.Generator) -> Dict[str, str]:
        """The label each user carries before any swap (fresh pseudonyms or ids)."""
        users = [t.user_id for t in dataset]
        if self.config.pseudonymize:
            order = rng.permutation(len(users))
            return {users[i]: f"p{rank:04d}" for rank, i in enumerate(order)}
        return {u: u for u in users}

    def _swap_labels(
        self,
        present_in: Sequence[Tuple[MixZone, List[str]]],
        pseudonym_of: Dict[str, str],
        rng: np.random.Generator,
    ) -> Tuple[List[SwapRecord], Dict[str, List[Tuple[float, str]]]]:
        """Permute labels in every zone, in order, among its present users.

        Returns the swap records and each user's label history: a sorted list
        of ``(effective_from_time, label)``.
        """
        label_history: Dict[str, List[Tuple[float, str]]] = {
            u: [(-np.inf, label)] for u, label in pseudonym_of.items()
        }
        current_label: Dict[str, str] = dict(pseudonym_of)
        records: List[SwapRecord] = []
        for zone, present in present_in:
            if len(present) < 2:
                continue
            labels_before = {u: current_label[u] for u in present}
            permuted = self._permute([labels_before[u] for u in present], rng)
            labels_after = dict(zip(present, permuted))
            for user, new_label in labels_after.items():
                if new_label != current_label[user]:
                    label_history[user].append((zone.midpoint_time, new_label))
                    current_label[user] = new_label
            records.append(SwapRecord(zone=zone, labels_before=labels_before, labels_after=labels_after))
        return records, label_history

    def _widened(self, zone: MixZone) -> MixZone:
        """The zone with its temporal window expanded by the configured tolerance."""
        tolerance = self.config.time_tolerance_s
        if tolerance == 0.0:
            return zone
        return MixZone(
            zone.center_lat,
            zone.center_lon,
            zone.radius_m,
            zone.t_start - tolerance,
            zone.t_end + tolerance,
            zone.participants,
        )

    def _permute(self, labels: List[str], rng: np.random.Generator) -> List[str]:
        """Permute ``labels`` according to the configured policy."""
        if self.config.policy is SwapPolicy.NEVER or len(labels) < 2:
            return list(labels)
        if self.config.policy is SwapPolicy.COIN_FLIP:
            perm = rng.permutation(len(labels))
            return [labels[i] for i in perm]
        # ALWAYS: reject identity permutations (possible since len >= 2).
        while True:
            perm = rng.permutation(len(labels))
            if not np.array_equal(perm, np.arange(len(labels))):
                return [labels[i] for i in perm]

    def _assemble(
        self,
        columnar: ColumnarTraces,
        keep: np.ndarray,
        label_history: Dict[str, List[Tuple[float, str]]],
    ) -> Tuple[MobilityDataset, Dict[str, List[Tuple[float, float, str]]]]:
        """Rebuild published trajectories from the kept fixes and label histories.

        A user's kept timestamps are sorted, so each label's time span is one
        index range found by ``searchsorted``.
        """
        acc: Dict[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        ownership: Dict[str, List[Tuple[float, float, str]]] = {}
        for k, user in enumerate(columnar.user_ids):
            span = columnar.user_slice(k)
            kept = keep[span]
            ts = columnar.timestamps[span][kept]
            if ts.size == 0:
                continue
            lats = columnar.lats[span][kept]
            lons = columnar.lons[span][kept]
            history = label_history[user]
            changes = np.searchsorted(ts, [t for t, _ in history[1:]], side="left").tolist()
            bounds = [0] + changes + [ts.size]
            for (_, label), lo, hi in zip(history, bounds[:-1], bounds[1:]):
                if lo >= hi:
                    continue
                acc.setdefault(label, []).append((ts[lo:hi], lats[lo:hi], lons[lo:hi]))
                ownership.setdefault(label, []).append((float(ts[lo]), float(ts[hi - 1]), user))
        return self._label_trajectories(acc, ownership), ownership

    def _assemble_reference(
        self,
        dataset: MobilityDataset,
        keep_masks: Dict[str, np.ndarray],
        label_history: Dict[str, List[Tuple[float, str]]],
    ) -> Tuple[MobilityDataset, Dict[str, List[Tuple[float, float, str]]]]:
        """Rebuild published trajectories from per-user label histories."""
        # Points accumulated per published label.
        acc: Dict[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        ownership: Dict[str, List[Tuple[float, float, str]]] = {}

        for traj in dataset:
            mask = keep_masks[traj.user_id]
            ts = np.asarray(traj.timestamps)[mask]
            lats = np.asarray(traj.lats)[mask]
            lons = np.asarray(traj.lons)[mask]
            if ts.size == 0:
                continue
            history = label_history[traj.user_id]
            boundaries = [t for t, _ in history[1:]] + [np.inf]
            for (from_time, label), until in zip(history, boundaries):
                seg_mask = (ts >= from_time) & (ts < until)
                if not np.any(seg_mask):
                    continue
                acc.setdefault(label, []).append((ts[seg_mask], lats[seg_mask], lons[seg_mask]))
                ownership.setdefault(label, []).append(
                    (float(ts[seg_mask].min()), float(ts[seg_mask].max()), traj.user_id)
                )
        return self._label_trajectories(acc, ownership), ownership

    @staticmethod
    def _label_trajectories(
        acc: Dict[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
        ownership: Dict[str, List[Tuple[float, float, str]]],
    ) -> MobilityDataset:
        """One trajectory per published label; sorts ``ownership`` in place."""
        trajectories = []
        for label in sorted(acc):
            ts = np.concatenate([a[0] for a in acc[label]])
            lats = np.concatenate([a[1] for a in acc[label]])
            lons = np.concatenate([a[2] for a in acc[label]])
            trajectories.append(Trajectory(label, ts, lats, lons))
            ownership[label].sort(key=lambda seg: seg[0])
        return MobilityDataset(trajectories)


def swap_dataset(
    dataset: MobilityDataset,
    zones: Sequence[MixZone],
    policy: SwapPolicy = SwapPolicy.COIN_FLIP,
    seed: Optional[int] = 0,
    **kwargs,
) -> SwapResult:
    """Convenience wrapper around :class:`MixZoneSwapper`."""
    config = SwapConfig(policy=policy, seed=seed, **kwargs)
    return MixZoneSwapper(config).apply(dataset, zones)
