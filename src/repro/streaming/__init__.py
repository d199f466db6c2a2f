"""Streaming incremental evaluation tier.

This package re-runs the repository's attacks *online*: points arrive one at
a time (replayed from a dataset / ``WorldStore`` world or synthesised live)
and every consumer has one contract — feed it with ``update(point)`` or
``update_many(chunk)``, both of which return ``None``, then read
``finalize()``.  Per-point cost is bounded by the consumer's sliding
window, never by the stream's history, and every ``finalize()`` is pinned
bitwise-identical to the corresponding batch attack on the same data.  The
stream legs of the CI ``equivalence`` job hold that pin through
``python -m repro.experiments.backend_check equivalence``.

``update_many(chunk)`` takes a :class:`StreamChunk` of column arrays and
leaves exactly the state per-point ``update()`` leaves over the chunk's
rows; ``update()`` stays the oracle it is tested against.  Sources yield
chunks through ``chunks()`` in exactly their ``__iter__`` order, at most
about :data:`CHUNK_POINTS` rows each, and the ``replay_*`` helpers — hence
``mode="stream"`` — replay chunk by chunk.  No setting selects between the
two paths.

Components:

* :class:`ReplaySource` / :class:`LiveSource` — where points come from;
* :class:`StreamingPoiExtractor` — appendable-window stay-point extraction;
* :class:`StreamingDjCluster` — online stationarity filter, clustered by
  the batch grid DBSCAN at ``finalize()``;
* :class:`StreamingCrossingDetector` / :class:`StreamingMixZoneDetector` —
  sliding-window mix-zone crossing detection;
* :class:`OnlineReidentifier` — incrementally built stay-points and
  footprints, scored by both batch re-identification attacks at
  ``finalize()``.

Experiments opt in with ``ExperimentSpec(mode="stream")``, which routes the
evaluators that declare an ``execution`` parameter through this tier.
"""

from .djcluster import StreamingDjCluster, replay_extract_djclusters
from .mixzones import (
    StreamingCrossingDetector,
    StreamingMixZoneDetector,
    replay_detect_mix_zones,
    replay_find_crossings,
)
from .reident import OnlineReidentifier, replay_reidentify
from .sources import (
    CHUNK_POINTS,
    LiveSource,
    ReplaySource,
    StreamChunk,
    StreamPoint,
    StreamSource,
)
from .staypoints import StreamingPoiExtractor, replay_extract_staypoints

__all__ = [
    "CHUNK_POINTS",
    "LiveSource",
    "OnlineReidentifier",
    "ReplaySource",
    "StreamChunk",
    "StreamPoint",
    "StreamSource",
    "StreamingCrossingDetector",
    "StreamingDjCluster",
    "StreamingMixZoneDetector",
    "StreamingPoiExtractor",
    "replay_detect_mix_zones",
    "replay_extract_djclusters",
    "replay_extract_staypoints",
    "replay_find_crossings",
    "replay_reidentify",
]
