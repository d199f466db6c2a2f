"""Streaming incremental evaluation tier.

This package re-runs the repository's attacks *online*: a
:class:`ReplaySource` replays a dataset or ``WorldStore`` world as column
chunks in global timestamp order, and every consumer has one contract —
build it on the source's roster ``user_ids``, feed it with
``update_many(chunk)``, which returns ``None``, then read ``finalize()``.
Per-chunk cost is bounded by the chunk and the consumer's sliding window,
never by the stream's history, any chunking of a stream leaves the same
state, and every ``finalize()`` is pinned bitwise-identical to the
corresponding batch attack on the same data.  The stream legs of the CI
``equivalence`` job hold that pin through
``python -m repro.experiments.backend_check equivalence``.

``chunks()`` yields :class:`StreamChunk` runs of at most about
:data:`CHUNK_POINTS` rows each, and the ``replay_*`` helpers — hence
``mode="stream"`` — replay chunk by chunk.

Components:

* :class:`ReplaySource` — where points come from;
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
from .sources import CHUNK_POINTS, ReplaySource, StreamChunk
from .staypoints import StreamingPoiExtractor, replay_extract_staypoints

__all__ = [
    "CHUNK_POINTS",
    "OnlineReidentifier",
    "ReplaySource",
    "StreamChunk",
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
