"""Streaming-tier benchmark: per-point update latency and resident state.

Replays the evaluation workloads through the incremental attacks of
``repro.streaming`` — chunk by chunk through ``update_many``, the path the
``replay_*`` helpers and the engine's ``mode="stream"`` run — and records,
per attack cell:

* ``wall_s`` / ``wall_s_samples`` — best-of-k replay wall time and the raw
  repeat samples, timed by the ``bench_timer`` fixture after one untimed
  warm-up replay (the regression gate compares the minimum);
* ``update_latency_us`` — mean per-point cost of the replay (+ the final
  ``finalize()``), the number a live pipeline budgets against;
* ``peak_resident_points`` — the largest point-derived state the streaming
  consumer held at any moment, versus the full dataset the batch attack
  loads (``resident_fraction``).  It is sampled after every row of one
  extra, untimed pass that feeds the same chunks one point at a time: any
  chunking leaves the same state at a chunk's end, and the timed replay
  holds at most one chunk more.  Stay-point windows and the mix-zone
  window are O(window); DJ-Cluster retains the *stationary* fixes only
  (density clusters are defined over the whole history), and the
  re-identifier holds the footprint cells of every pseudonym.
* ``batch_wall_s`` — the batch attack on the same data, for context.

Every cell asserts that its streaming ``finalize()`` equals the batch
attack.  ``BENCH_stream.<scale>.json`` is committed at small scale and gated
by ``compare_artifacts.py`` like every other bench artifact.
"""

from __future__ import annotations

from repro.attacks.djcluster import DjCluster, DjClusterConfig
from repro.attacks.poi_extraction import PoiExtractionConfig, PoiExtractor
from repro.attacks.reident import (
    FootprintReidentifier,
    ReidentificationConfig,
    Reidentifier,
)
from repro.experiments.formatting import format_table
from repro.experiments.workloads import split_train_publish
from repro.mixzones.detection import MixZoneDetectionConfig, MixZoneDetector
from repro.streaming import (
    OnlineReidentifier,
    ReplaySource,
    StreamChunk,
    StreamingCrossingDetector,
    StreamingDjCluster,
    StreamingPoiExtractor,
)


def _stream_timing(
    timer, source, consumer_factory, finish, peak_of, n_points: int
) -> dict:
    """Chunked replays timed by ``timer`` plus a pass of one-point chunks for peak state.

    Returns the timings and the last replay's ``finish(consumer)`` result.
    """

    def replay():
        consumer = consumer_factory()
        for chunk in source.chunks():
            consumer.update_many(chunk)
        return finish(consumer)

    result, samples = timer(replay)
    wall_s = min(samples)

    consumer = consumer_factory()
    peak = 0
    for chunk in source.chunks():
        for k in range(len(chunk)):
            consumer.update_many(_row(chunk, k))
            peak = max(peak, peak_of(consumer))
    return {
        "wall_s": wall_s,
        "wall_s_samples": samples,
        "points_per_s": n_points / wall_s if wall_s > 0 else None,
        "update_latency_us": 1e6 * wall_s / n_points if n_points else None,
        "peak_resident_points": peak,
        "resident_fraction": peak / n_points if n_points else None,
    }, result


def _row(chunk: StreamChunk, k: int) -> StreamChunk:
    """Row ``k`` of ``chunk`` as a one-point chunk."""
    rows = slice(k, k + 1)
    return StreamChunk(
        chunk.user_ids,
        chunk.user_index[rows],
        chunk.pos[rows],
        chunk.timestamps[rows],
        chunk.lats[rows],
        chunk.lons[rows],
    )


def test_stream(
    eval_world, crossing_eval_world, bench_artifact, bench_timer, evaluation_scale
):
    standard = eval_world.dataset
    crossing = crossing_eval_world.dataset
    training, published = split_train_publish(crossing_eval_world, 0.5)

    poi_config = PoiExtractionConfig()
    dj_config = DjClusterConfig()
    zone_config = MixZoneDetectionConfig()
    poi_attacker = Reidentifier(ReidentificationConfig(match_distance_m=250.0))
    poi_knowledge = poi_attacker.knowledge_from_dataset(training)
    fp_attacker = FootprintReidentifier()
    fp_knowledge = fp_attacker.knowledge_from_dataset(
        training, bbox=crossing.bbox.expanded(500.0)
    )
    standard_source = ReplaySource(standard)
    crossing_source = ReplaySource(crossing)
    published_source = ReplaySource(published)

    def finalize(consumer):
        return consumer.finalize()

    cells = {
        "stream_staypoints": (
            standard_source,
            lambda: StreamingPoiExtractor(poi_config, user_ids=standard_source.user_ids),
            finalize,
            lambda c: c.open_points,
            standard.n_points,
        ),
        "stream_djcluster": (
            standard_source,
            lambda: StreamingDjCluster(dj_config, user_ids=standard_source.user_ids),
            finalize,
            lambda c: c.stationary_points,
            standard.n_points,
        ),
        "stream_mixzones": (
            crossing_source,
            lambda: StreamingCrossingDetector(zone_config, user_ids=crossing_source.user_ids),
            finalize,
            lambda c: c.window_points,
            crossing.n_points,
        ),
        "stream_reident": (
            published_source,
            lambda: OnlineReidentifier(
                poi_attacker, fp_attacker, poi_knowledge, fp_knowledge,
                user_ids=published_source.user_ids,
            ),
            lambda c: c.finalize(published),
            lambda c: c.footprint_cells + c._extractor.open_points,
            published.n_points,
        ),
    }
    timings = {}
    results = {}
    for cell, args in cells.items():
        timings[cell], results[cell] = _stream_timing(bench_timer, *args)

    batch = {
        "stream_staypoints": lambda: PoiExtractor(poi_config).extract_dataset(standard),
        "stream_djcluster": lambda: DjCluster(dj_config).extract_dataset(standard),
        "stream_mixzones": lambda: MixZoneDetector(zone_config).find_crossings(crossing),
        "stream_reident": lambda: (
            poi_attacker.attack(published, poi_knowledge),
            fp_attacker.attack(published, fp_knowledge),
        ),
    }
    for cell, run in batch.items():
        expected, samples = bench_timer(run)
        timings[cell]["batch_wall_s"] = min(samples)
        if cell == "stream_reident":
            got = [(r.scores, r.predicted) for r in results[cell]]
            expected = [(r.scores, r.predicted) for r in expected]
        else:
            got = results[cell]
        assert got == expected, f"{cell}: streaming finalize() differs from batch"

    rows = [
        {
            "cell": cell,
            "wall_s": values["wall_s"],
            "update_latency_us": values["update_latency_us"],
            "peak_resident_points": values["peak_resident_points"],
            "resident_fraction": values["resident_fraction"],
            "batch_wall_s": values.get("batch_wall_s"),
        }
        for cell, values in timings.items()
    ]
    path = bench_artifact(
        "stream",
        timings=timings,
        rows=rows,
        extra={
            "workload": {
                "standard_points": standard.n_points,
                "crossing_points": crossing.n_points,
                "published_points": published.n_points,
            }
        },
    )
    print()
    headers = [
        "cell", "wall_s", "update_latency_us",
        "peak_resident_points", "resident_fraction", "batch_wall_s",
    ]
    print(format_table(
        headers,
        [[r[h] for h in headers] for r in rows],
        title=f"Streaming tier at scale={evaluation_scale} (artifact: {path})",
    ))

    # O(window), not O(history): the appendable stay window and the mix-zone
    # window must stay far below the dataset they replayed.  (DJ-Cluster's
    # state is all stationary fixes by construction, and the re-identifier's
    # every footprint cell — reported, not bounded.)
    if evaluation_scale not in ("tiny",):
        for cell in ("stream_staypoints", "stream_mixzones"):
            fraction = timings[cell]["resident_fraction"]
            assert fraction is not None and fraction < 0.5, (
                f"{cell}: peak resident state is {fraction:.0%} of the stream — "
                "a sliding window must not retain history"
            )
