"""Tests for trace I/O: GeoLife PLT, CSV and GeoJSON."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.trajectory import MobilityDataset, Trajectory
from repro.io.csv_io import read_csv, write_csv
from repro.io.geojson import dataset_to_feature_collection, write_geojson
from repro.io.geolife import (
    ingest_geolife_store,
    iter_geolife_users,
    read_geolife_directory,
    read_plt_file,
    write_geolife_directory,
    write_plt_file,
)
from repro.mixzones.zones import MixZone

from .conftest import make_line_trajectory


@pytest.fixture
def dataset() -> MobilityDataset:
    return MobilityDataset(
        [
            make_line_trajectory(user_id="alice", n_points=20, start_time=1_400_000_000.0),
            make_line_trajectory(user_id="bob", n_points=15, start_time=1_400_100_000.0),
        ]
    )


class TestPlt:
    def test_round_trip_single_file(self, tmp_path, dataset):
        path = tmp_path / "trace.plt"
        write_plt_file(path, dataset["alice"])
        loaded = read_plt_file(path, "alice")
        assert len(loaded) == len(dataset["alice"])
        np.testing.assert_allclose(loaded.lats, dataset["alice"].lats, atol=1e-6)
        np.testing.assert_allclose(loaded.lons, dataset["alice"].lons, atol=1e-6)
        # PLT stores whole seconds.
        np.testing.assert_allclose(loaded.timestamps, dataset["alice"].timestamps, atol=1.0)

    def test_header_lines_are_skipped(self, tmp_path, dataset):
        path = tmp_path / "trace.plt"
        write_plt_file(path, dataset["alice"])
        lines = path.read_text().splitlines()
        assert lines[0] == "Geolife trajectory"
        assert len(lines) == 6 + len(dataset["alice"])

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "bad.plt"
        path.write_text("h\n" * 6 + "not,a,valid,line\n45.0,4.0,0,0,0,2008-10-23,02:53:04\n")
        loaded = read_plt_file(path, "u")
        assert len(loaded) == 1

    @pytest.mark.parametrize(
        "bad_line",
        [
            "garbage",
            "nan,116.3,0,0,0,2008-10-23,02:53:05",
            "inf,116.3,0,0,0,2008-10-23,02:53:05",
            "39.9,-inf,0,0,0,2008-10-23,02:53:05",
            "95.0,116.3,0,0,0,2008-10-23,02:53:05",
            "39.9,181.0,0,0,0,2008-10-23,02:53:05",
        ],
    )
    def test_bad_fix_skipped_not_fatal(self, tmp_path, bad_line):
        """A non-finite or out-of-range fix drops its line, not the whole file."""
        path = tmp_path / "bad.plt"
        path.write_text(
            "h\n" * 6
            + "39.9,116.3,0,0,0,2008-10-23,02:53:04\n"
            + bad_line
            + "\n39.9,116.4,0,0,0,2008-10-23,02:53:06\n"
        )
        loaded = read_plt_file(path, "u")
        assert len(loaded) == 2
        np.testing.assert_array_equal(loaded.lons, [116.3, 116.4])

    def test_directory_round_trip(self, tmp_path, dataset):
        root = tmp_path / "geolife"
        write_geolife_directory(root, dataset)
        loaded = read_geolife_directory(root)
        assert set(loaded.user_ids) == {"alice", "bob"}
        assert loaded.n_points == dataset.n_points

    def test_directory_max_users(self, tmp_path, dataset):
        root = tmp_path / "geolife"
        write_geolife_directory(root, dataset)
        loaded = read_geolife_directory(root, max_users=1)
        assert len(loaded) == 1

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_geolife_directory(tmp_path / "nope")

    def test_multi_file_user_concatenates_and_sorts_once(self, tmp_path):
        """A user split over several PLT files loads as one sorted trajectory.

        Regression for the per-file ``Trajectory.append`` accumulation that
        re-validated and re-sorted the whole history after every file: the
        single-concatenation reader must produce the identical trajectory,
        including interleaved timestamps across files (file order must not
        leak into the fix order).
        """
        from repro.io.geolife import read_geolife_user

        rng = np.random.default_rng(1)
        chunks = []
        t0 = 1_400_000_000.0
        for k in range(5):
            n = int(rng.integers(3, 30))
            # Overlapping time ranges across files: sorting must interleave.
            times = t0 + rng.uniform(0.0, 5_000.0, n).round()
            chunks.append(
                Trajectory(
                    "007",
                    times,
                    45.0 + rng.uniform(-0.01, 0.01, n),
                    4.0 + rng.uniform(-0.01, 0.01, n),
                )
            )
        user_dir = tmp_path / "007" / "Trajectory"
        for k, chunk in enumerate(chunks):
            write_plt_file(user_dir / f"2008_{k:02d}.plt", chunk)

        loaded = read_geolife_user(tmp_path / "007")
        reference = Trajectory.empty("007")
        for k in range(5):
            reference = reference.append(read_plt_file(user_dir / f"2008_{k:02d}.plt", "007"))
        assert loaded == reference
        assert len(loaded) == sum(len(c) for c in chunks)
        assert np.all(np.diff(loaded.timestamps) >= 0.0)

    def test_read_geolife_user_empty_directory(self, tmp_path):
        from repro.io.geolife import read_geolife_user

        (tmp_path / "042").mkdir()
        loaded = read_geolife_user(tmp_path / "042")
        assert loaded.user_id == "042" and len(loaded) == 0


class TestGeolifeStreaming:
    """The generator-based bounded-memory reader must match the eager one."""

    def test_generator_equals_eager_reader(self, tmp_path, dataset):
        root = tmp_path / "geolife"
        write_geolife_directory(root, dataset)
        streamed = list(iter_geolife_users(root))
        eager = read_geolife_directory(root)
        assert [t.user_id for t in streamed] == eager.user_ids
        assert all(t == eager[t.user_id] for t in streamed)

    def test_generator_respects_max_users(self, tmp_path, dataset):
        root = tmp_path / "geolife"
        write_geolife_directory(root, dataset)
        assert [t.user_id for t in iter_geolife_users(root, max_users=1)] == ["alice"]

    def test_generator_is_lazy(self, tmp_path, dataset):
        root = tmp_path / "geolife"
        write_geolife_directory(root, dataset)
        iterator = iter_geolife_users(root)
        first = next(iterator)
        assert first.user_id == "alice"

    def test_generator_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            next(iter_geolife_users(tmp_path / "nope"))

    def test_generator_skips_empty_users(self, tmp_path, dataset):
        root = tmp_path / "geolife"
        write_geolife_directory(root, dataset)
        (root / "000-empty" / "Trajectory").mkdir(parents=True)
        assert [t.user_id for t in iter_geolife_users(root)] == ["alice", "bob"]

    def test_multi_file_user_streams_as_one_trajectory(self, tmp_path, dataset):
        root = tmp_path / "geolife"
        user_dir = root / "007" / "Trajectory"
        half = len(dataset["alice"]) // 2
        write_plt_file(user_dir / "a.plt", dataset["alice"][:half])
        write_plt_file(user_dir / "b.plt", dataset["alice"][half:])
        streamed = list(iter_geolife_users(root))
        assert len(streamed) == 1
        assert len(streamed[0]) == len(dataset["alice"])
        assert np.all(np.diff(streamed[0].timestamps) >= 0.0)

    def test_gappy_and_malformed_lines_stream_like_eager(self, tmp_path):
        root = tmp_path / "geolife"
        user_dir = root / "042" / "Trajectory"
        user_dir.mkdir(parents=True)
        (user_dir / "gappy.plt").write_text(
            "h\n" * 6
            + "45.0,4.0,0,0,0,2008-10-23,02:53:04\n"
            + "garbage line\n"
            + "45.1,not-a-number,0,0,0,2008-10-23,02:53:05\n"
            + "45.2,4.2,0,0,0,2008-10-23,09:53:04\n"  # 7-hour gap survives
        )
        streamed = list(iter_geolife_users(root))
        eager = read_geolife_directory(root)
        assert streamed == list(eager)
        assert len(streamed[0]) == 2

    def test_ingest_store_round_trip(self, tmp_path, dataset):
        root = tmp_path / "geolife"
        write_geolife_directory(root, dataset)
        store = ingest_geolife_store(root, tmp_path / "world")
        assert store.dataset() == read_geolife_directory(root)
        assert store.dataset().content_fingerprint() == (
            read_geolife_directory(root).content_fingerprint()
        )

    def test_ingest_store_max_users(self, tmp_path, dataset):
        root = tmp_path / "geolife"
        write_geolife_directory(root, dataset)
        store = ingest_geolife_store(root, tmp_path / "world", max_users=1)
        assert store.dataset().user_ids == ["alice"]


class TestCsv:
    def test_round_trip(self, tmp_path, dataset):
        path = tmp_path / "data.csv"
        write_csv(path, dataset)
        loaded = read_csv(path)
        assert set(loaded.user_ids) == set(dataset.user_ids)
        np.testing.assert_allclose(loaded["alice"].lats, dataset["alice"].lats, atol=1e-6)
        np.testing.assert_allclose(loaded["alice"].timestamps, dataset["alice"].timestamps, atol=1e-3)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user,when\nu,1\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,timestamp,lat,lon\nu,notanumber,45.0,4.0\n")
        with pytest.raises(ValueError):
            read_csv(path)


class TestGeoJson:
    def test_feature_collection_structure(self, dataset):
        zone = MixZone(45.0, 4.0, 100.0, 0.0, 10.0, frozenset({"alice", "bob"}))
        collection = dataset_to_feature_collection(dataset, [zone])
        assert collection["type"] == "FeatureCollection"
        assert len(collection["features"]) == 3
        line = collection["features"][0]
        assert line["geometry"]["type"] == "LineString"
        # GeoJSON uses [lon, lat] ordering.
        lon, lat = line["geometry"]["coordinates"][0]
        assert lat == pytest.approx(dataset["alice"].first.lat)
        assert lon == pytest.approx(dataset["alice"].first.lon)
        point = collection["features"][-1]
        assert point["properties"]["kind"] == "mix-zone"
        assert point["properties"]["participants"] == ["alice", "bob"]

    def test_write_geojson_is_valid_json(self, tmp_path, dataset):
        path = tmp_path / "out.geojson"
        write_geojson(path, dataset)
        parsed = json.loads(path.read_text())
        assert parsed["type"] == "FeatureCollection"

    def test_empty_trajectory_feature(self):
        from repro.io.geojson import trajectory_to_feature

        feature = trajectory_to_feature(Trajectory.empty("u"))
        assert feature["geometry"]["coordinates"] == []
        assert feature["properties"]["n_points"] == 0
