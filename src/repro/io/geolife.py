"""GeoLife PLT format support.

The paper's evaluation targets real-life GPS datasets; the reference public
one is Microsoft GeoLife, distributed as one directory per user containing
``Trajectory/*.plt`` files.  A PLT file has six header lines followed by one
fix per line::

    latitude,longitude,0,altitude_feet,days_since_1899,date,time

This module reads and writes that exact format so that the real dataset can be
dropped into the reproduction unchanged, and so that synthetic data can be
exported for external tools.  Timestamps are converted to POSIX seconds (UTC).
"""

from __future__ import annotations

import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

from ..core.trajectory import MobilityDataset, Trajectory

if TYPE_CHECKING:
    from .world_store import WorldStore

__all__ = [
    "read_plt_file",
    "write_plt_file",
    "read_geolife_user",
    "iter_geolife_users",
    "read_geolife_directory",
    "ingest_geolife_store",
    "write_geolife_directory",
]

#: Number of header lines in a PLT file (ignored on read, regenerated on write).
_PLT_HEADER_LINES = 6

_PLT_HEADER = (
    "Geolife trajectory\n"
    "WGS 84\n"
    "Altitude is in Feet\n"
    "Reserved 3\n"
    "0,2,255,My Track,0,0,2,8421376\n"
    "0\n"
)

#: Offset between the PLT serial-day epoch (1899-12-30) and the POSIX epoch, in days.
_DAYS_1899_TO_1970 = 25569.0
_SECONDS_PER_DAY = 86400.0


def _parse_plt_line(line: str) -> Optional[tuple]:
    """Parse one PLT data line into ``(timestamp, lat, lon)``; None when malformed.

    Non-finite coordinates and coordinates outside WGS84 bounds count as
    malformed, so one bad fix cannot abort the whole file.
    """
    parts = line.strip().split(",")
    if len(parts) < 7:
        return None
    try:
        lat = float(parts[0])
        lon = float(parts[1])
        date_str = parts[5]
        time_str = parts[6]
        dt = datetime.strptime(f"{date_str} {time_str}", "%Y-%m-%d %H:%M:%S")
        timestamp = dt.replace(tzinfo=timezone.utc).timestamp()
    except ValueError:
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None  # nan and inf fail the range test too
    return timestamp, lat, lon


def read_plt_file(path: str | Path, user_id: str) -> Trajectory:
    """Read a single PLT file into a :class:`Trajectory`.

    Malformed lines are skipped (real GeoLife files contain a few).  A file
    with no usable fix at all emits a :class:`UserWarning` naming it, so a
    user whose every file is unreadable does not vanish without a word.
    """
    path = Path(path)
    timestamps: List[float] = []
    lats: List[float] = []
    lons: List[float] = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for i, line in enumerate(handle):
            if i < _PLT_HEADER_LINES:
                continue
            parsed = _parse_plt_line(line)
            if parsed is None:
                continue
            timestamp, lat, lon = parsed
            timestamps.append(timestamp)
            lats.append(lat)
            lons.append(lon)
    if not timestamps:
        warnings.warn(f"GeoLife file {path} has no usable fix", UserWarning, stacklevel=2)
    return Trajectory(user_id, timestamps, lats, lons)


def write_plt_file(path: str | Path, trajectory: Trajectory) -> None:
    """Write a trajectory to a PLT file (altitude written as 0 feet)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_PLT_HEADER)
        for point in trajectory:
            dt = datetime.fromtimestamp(point.timestamp, tz=timezone.utc)
            serial_day = point.timestamp / _SECONDS_PER_DAY + _DAYS_1899_TO_1970
            handle.write(
                f"{point.lat:.6f},{point.lon:.6f},0,0,{serial_day:.8f},"
                f"{dt.strftime('%Y-%m-%d')},{dt.strftime('%H:%M:%S')}\n"
            )


def read_geolife_user(user_dir: str | Path, user_id: Optional[str] = None) -> Trajectory:
    """Read every PLT file of one GeoLife user directory into a single trajectory.

    ``user_dir`` is the per-user directory (e.g. ``Data/000``); the PLT files
    are looked up under its ``Trajectory`` subdirectory, or directly inside
    ``user_dir`` when that subdirectory does not exist.

    Per-file arrays are accumulated and concatenated once — a single
    validate-and-sort pass over the user's full history, instead of
    re-validating and re-sorting the accumulated arrays after every file.
    """
    user_dir = Path(user_dir)
    user_id = user_id or user_dir.name
    plt_dir = user_dir / "Trajectory"
    if not plt_dir.is_dir():
        plt_dir = user_dir
    parts = [read_plt_file(plt_path, user_id) for plt_path in sorted(plt_dir.glob("*.plt"))]
    if not parts:
        return Trajectory.empty(user_id)
    return Trajectory(
        user_id,
        np.concatenate([p.timestamps for p in parts]),
        np.concatenate([p.lats for p in parts]),
        np.concatenate([p.lons for p in parts]),
    )


def iter_geolife_users(
    root: str | Path, max_users: Optional[int] = None
) -> Iterator[Trajectory]:
    """Stream a GeoLife-style directory tree, one user at a time.

    Yields each user's full validated, time-sorted trajectory in sorted
    user-directory order, skipping users with no fixes — exactly the
    trajectories :func:`read_geolife_directory` assembles, but holding only
    one user's history in memory at a time (the 182-user public release is
    ~25M fixes; the largest single user is a small fraction of that).
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"GeoLife root directory not found: {root}")
    user_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if max_users is not None:
        user_dirs = user_dirs[:max_users]
    for user_dir in user_dirs:
        trajectory = read_geolife_user(user_dir)
        if len(trajectory) > 0:
            yield trajectory


def read_geolife_directory(
    root: str | Path, max_users: Optional[int] = None
) -> MobilityDataset:
    """Read a GeoLife-style directory tree (``root/<user>/Trajectory/*.plt``)."""
    return MobilityDataset(iter_geolife_users(root, max_users=max_users))


def ingest_geolife_store(
    root: str | Path,
    store_path: str | Path,
    max_users: Optional[int] = None,
    overwrite: bool = False,
) -> "WorldStore":
    """Stream a GeoLife directory tree into one on-disk world artifact.

    The bounded-memory ingest path: users flow from
    :func:`iter_geolife_users` straight into a
    :class:`~repro.io.world_store.WorldStoreWriter`, so the full release
    becomes a single memory-mapped artifact without ever materialising the
    whole dataset in RAM.  Evaluate it with the ``store:path=...`` world
    spec.
    """
    from .world_store import WorldStoreWriter

    writer = WorldStoreWriter(store_path, overwrite=overwrite)
    try:
        for trajectory in iter_geolife_users(root, max_users=max_users):
            writer.append(trajectory)
        return writer.finalize()
    finally:
        writer.close()


def write_geolife_directory(root: str | Path, dataset: MobilityDataset) -> None:
    """Write a dataset as a GeoLife-style directory tree (one PLT per user)."""
    root = Path(root)
    for trajectory in dataset:
        path = root / trajectory.user_id / "Trajectory" / "trace.plt"
        write_plt_file(path, trajectory)
