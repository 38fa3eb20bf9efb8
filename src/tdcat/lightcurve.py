"""Light-curve assembly.

``query_curve`` assembles a curve for one star from persisted partition
stores (``tdcat query``, ``tdcat mine period``).  It projects the rows of
``store.query_stores``, the one cross-partition read, onto ``POINT_DTYPE``;
the frame chain keeps no in-memory copy of curves.  Star ids are template
row numbers, so they name one star only within one camera.

A ``CurveSet`` accumulates matched points for a fixed set of template stars in
columnar blocks (one block per appended frame) and materializes per-star
curves on demand.  Rebuilding the per-star layout is deferred and amortized:
appends are O(matches), and the first ``curve``/``coverage`` call after a
batch of appends performs a single sort over all accumulated points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, SequenceError, camera_of
from .store import query_stores

POINT_DTYPE = np.dtype(
    [
        ("epoch", "<f8"),
        ("calmag", "<f8"),
        ("mag_error", "<f8"),
        ("flux", "<f8"),
        ("flux_err", "<f8"),
    ]
)


@dataclass
class LightCurve:
    """Time-ordered photometric points for one template star."""

    star_id: int
    points: np.ndarray  # POINT_DTYPE, sorted by epoch

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def epochs(self) -> np.ndarray:
        return self.points["epoch"]

    @property
    def mags(self) -> np.ndarray:
        return self.points["calmag"]


def points_from_match(frame, matches) -> tuple:
    """(star_ids, points) for one frame's matched records."""
    rows = matches.matched_rows
    rec = frame.records
    if matches.n_frame != len(rec):
        raise DomainError(f"match result covers {matches.n_frame} records, frame has {len(rec)}")
    pts = np.zeros(len(rows), dtype=POINT_DTYPE)
    pts["epoch"] = frame.epoch
    pts["calmag"] = rec["calmag"][rows]
    pts["mag_error"] = rec["mag_error"][rows]
    pts["flux"] = rec["flux"][rows]
    pts["flux_err"] = rec["flux_err"][rows]
    return matches.star_ids[rows], pts


class CurveSet:
    """Columnar light-curve accumulator over a fixed star population."""

    def __init__(self, star_ids: np.ndarray):
        star_ids = np.asarray(star_ids, dtype=np.int64)
        if star_ids.ndim != 1:
            raise DomainError("star_ids must be one-dimensional")
        if len(star_ids) and np.any(np.diff(star_ids) <= 0):
            raise DomainError("star_ids must be strictly increasing")
        self.star_ids = star_ids
        self._slot_parts: list = []
        self._point_parts: list = []
        self._last_epoch = -np.inf
        self._n_pending = 0
        self._points: np.ndarray = np.zeros(0, POINT_DTYPE)
        self._indptr: np.ndarray = np.zeros(len(star_ids) + 1, np.int64)

    @property
    def n_stars(self) -> int:
        return len(self.star_ids)

    def append_points(self, epoch: float, star_ids, points: np.ndarray) -> None:
        """Add one frame's matched points; frames must arrive in time order."""
        epoch = float(epoch)
        if not epoch > self._last_epoch:
            raise SequenceError(
                f"append epoch {epoch} not after previous {self._last_epoch}"
            )
        star_ids = np.asarray(star_ids, dtype=np.int64)
        points = np.asarray(points, dtype=POINT_DTYPE)
        if star_ids.shape != (len(points),):
            raise DomainError("star_ids and points lengths differ")
        if len(star_ids):
            slots = np.searchsorted(self.star_ids, star_ids)
            bad = (slots >= self.n_stars) | (self.star_ids[np.minimum(slots, self.n_stars - 1)] != star_ids)
            if np.any(bad):
                raise DomainError(
                    f"unknown star ids in append: {np.unique(star_ids[bad])[:5]}"
                )
            self._slot_parts.append(slots)
            self._point_parts.append(points)
            self._n_pending += len(points)
        self._last_epoch = epoch

    def append_match(self, frame, matches) -> None:
        star_ids, pts = points_from_match(frame, matches)
        self.append_points(frame.epoch, star_ids, pts)

    def _flush(self) -> None:
        if not self._n_pending:
            return
        new_slots = np.concatenate(self._slot_parts)
        new_points = np.concatenate(self._point_parts)
        all_slots = np.concatenate([self._expand_slots(), new_slots])
        all_points = np.concatenate([self._points, new_points])
        # stable per-star time order: appends were already epoch-ordered
        order = np.argsort(all_slots, kind="stable")
        all_slots = all_slots[order]
        self._points = all_points[order]
        self._indptr = np.searchsorted(all_slots, np.arange(self.n_stars + 1))
        self._slot_parts = []
        self._point_parts = []
        self._n_pending = 0

    def _expand_slots(self) -> np.ndarray:
        counts = np.diff(self._indptr)
        return np.repeat(np.arange(self.n_stars), counts)

    def curve(self, star_id: int) -> LightCurve:
        self._flush()
        slot = int(np.searchsorted(self.star_ids, star_id))
        if slot >= self.n_stars or self.star_ids[slot] != star_id:
            raise DomainError(f"star {star_id} not in this curve set")
        lo, hi = self._indptr[slot], self._indptr[slot + 1]
        return LightCurve(star_id=int(star_id), points=self._points[lo:hi].copy())

    def coverage(self) -> np.ndarray:
        """Number of accumulated points per star, aligned with ``star_ids``."""
        self._flush()
        return np.diff(self._indptr)

    def curves(self, min_points: int = 1):
        """Yield materialized curves with at least ``min_points`` points."""
        self._flush()
        counts = np.diff(self._indptr)
        for slot in np.nonzero(counts >= min_points)[0]:
            lo, hi = self._indptr[slot], self._indptr[slot + 1]
            yield LightCurve(
                star_id=int(self.star_ids[slot]), points=self._points[lo:hi].copy()
            )


def query_curve(
    stores,
    star_id: int,
    epoch_min: float | None = None,
    epoch_max: float | None = None,
) -> LightCurve:
    """Assemble one star's curve from persisted partition stores."""
    rec = query_stores(stores, star_id=star_id, epoch_min=epoch_min, epoch_max=epoch_max,
                       include_candidates=False)
    camera_of(rec["id"], f"star {star_id} has rows", "read one camera's partition (--partitions)")
    points = np.zeros(len(rec), dtype=POINT_DTYPE)
    for name in POINT_DTYPE.names:
        points[name] = rec[name]
    return LightCurve(star_id=int(star_id), points=points)
