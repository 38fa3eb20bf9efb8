"""Online transient detection and offline period mining.

The online side runs inside the frame cadence: a per-star sliding window of
recent magnitudes provides a baseline, and a point that deviates from the
baseline mean by more than ``k_sigma`` combined sigmas raises a dimming or
brightening alert.  The combined sigma folds the reported per-point
measurement error into the baseline scatter, so the effective threshold on
clean data is well beyond ``k_sigma`` plain standard deviations and the false
alert rate stays far below one in 1e5 star-epochs at the default k=5.

Unmatched detections go through a persistence tracker: a new-source alert is
raised only after the same sky position is detected in ``persistence``
consecutive frames, which suppresses single-frame artifacts.  Detections are
linked to open tracks with the same zone ``range_join`` the cross-match uses,
so the tracker's cost is linear in the number of unmatched detections.

The offline side is a classic normalized periodogram over an evenly spaced
frequency grid with a local refinement pass around the top peak.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .core import (
    ConfigError, DomainError, EngineConfig, InsufficientDataError, csv_columns, read_csv,
    row_blocks, write_csv,
)
from .crossmatch import build_zone_index, range_join

DIMMING = "dimming"
BRIGHTENING = "brightening"
NEW_SOURCE = "new_source"

_REFRESH_EVERY = 512  # frames between exact recomputation of running sums
_REFRESH_ROWS = 1 << 14  # stars refreshed at a time


@dataclass(frozen=True)
class MiningConfig:
    """Detector and period-search tuning knobs."""

    window: int = 40
    min_window: int = 10
    k_sigma: float = 5.0
    persistence: int = 2
    min_points: int = 8
    oversample: int = 5
    fap: float = 0.01

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError(f"window must be >= 2, got {self.window}")
        if not 2 <= self.min_window <= self.window:
            raise ConfigError(
                f"min_window must be in [2, window], got {self.min_window}"
            )
        if self.k_sigma <= 0:
            raise ConfigError(f"k_sigma must be > 0, got {self.k_sigma}")
        if self.persistence < 1:
            raise ConfigError(f"persistence must be >= 1, got {self.persistence}")
        if self.min_points < 4:
            raise ConfigError(f"min_points must be >= 4, got {self.min_points}")
        if self.oversample < 1:
            raise ConfigError(f"oversample must be >= 1, got {self.oversample}")
        if not 0 < self.fap < 1:
            raise ConfigError(f"fap must be in (0, 1), got {self.fap}")


@dataclass
class Alert:
    kind: str
    epoch: float
    star_id: int = -1
    record_id: int = 0
    mag: float = math.nan
    baseline_mag: float = math.nan
    deviation_sigma: float = math.nan
    ra: float = math.nan
    dec: float = math.nan
    n_frames: int = 0
    camera_id: int = 0


def write_alerts_csv(path, alerts) -> None:
    """One row per alert, its fields as the columns."""
    write_csv(path, csv_columns(Alert)[0], map(astuple, alerts))


def read_alerts_csv(path):
    return [Alert(*row) for row in zip(*read_csv(path, *csv_columns(Alert)))]


# ---------------------------------------------------------------------------
# online detector


class WindowBank:
    """Sliding magnitude windows for a fixed star population.

    Ring buffers plus running first and second moments give O(matches) work
    per frame; the moments are recomputed exactly from the rings every
    ``_REFRESH_EVERY`` frames to stop float drift.  Points sharing one frame
    are all judged against the pre-frame baseline before any of them is
    absorbed, so duplicate matches to one star cannot alert on each other.
    """

    def __init__(self, star_ids: np.ndarray, config: MiningConfig):
        star_ids = np.asarray(star_ids, dtype=np.int64)
        if len(star_ids) and np.any(np.diff(star_ids) <= 0):
            raise DomainError("star_ids must be strictly increasing")
        self.star_ids = star_ids
        self.config = config
        n, w = len(star_ids), config.window
        self._ring = np.zeros((n, w), dtype=np.float64)
        self._head = np.zeros(n, dtype=np.int64)
        self._count = np.zeros(n, dtype=np.int64)
        self._sum = np.zeros(n, dtype=np.float64)
        self._sumsq = np.zeros(n, dtype=np.float64)
        self._frames_since_refresh = 0

    @property
    def n_stars(self) -> int:
        return len(self.star_ids)

    def _slots_of(self, star_ids: np.ndarray) -> np.ndarray:
        slots = np.searchsorted(self.star_ids, star_ids)
        n = self.n_stars
        bad = (slots >= n) | (self.star_ids[np.minimum(slots, n - 1)] != star_ids)
        if np.any(bad):
            raise DomainError(
                f"unknown star ids in update: {np.unique(star_ids[bad])[:5]}"
            )
        return slots

    def baseline_stats(self, slots: np.ndarray):
        """(count, mean, sample variance) of the current baselines."""
        n, total, sumsq = self._count[slots], self._sum[slots], self._sumsq[slots]
        mean = total / np.maximum(n, 1)
        var = np.zeros(len(slots))
        two = n >= 2
        var[two] = (sumsq[two] - total[two] ** 2 / n[two]) / (n[two] - 1)
        np.clip(var, 0.0, None, out=var)
        return n, mean, var

    def _refresh_sums(self):
        """Recompute the running sums from the rings, ``_REFRESH_ROWS`` stars at a time."""
        slot = np.arange(self.config.window)
        for lo in range(0, self.n_stars, _REFRESH_ROWS):
            part = slice(lo, lo + _REFRESH_ROWS)
            vals = np.where(slot < self._count[part, None], self._ring[part], 0.0)
            self._sum[part] = vals.sum(axis=1)
            self._sumsq[part] = (vals * vals).sum(axis=1)
        self._frames_since_refresh = 0

    def _push(self, slots: np.ndarray, mags: np.ndarray) -> list:
        """Absorb points; duplicate slots are applied in multiplicity passes.

        A pass takes each star's first remaining point (a per-star minimum of
        row positions); its slots are distinct, so update order changes no float.
        Returns one ``(slots, heads, counts, sums, sumsqs, ring values)`` tuple
        per pass: what the pass overwrote, for ``restore``.
        """
        w, ring = self.config.window, self._ring.reshape(-1)
        first_at = np.empty(self.n_stars, dtype=np.int64)
        passes = []
        while len(slots):
            rows = np.arange(len(slots))
            first_at[slots] = len(slots)
            np.minimum.at(first_at, slots, rows)
            first = first_at[slots] == rows
            sel, sel_mags = slots[first], mags[first]
            head, count = self._head[sel], self._count[sel]
            total, sumsq = self._sum[sel], self._sumsq[sel]
            at = sel * w + head
            old = ring[at]
            full = count == w
            drop = np.where(full, old, 0.0)  # a full window's oldest point leaves first
            self._sum[sel] = (total - drop) + sel_mags
            self._sumsq[sel] = (sumsq - drop * drop) + sel_mags * sel_mags
            ring[at] = sel_mags
            self._head[sel] = (head + 1) % w
            self._count[sel] = count + ~full
            passes.append((sel, head, count, total, sumsq, old))
            slots, mags = slots[~first], mags[~first]
        return passes

    def judge(
        self, epoch, star_ids, mags, mag_errors, record_ids=None, camera_id=0, rows=None
    ):
        """One frame's alerts against the pre-frame baselines; changes nothing.

        Returns ``(alerts, slots, point_mags)``; ``absorb(slots, point_mags)``
        then adds the frame without reading ``mags`` again.  With ``rows``,
        point k takes entry ``rows[k]`` of ``mags``, ``mag_errors`` and
        ``record_ids``.  Points are judged in row blocks on every core
        (``core.row_blocks``); alerts come in row order, and an unknown star id
        raises ``DomainError`` for the lowest block that holds one.
        """
        star_ids = np.asarray(star_ids, dtype=np.int64)
        mags = np.asarray(mags, dtype=np.float64)
        mag_errors = np.asarray(mag_errors, dtype=np.float64)
        rows = np.arange(len(star_ids)) if rows is None else rows
        slots = np.empty(len(star_ids), np.int64)
        point_mags = np.empty(len(star_ids))

        def block(lo, hi):
            part, pick = slice(lo, hi), rows[lo:hi]
            slots[part] = self._slots_of(star_ids[part])
            n, mean, var = self.baseline_stats(slots[part])
            point_mags[part] = mags[pick]
            err, mag = mag_errors[pick], point_mags[part]
            combined = np.sqrt(var + err * err)
            dev = mag - mean
            hit = (n >= self.config.min_window) & (np.abs(dev) > self.config.k_sigma * combined)
            return [
                Alert(
                    kind=DIMMING if dev[j] > 0 else BRIGHTENING,
                    epoch=float(epoch),
                    star_id=int(star_ids[lo + j]),
                    record_id=0 if record_ids is None else int(record_ids[pick[j]]),
                    mag=float(mag[j]),
                    baseline_mag=float(mean[j]),
                    deviation_sigma=float(abs(dev[j]) / c) if c > 0 else math.inf,
                    camera_id=camera_id,
                )
                for j, c in zip(np.flatnonzero(hit), combined[hit])
            ]

        alerts = [a for part in row_blocks(len(slots), block) for a in part]
        return alerts, slots, point_mags

    def absorb(self, slots, mags):
        """Add one judged frame's points to the windows; returns its undo record.

        The record holds what the frame overwrote: each multiplicity pass's
        slots, heads, counts, sums, sumsqs and ring values, the running sums
        from before a refresh if this frame ran one, and the refresh counter.
        ``restore`` takes it.
        """
        passes, refreshed, frames_since_refresh = [], None, self._frames_since_refresh
        if len(slots):
            passes = self._push(slots, np.asarray(mags, dtype=np.float64))
            self._frames_since_refresh += 1
            if self._frames_since_refresh >= _REFRESH_EVERY:
                refreshed = (self._sum.copy(), self._sumsq.copy())
                self._refresh_sums()
        return passes, refreshed, frames_since_refresh

    def restore(self, undo) -> None:
        """Put back, bit for bit, what the ``absorb`` that returned ``undo`` changed.

        Steps are undone in reverse: the refresh, then the passes last to first,
        since later passes overwrote what earlier ones wrote.
        """
        passes, refreshed, frames_since_refresh = undo
        if refreshed is not None:
            self._sum, self._sumsq = refreshed
        ring = self._ring.reshape(-1)
        for sel, head, count, total, sumsq, old in reversed(passes):
            ring[sel * self.config.window + head] = old
            self._head[sel], self._count[sel] = head, count
            self._sum[sel], self._sumsq[sel] = total, sumsq
        self._frames_since_refresh = frames_since_refresh

    def update(
        self, epoch, star_ids, mags, mag_errors, record_ids=None, camera_id=0
    ):
        """Judge one frame's matched points, then absorb them; returns its alerts."""
        alerts, slots, point_mags = self.judge(
            epoch, star_ids, mags, mag_errors, record_ids, camera_id
        )
        self.absorb(slots, point_mags)
        return alerts

    def update_from_match(self, frame, matches):
        rows = matches.matched_rows
        rec = frame.records
        return self.update(
            frame.epoch,
            matches.star_ids,
            rec["calmag"][rows],
            rec["mag_error"][rows],
            record_ids=rec["id"][rows],
            camera_id=frame.camera_id,
        )


# ---------------------------------------------------------------------------
# new-source persistence tracker


class CandidateTracker:
    """Chains unmatched detections across consecutive frames.

    A track is extended when the next frame has an unmatched detection within
    the match radius; a gap of even one frame closes it.  Each track alerts at
    most once, when it first reaches the persistence threshold.

    Linking is one ``range_join`` of the frame's detections against a zone
    index over the open tracks, so a frame costs time linear in its size.  A
    detection links to its nearest in-radius track, ties going to the older
    track; when several detections share a nearest track, the first in row
    order extends it and the rest open new tracks.
    """

    _TRACK_DTYPE = np.dtype(
        [
            ("id", "<i8"), ("ra", "<f8"), ("dec", "<f8"),
            ("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
            ("count", "<i8"), ("alerted", "?"), ("first_id", "<u8"),
        ]
    )

    def __init__(self, config: EngineConfig, mining: MiningConfig):
        self.config = config
        self.mining = mining
        self._tracks = np.zeros(0, dtype=self._TRACK_DTYPE)
        self._last_epoch = -np.inf
        self._previous = (self._tracks, self._last_epoch)  # for ``restore``

    @property
    def open_tracks(self) -> int:
        return len(self._tracks)

    def update(self, epoch, unmatched_records, camera_id=0):
        """Feed one frame's unmatched detections; returns new-source alerts.

        The previous track array is left as it was, for ``restore``.
        """
        epoch = float(epoch)
        rec = unmatched_records
        tracks = self._tracks
        self._previous = (tracks, self._last_epoch)
        if epoch - self._last_epoch > 1.5 * self.config.cadence_s:
            # consecutive chain broken for every open track
            tracks = tracks[:0]
        self._last_epoch = epoch
        claimed = claimed_rows = np.zeros(0, dtype=np.int64)
        if len(rec) and len(tracks):  # a track's id is its position
            index = build_zone_index(tracks, self.config.zone_height_deg)
            links = range_join(rec, index, self.config.match_radius_deg)
            claimed, first = np.unique(links.star_ids, return_index=True)
            claimed_rows = links.matched_rows[first]
        opens = np.ones(len(rec), dtype=bool)
        opens[claimed_rows] = False
        new_rows = np.flatnonzero(opens)
        new = np.zeros(len(new_rows), dtype=self._TRACK_DTYPE)
        new["first_id"] = rec["id"][new_rows]
        # unclaimed tracks close; claimed ones keep their order ahead of new ones
        tracks = np.concatenate([tracks[claimed], new])
        rows = np.concatenate([claimed_rows, new_rows])
        for name in ("ra", "dec", "x", "y", "z"):
            tracks[name] = rec[name][rows]
        tracks["id"] = np.arange(len(tracks))
        tracks["count"] += 1
        fire = (tracks["count"] >= self.mining.persistence) & ~tracks["alerted"]
        tracks["alerted"] |= fire
        self._tracks = tracks
        fired = np.flatnonzero(fire)
        fired = fired[np.argsort(rows[fired])]
        return [
            Alert(
                kind=NEW_SOURCE,
                epoch=epoch,
                record_id=int(tracks["first_id"][t]),
                mag=float(rec["calmag"][rows[t]]),
                ra=float(tracks["ra"][t]),
                dec=float(tracks["dec"][t]),
                n_frames=int(tracks["count"][t]),
                camera_id=camera_id,
            )
            for t in fired
        ]

    def restore(self) -> None:
        """Undo the last ``update``."""
        self._tracks, self._last_epoch = self._previous


# ---------------------------------------------------------------------------
# offline period mining


def default_freq_grid(epochs: np.ndarray, oversample: int = 5) -> np.ndarray:
    """Evenly spaced frequencies from 1/span up to the mean-cadence Nyquist."""
    epochs = np.asarray(epochs, dtype=np.float64)
    if len(epochs) < 2:
        raise InsufficientDataError("need at least 2 epochs for a frequency grid")
    span = float(epochs.max() - epochs.min())
    if span <= 0:
        raise InsufficientDataError("epochs span zero time")
    dt = span / (len(epochs) - 1)
    f_min = 1.0 / span
    f_max = 0.5 / dt
    df = 1.0 / (oversample * span)
    if f_max <= f_min:
        raise InsufficientDataError("frequency grid is empty for these epochs")
    return np.arange(f_min, f_max, df)


def lomb_scargle(
    epochs: np.ndarray,
    mags: np.ndarray,
    freqs: np.ndarray,
    chunk: int = 512,
) -> np.ndarray:
    """Normalized periodogram P(f) of a mean-subtracted series.

    Uses the phase-shift formulation that makes the two quadratures
    independent; powers are in units of half the sample variance, so pure
    Gaussian noise gives exponentially distributed powers with unit mean.
    """
    t = np.asarray(epochs, dtype=np.float64)
    y = np.asarray(mags, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    if t.shape != y.shape or t.ndim != 1:
        raise DomainError("epochs and mags must be matching 1-d arrays")
    if len(t) < 3:
        raise InsufficientDataError("need at least 3 points for a periodogram")
    y = y - y.mean()
    var = float(np.sum(y * y) / (len(y) - 1))
    if var <= 0:
        raise DomainError("magnitude series has zero variance")
    power = np.empty(len(freqs))
    for start in range(0, len(freqs), chunk):
        w = 2.0 * np.pi * freqs[start : start + chunk, None]  # (c, 1)
        wt = w * t[None, :]  # (c, n)
        s2 = np.sin(2.0 * wt).sum(axis=1)
        c2 = np.cos(2.0 * wt).sum(axis=1)
        tau_w = 0.5 * np.arctan2(s2, c2)  # omega * tau
        arg = wt - tau_w[:, None]
        cosg = np.cos(arg)
        sing = np.sin(arg)
        yc = cosg @ y
        ys = sing @ y
        cc = np.sum(cosg * cosg, axis=1)
        ss = np.sum(sing * sing, axis=1)
        power[start : start + chunk] = 0.5 / var * (yc * yc / cc + ys * ys / ss)
    return power


def false_alarm_level(n_freqs: int, fap: float) -> float:
    """Power threshold whose chance of being topped anywhere is ``fap``."""
    if n_freqs < 1:
        raise DomainError(f"n_freqs must be >= 1, got {n_freqs}")
    if not 0 < fap < 1:
        raise DomainError(f"fap must be in (0, 1), got {fap}")
    return -math.log(1.0 - (1.0 - fap) ** (1.0 / n_freqs))


@dataclass
class PeriodResult:
    period_s: float
    frequency_hz: float
    power: float
    fap_threshold: float
    significant: bool
    n_points: int
    n_freqs: int
    scan: tuple = field(repr=False, compare=False)  # (freqs, power) of the scan


def period_search(
    epochs,
    mags,
    config: MiningConfig | None = None,
    freqs: np.ndarray | None = None,
    refine: bool = True,
) -> PeriodResult:
    """Best-period scan of one light curve.

    Scans ``freqs`` (or a default grid), then optionally refines the winning
    peak on a 20x finer local grid so the reported period is not quantized to
    the scan spacing.  The result's ``scan`` is the scanned grid and its powers.
    """
    if config is None:
        config = MiningConfig()
    t = np.asarray(epochs, dtype=np.float64)
    y = np.asarray(mags, dtype=np.float64)
    if len(t) < config.min_points:
        raise InsufficientDataError(
            f"period search needs >= {config.min_points} points, got {len(t)}"
        )
    if freqs is None:
        freqs = default_freq_grid(t, config.oversample)
    freqs = np.asarray(freqs, dtype=np.float64)
    power = lomb_scargle(t, y, freqs)
    best = int(np.argmax(power))
    best_freq = float(freqs[best])
    best_power = float(power[best])
    if refine and len(freqs) > 1:
        df = float(freqs[1] - freqs[0])
        lo = max(best_freq - 2 * df, freqs[0] * 0.5)
        fine = np.linspace(lo, best_freq + 2 * df, 81)
        fine = fine[fine > 0]
        fine_power = lomb_scargle(t, y, fine)
        j = int(np.argmax(fine_power))
        if fine_power[j] >= best_power:
            best_freq = float(fine[j])
            best_power = float(fine_power[j])
    threshold = false_alarm_level(len(freqs), config.fap)
    return PeriodResult(
        period_s=1.0 / best_freq,
        frequency_hz=best_freq,
        power=best_power,
        fap_threshold=threshold,
        significant=best_power > threshold,
        n_points=len(t),
        n_freqs=len(freqs),
        scan=(freqs, power),
    )
