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
    MAX_ABS_MAG, ConfigError, DomainError, EngineConfig, InsufficientDataError, csv_columns,
    read_csv, refuse, row_blocks, rule_check, write_csv,
)
from .crossmatch import build_zone_index, range_join

DIMMING = "dimming"
BRIGHTENING = "brightening"
NEW_SOURCE = "new_source"

QUANTA_PER_MAG = 100_000  # a window bank point is a whole number of 1e-5 mag
# the longest window whose (window · 1e7)², bounding n·Σq² and (Σq)², fits int64: 303
MAX_WINDOW = math.isqrt(2**63 - 1) // (int(MAX_ABS_MAG) * QUANTA_PER_MAG)
PERIODOGRAM_CHUNK = 512  # frequencies per (frequencies, points) block of lomb_scargle


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
        if not 2 <= self.window <= MAX_WINDOW:
            raise ConfigError(f"window must be in [2, {MAX_WINDOW}], got {self.window}")
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

    A point is held as a whole number of quanta, ``1 / QUANTA_PER_MAG`` mag
    each, in an int32 ring, and each window keeps the exact int64 sums of its
    quanta and of their squares.  Integer sums do not depend on the order in
    which points arrive, so they never drift and nothing recomputes them.
    Points sharing one frame are all judged against the pre-frame baseline
    before any of them is absorbed, so duplicate matches to one star cannot
    alert on each other.

    The rings are laid out ``(window, stars)``: a frame writes one window slot
    of many stars, so that slot is contiguous.  A star's slot is its position
    in ``star_ids``: when they are strictly increasing from 0 to n - 1, its id.
    Star ids are per camera, so a bank serves one camera, ``camera_id``, and
    stamps it on every alert.
    """

    def __init__(self, star_ids: np.ndarray, config: MiningConfig, camera_id: int = 0):
        star_ids = np.asarray(star_ids, dtype=np.int64)
        if len(star_ids) and np.any(np.diff(star_ids) <= 0):
            raise DomainError("star_ids must be strictly increasing")
        self.star_ids = star_ids
        self.config = config
        self.camera_id = camera_id
        n, w = len(star_ids), config.window
        self._ids_are_slots = n > 0 and star_ids[0] == 0 and star_ids[-1] == n - 1
        self._ring = np.zeros((w, n), dtype=np.int32)
        self._head = np.zeros(n, dtype=np.int64)
        self._count = np.zeros(n, dtype=np.int64)
        self._sum = np.zeros(n, dtype=np.int64)
        self._sumsq = np.zeros(n, dtype=np.int64)

    @property
    def n_stars(self) -> int:
        return len(self.star_ids)

    def _slots_of(self, star_ids: np.ndarray) -> np.ndarray:
        n = self.n_stars
        if self._ids_are_slots:
            if not len(star_ids) or (star_ids.min() >= 0 and star_ids.max() < n):
                return star_ids
            bad = (star_ids < 0) | (star_ids >= n)
        else:
            slots = np.searchsorted(self.star_ids, star_ids)
            bad = (slots >= n) | (self.star_ids[np.minimum(slots, n - 1)] != star_ids)
            if not np.any(bad):
                return slots
        raise DomainError(f"unknown star ids in update: {np.unique(star_ids[bad])[:5]}")

    def baseline_stats(self, slots: np.ndarray):
        """(count, mean, sample variance) of the current baselines, in mag.

        Both come from the exact sums, converted to float last: the variance
        is ``(n·Σq² − (Σq)²) / (n·(n − 1))``, which is 0 below two points.
        """
        n, total, sumsq = self._count[slots], self._sum[slots], self._sumsq[slots]
        mean = total / (np.maximum(n, 1) * QUANTA_PER_MAG)
        var = (n * sumsq - total * total) / (np.maximum(n * (n - 1), 1) * QUANTA_PER_MAG**2)
        return n, mean, var

    def judge(self, epoch, star_ids, mags, mag_errors, record_ids=None, rows=None):
        """One frame's alerts against the pre-frame baselines; changes nothing.

        Returns ``(alerts, slots, quanta)``, the points as whole quanta;
        ``absorb(slots, quanta)`` then adds the frame without reading ``mags``
        again.  With ``rows``, point k takes entry ``rows[k]`` of ``mags``,
        ``mag_errors`` and ``record_ids``.  Points are judged in row blocks on
        every core (``core.row_blocks``); alerts come in row order.  An unknown
        star id, or a magnitude that breaks calmag's rule (``core.refuse``: point
        k as row k, and its record id), raises ``DomainError`` for the lowest
        block that holds one.
        """
        star_ids = np.asarray(star_ids, dtype=np.int64)
        mags = np.asarray(mags, dtype=np.float64)
        mag_errors = np.asarray(mag_errors, dtype=np.float64)
        rows = np.arange(len(star_ids)) if rows is None else np.asarray(rows)
        slots = np.empty(len(star_ids), np.int64)
        quanta = np.empty(len(star_ids), np.int32)

        def block(lo, hi):
            part, pick = slice(lo, hi), rows[lo:hi]
            slots[part] = self._slots_of(star_ids[part])
            n, mean, var = self.baseline_stats(slots[part])
            first, last = (pick.min(), pick.max() + 1) if len(pick) else (0, 0)
            at = pick - first  # gathered from the block's span, copied to 8-byte strides
            mag = np.ascontiguousarray(mags[first:last])[at]
            err = np.ascontiguousarray(mag_errors[first:last])[at]
            id_of = None if record_ids is None else lambda k: record_ids[pick[k]]
            refuse([rule_check("calmag", mag)], lo, id_of)
            quanta[part] = np.rint(mag * QUANTA_PER_MAG)
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
                    camera_id=self.camera_id,
                )
                for j, c in zip(np.flatnonzero(hit), combined[hit])
            ]

        alerts = [a for part in row_blocks(len(slots), block) for a in part]
        return alerts, slots, quanta

    def absorb(self, slots, quanta):
        """Add one judged frame's points to the windows; returns its undo record.

        One stable sort by slot ranks each star's points in row order; the
        sorted points are then absorbed in row blocks on every core
        (``core.row_blocks``), each block's ends moved back to the first point
        of their star, so that no two blocks share a star.  The record is the
        list of the blocks' ``_absorb_sorted`` records; ``restore`` takes it.
        """
        slots = np.asarray(slots, dtype=np.int64)
        order = np.argsort(slots, kind="stable")
        slots, quanta = slots[order], np.asarray(quanta)[order]

        def block(lo, hi):
            lo, hi = (np.searchsorted(slots, slots[k]) if 0 < k < len(slots) else k
                      for k in (lo, hi))  # the first point of the star at each end
            return self._absorb_sorted(slots[lo:hi], quanta[lo:hi])

        return row_blocks(len(slots), block)

    def _absorb_sorted(self, slots, quanta) -> tuple:
        """Absorb points sorted by slot, each star's in row order.

        The ring ends as pushing the points one at a time would leave it: a
        star's last ``window`` points are written in one scatter to the cells
        after its head, and the head moves past all of its points.  Its sums
        gain the quanta that enter less those that leave.  Returns what was
        overwritten: the stars' slots, heads, counts and sums, and the ring
        cells written with their old quanta.
        """
        w, n = self.config.window, self.n_stars
        stars, points, place = slots, 1, 0
        spread = add_up = lambda per: per  # one point per star: nothing to spread or add
        if np.any(slots[1:] == slots[:-1]):
            starts = np.flatnonzero(np.diff(slots, prepend=-1))
            stars, points = slots[starts], np.diff(starts, append=len(slots))
            kept = np.minimum(points, w)
            rank = np.arange(len(slots)) - np.repeat(starts, points)  # among the star's points
            keep = rank >= np.repeat(points - w, points)
            place, quanta, slots = rank[keep] % w, quanta[keep], slots[keep]
            group = np.cumsum(kept) - kept
            spread = lambda per_star: np.repeat(per_star, kept)
            add_up = lambda per_point: np.add.reduceat(per_point, group)
        head, count = self._head[stars], self._count[stars]
        total, sumsq = self._sum[stars], self._sumsq[stars]
        cell = spread(head) + place
        cell[cell >= w] -= w
        at = cell * n + slots
        ring = self._ring.reshape(-1)
        old = ring[at]
        enter = quanta.astype(np.int64)
        # the cells past a star's free ones hold its oldest points, which leave
        leave = np.where(place >= spread(w - count), old, 0)
        change = enter - leave
        self._sum[stars] = total + add_up(change)
        self._sumsq[stars] = sumsq + add_up(change * (enter + leave))  # enter² − leave²
        ring[at] = quanta
        self._head[stars] = (head + points) % w
        self._count[stars] = np.minimum(count + points, w)
        return stars, head, count, total, sumsq, at, old

    def restore(self, undo) -> None:
        """Put back, bit for bit, what the ``absorb`` that returned ``undo`` changed."""
        ring = self._ring.reshape(-1)
        for stars, head, count, total, sumsq, at, old in undo:
            ring[at] = old
            self._head[stars], self._count[stars] = head, count
            self._sum[stars], self._sumsq[stars] = total, sumsq

    def update(self, epoch, star_ids, mags, mag_errors, record_ids=None, rows=None):
        """Judge one frame's matched points, then absorb them; returns its alerts.

        ``rows`` picks the points by row position, as in ``judge``.
        """
        alerts, slots, quanta = self.judge(epoch, star_ids, mags, mag_errors, record_ids, rows)
        self.absorb(slots, quanta)
        return alerts

    def update_from_match(self, frame, matches):
        """Judge and absorb a frame's matched rows, read in place; returns
        ``(alerts, undo)``, the undo record as ``absorb`` returns it."""
        rec, rows = frame.records, matches.matched_rows
        alerts, slots, quanta = self.judge(
            frame.epoch, matches.star_ids[rows], rec["calmag"], rec["mag_error"],
            record_ids=rec["id"], rows=rows,
        )
        return alerts, self.absorb(slots, quanta)


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
    order extends it and the rest open new tracks.  Like a ``WindowBank``, a
    tracker serves one camera, ``camera_id``, and stamps it on every alert.
    """

    _TRACK_DTYPE = np.dtype(
        [
            ("id", "<i8"), ("ra", "<f8"), ("dec", "<f8"),
            ("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
            ("count", "<i8"), ("alerted", "?"), ("first_id", "<u8"),
        ]
    )

    def __init__(self, config: EngineConfig, mining: MiningConfig, camera_id: int = 0):
        self.config = config
        self.mining = mining
        self.camera_id = camera_id
        self._tracks = np.zeros(0, dtype=self._TRACK_DTYPE)
        self._last_epoch = -np.inf
        self._previous = (self._tracks, self._last_epoch)  # for ``restore``

    @property
    def open_tracks(self) -> int:
        return len(self._tracks)

    def update(self, epoch, unmatched_records):
        """Feed one frame's unmatched detections; returns new-source alerts.

        The previous track array is left as it was, for ``restore``.  A bad
        ``ra``, ``dec`` or ``calmag`` raises ``DomainError`` naming its row
        and id (``core.refuse``), before anything changes.
        """
        epoch = float(epoch)
        rec = unmatched_records
        refuse([rule_check(f, rec[f]) for f in ("ra", "dec", "calmag")], 0, rec["id"].__getitem__)
        tracks = self._tracks
        self._previous = (tracks, self._last_epoch)
        if epoch - self._last_epoch > 1.5 * self.config.cadence_s:
            # consecutive chain broken for every open track
            tracks = tracks[:0]
        self._last_epoch = epoch
        claimed = claimed_rows = np.zeros(0, dtype=np.int64)
        if len(rec) and len(tracks):  # a track's id is its position
            radius = self.config.match_radius_deg
            index = build_zone_index(tracks, self.config.zone_height_deg, radius)
            links = range_join(rec, index, radius)
            linked = links.matched_rows
            claimed, first = np.unique(links.star_ids[linked], return_index=True)
            claimed_rows = linked[first]
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
                camera_id=self.camera_id,
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


def lomb_scargle(epochs: np.ndarray, mags: np.ndarray, freqs: np.ndarray) -> np.ndarray:
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
    for start in range(0, len(freqs), PERIODOGRAM_CHUNK):
        w = 2.0 * np.pi * freqs[start : start + PERIODOGRAM_CHUNK, None]  # (c, 1)
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
        power[start : start + PERIODOGRAM_CHUNK] = 0.5 / var * (yc * yc / cc + ys * ys / ss)
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


def period_search(epochs, mags, config: MiningConfig | None = None) -> PeriodResult:
    """Best-period scan of one light curve.

    Scans ``default_freq_grid``, then refines the winning peak on a 20x finer
    local grid so the reported period is not quantized to the scan spacing.
    The result's ``scan`` is the scanned grid and its powers.
    """
    if config is None:
        config = MiningConfig()
    t = np.asarray(epochs, dtype=np.float64)
    y = np.asarray(mags, dtype=np.float64)
    if len(t) < config.min_points:
        raise InsufficientDataError(
            f"period search needs >= {config.min_points} points, got {len(t)}"
        )
    freqs = default_freq_grid(t, config.oversample)
    power = lomb_scargle(t, y, freqs)
    best = int(np.argmax(power))
    best_freq = float(freqs[best])
    best_power = float(power[best])
    if len(freqs) > 1:
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
