"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the engine's code paths: separations use
the haversine formula (not the chord), matching is an O(n*m) scan, and the
window statistics use the statistics module rather than numpy.  Expected
values asserted in the tests come from these, so a shared bug in the package
cannot silently validate itself.  The three exceptions are ``online_update``,
a scalar, one-star-at-a-time copy of the detector arithmetic that the
vectorized ``WindowBank`` must match bit for bit; ``DenseTracker``, a
dense-distance-table, row-at-a-time copy of the new-source rules that the
zone-joined ``CandidateTracker`` must match alert for alert;
``column_store_records``, a column-by-column build of store rows that the
byte-block copy in ``frame_to_store_records`` must match byte for byte; and
``concatenate_and_sort_merge``, the nightly merge as one in-memory sort, which
the streamed ``NightStore.nightly_merge`` must match byte for byte;
``SourceRecord.validate``, a one-row-at-a-time check of the row invariants,
which the masks of ``check_records`` must match row for row;
``push_in_unique_passes``, the window bank's earlier ``np.unique`` absorb,
and ``baseline_stats_in_masked_gathers``, its variance through masked
gathers, which the current ones must match bit for bit;
``IntegerWindows``, one Python-int deque of quanta per star, which the
window bank's rings, sums and alerts must match exactly;
``brute_force_chord_match``, the join's own chord rule over every pair, which
pins the join's zone and RA pruning at pairs that sit on the radius;
``range_join_with_two_bisections``, the zone join as it was, with a lookup
per zone its band reaches, two bisections per window and ``x/y/z`` copied
out of the rows, over ``zone_index_with_one_entry_per_row``, the index as it
was, whose ``MatchResult`` the current ``range_join`` must match byte for
byte; ``zone_index_by_lexsort``, ``sort_by_lexsort`` and
``lexsort_zone_ra_order``, the zone index, the frame sort and the template's
draw order as one ``np.lexsort`` each, whose bytes the current ones must
match; and
``angular_separation``, the chord-length separation of two directions, which
the tests pin against ``haversine_deg``.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from tdcat import crossmatch
from tdcat.core import (
    PIXELS_PER_AXIS,
    RECORD_DTYPE,
    TABLE2_COLUMNS,
    DomainError,
    SequenceError,
    mag_to_flux,
    radec_to_cartesian,
    row_blocks,
    separation_to_chord,
    zone_of,
)
from tdcat.crossmatch import MatchResult
from tdcat.mining import (
    BRIGHTENING, DIMMING, NEW_SOURCE, QUANTA_PER_MAG, Alert, MiningConfig,
)
from tdcat.store import STORE_DTYPE, UNMATCHED_STAR_ID


def haversine_deg(ra1, dec1, ra2, dec2) -> float:
    """Great-circle separation in degrees via the haversine formula."""
    p1, p2 = math.radians(dec1), math.radians(dec2)
    dphi = p2 - p1
    dlam = math.radians(ra2 - ra1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2.0) ** 2
    return math.degrees(2.0 * math.asin(min(1.0, math.sqrt(a))))


def brute_force_match(frame_ra, frame_dec, tpl_ids, tpl_ra, tpl_dec, radius_deg):
    """Nearest in-radius template star per frame row; ties -> smaller id.

    Returns a list the length of the frame: (star_id, separation_deg) for
    matched rows, None for unmatched.  Pure python loops on purpose.
    """
    out = []
    m = len(tpl_ids)
    for i in range(len(frame_ra)):
        best = None
        for j in range(m):
            sep = haversine_deg(frame_ra[i], frame_dec[i], tpl_ra[j], tpl_dec[j])
            if sep > radius_deg:
                continue
            if (
                best is None
                or sep < best[1]
                or (sep == best[1] and tpl_ids[j] < best[0])
            ):
                best = (int(tpl_ids[j]), sep)
        out.append(best)
    return out


def brute_force_match_arrays(frame_ra, frame_dec, tpl_ids, tpl_ra, tpl_dec, radius_deg):
    """Vectorized O(n*m) haversine matcher for larger oracle instances.

    Same contract as :func:`brute_force_match` (nearest in radius, ties to
    the smaller id) but runs the full pairwise separation matrix in numpy so
    thousand-row instances stay fast.  Still entirely independent of the
    engine: no zones, no chord distances, no sorted-key lookups.
    """
    n, m = len(frame_ra), len(tpl_ids)
    if n == 0 or m == 0:
        return [None] * n
    sep = haversine_matrix_deg(frame_ra, frame_dec, tpl_ra, tpl_dec)
    ids = np.asarray(tpl_ids)
    out = []
    for i in range(n):
        row = sep[i]
        j = np.lexsort((ids, row))[0]  # nearest first, then smallest id
        if row[j] <= radius_deg:
            out.append((int(ids[j]), float(row[j])))
        else:
            out.append(None)
    return out


def haversine_matrix_deg(frame_ra, frame_dec, tpl_ra, tpl_dec) -> np.ndarray:
    """(n, m) great-circle separations in degrees, haversine formula."""
    lat1 = np.radians(np.asarray(frame_dec, float))[:, None]
    lat2 = np.radians(np.asarray(tpl_dec, float))[None, :]
    dlam = np.radians(np.asarray(tpl_ra, float))[None, :] - np.radians(
        np.asarray(frame_ra, float)
    )[:, None]
    a = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin(dlam / 2.0) ** 2
    )
    return np.degrees(2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0))))


def brute_force_chord_match(frame_xyz, tpl_ids, tpl_xyz, radius_deg):
    """Nearest star per frame row by ``range_join``'s own chord rule, over every pair.

    No zones, no RA windows and no sorted keys: every (row, star) pair is
    measured with the chord arithmetic the join uses, so a comparison pins
    exactly which candidates the join's pruning may skip, down to pairs whose
    separation rounds onto the radius, where the haversine oracles and the
    chord may disagree.  Returns ``(star_ids, separations_deg,
    n_candidates)`` per row, star id -1 for an unmatched row.
    """
    n, m = len(frame_xyz), len(tpl_ids)
    diff = (frame_xyz[:, None, :] - tpl_xyz[None, :, :]).reshape(n * m, 3)
    chord2 = np.einsum("ij,ij->i", diff, diff).reshape(n, m)
    max_chord = separation_to_chord(radius_deg)
    inside = chord2 <= max_chord * max_chord
    ids = np.asarray(tpl_ids, np.int64)
    star = np.full(n, -1, np.int64)
    best_chord2 = np.full(n, np.nan)
    for i in np.flatnonzero(inside.any(axis=1)):
        j = np.flatnonzero(inside[i])
        best = j[np.lexsort((ids[j], chord2[i, j]))[0]]
        star[i], best_chord2[i] = ids[best], chord2[i, best]
    sep = np.degrees(2.0 * np.arcsin(np.minimum(1.0, np.sqrt(best_chord2) / 2.0)))
    return star, sep, inside.sum(axis=1)


def range_join_with_two_bisections(frame, template_index, radius_deg) -> MatchResult:
    """``crossmatch.range_join`` as it was: each window bisected twice, ``x/y/z``
    copied out of the rows, and ``ra``/``dec`` copied whole before the blocks.

    It runs in ``core.row_blocks`` and halves a block past
    ``crossmatch._PAIR_BUDGET`` pairs, read at call time, so a test that
    patches either blocks both joins alike; each block returns its rows'
    star ids, separations and ambiguous count, and the blocks' are laid end
    to end.
    """
    records = frame.records if hasattr(frame, "records") else frame
    n = len(records)
    ra = np.ascontiguousarray(records["ra"], dtype=np.float64)
    dec = np.ascontiguousarray(records["dec"], dtype=np.float64)
    if n and not (dec.min() >= -90.0 and dec.max() <= 90.0):
        i = int(np.argmin((dec >= -90.0) & (dec <= 90.0)))
        raise DomainError(f"row {i}: dec {float(dec[i])!r} is not in [-90, 90]")

    def block(lo, hi):
        return _join_rows_with_two_bisections(records, ra, dec, lo, hi, template_index, radius_deg)

    return MatchResult(records["id"], *_laid_end_to_end(row_blocks(n, block)))


def _laid_end_to_end(parts) -> tuple:
    """The (star ids, separations, ambiguous count) of consecutive row ranges as one."""
    star_ids, seps, ambiguous = zip(*parts)
    return np.concatenate(star_ids), np.concatenate(seps), sum(ambiguous)


def _join_rows_with_two_bisections(records, ra_all, dec_all, lo, hi, template_index, radius_deg):
    n = hi - lo
    ra, dec = ra_all[lo:hi], dec_all[lo:hi]
    h = template_index.zone_height_deg
    reach = radius_deg + crossmatch._WINDOW_PAD_DEG
    edges = zone_of(np.clip(np.add.outer(dec, (-reach, reach)), -90.0, 90.0), h)
    band_lo, band_span = edges[:, 0], edges[:, 1] - edges[:, 0]

    halfw = crossmatch._ra_halfwidth_deg(dec, radius_deg)
    w_lo, w_hi = ra - halfw, ra + halfw
    edge = wrap = np.flatnonzero(~((w_lo >= 0.0) & (w_hi <= 360.0)))
    if len(edge):
        bad = edge[~((ra[edge] >= 0.0) & (ra[edge] < 360.0))]
        if len(bad):
            i = bad[0]
            raise DomainError(f"row {lo + i}: ra {float(ra[i])!r} is not in [0, 360)")
        full = halfw[edge] >= 180.0
        w_lo[edge[full]], w_hi[edge[full]] = 0.0, 360.0
        wrap = edge[~full]
    turn = np.where(w_lo[wrap] < 0.0, 360.0, -360.0)
    q_rec = np.concatenate([np.arange(n), wrap])
    q_lo = np.clip(np.concatenate([w_lo, w_lo[wrap] + turn]), 0.0, 360.0)
    q_hi = np.clip(np.concatenate([w_hi, w_hi[wrap] + turn]), 0.0, 360.0)
    q_zone, q_span = band_lo[q_rec], band_span[q_rec]

    key = template_index.key
    hit_rec, hit_start, hit_len = [], [], []
    for k in range(int(band_span.max(initial=0)) + 1):
        sel = np.flatnonzero(q_span >= k) if k else slice(None)
        base = (q_zone[sel] + k) * 361.0
        start = np.searchsorted(key, base + q_lo[sel], side="left")
        length = np.searchsorted(key, base + q_hi[sel], side="right") - start
        hit = np.flatnonzero(length)
        hit_rec.append(q_rec[sel][hit])
        hit_start.append(start[hit])
        hit_len.append(length[hit])
    start = np.concatenate(hit_start)
    length = np.concatenate(hit_len)
    if n > 1 and length.sum() > crossmatch._PAIR_BUDGET:
        mid = lo + n // 2
        return _laid_end_to_end(
            [_join_rows_with_two_bisections(records, ra_all, dec_all, a, b, template_index,
                                            radius_deg)
             for a, b in ((lo, mid), (mid, hi))]
        )
    cand_rec = np.repeat(np.concatenate(hit_rec), length)
    cand_tpl = np.arange(len(cand_rec)) + np.repeat(
        start - (np.cumsum(length) - length), length
    )

    if "x" in records.dtype.names:
        fxyz = np.column_stack(
            [records["x"][lo:hi], records["y"][lo:hi], records["z"][lo:hi]]
        )
    else:
        fxyz = np.column_stack(radec_to_cartesian(ra, dec))
    diff = fxyz[cand_rec] - template_index.xyz[cand_tpl]
    chord2 = np.einsum("ij,ij->i", diff, diff)
    max_chord = separation_to_chord(radius_deg)
    in_radius = chord2 <= max_chord * max_chord
    cand_rec = cand_rec[in_radius]
    cand_tpl = cand_tpl[in_radius]
    chord2 = chord2[in_radius]

    per_rec = np.bincount(cand_rec, minlength=n)
    ambiguous_count = int(np.count_nonzero(per_rec > 1))
    single = per_rec[cand_rec] == 1
    best = np.full(n, -1, np.int64)
    best[cand_rec[single]] = np.flatnonzero(single)
    multi = np.flatnonzero(~single)
    star = template_index.ids[cand_tpl[multi]]
    order = multi[np.lexsort((star, chord2[multi], cand_rec[multi]))]
    first = order[np.unique(cand_rec[order], return_index=True)[1]]
    best[cand_rec[first]] = first
    matched = np.flatnonzero(best >= 0)
    chosen = best[matched]
    sep = np.full(n, np.nan)
    sep[matched] = np.degrees(
        2.0 * np.arcsin(np.minimum(1.0, np.sqrt(chord2[chosen]) / 2.0))
    )
    star_ids = np.full(n, UNMATCHED_STAR_ID, np.int64)
    star_ids[matched] = template_index.ids[cand_tpl[chosen]]
    return star_ids, sep, ambiguous_count


def lexsort_zone_ra_order(zone, ra) -> np.ndarray:
    """The (zone, ra) order of rows as one ``np.lexsort``, ties in row order."""
    return np.lexsort((ra, zone))


def sort_by_lexsort(records) -> np.ndarray:
    """``core.sort_by_zone_ra`` as it was: one lexsort, rows copied field by field."""
    return records[np.lexsort((records["ra"], records["zone"]))]


def zone_index_by_lexsort(records, zone_height_deg, reach_deg) -> crossmatch.ZoneIndex:
    """``crossmatch.build_zone_index`` as one lexsort of every (row, strip) entry.

    Each row is entered in every strip from ``zone_of(dec - reach - pad)`` to
    ``zone_of(dec + reach + pad)`` at the index's strip height, each entry
    found by a Python loop over the rows; the entries are sorted by key
    ``strip * 361 + ra``, then by the row's own zone, its ra and its position.
    """
    band = reach_deg + crossmatch._WINDOW_PAD_DEG
    h = max(zone_height_deg, band + crossmatch._WINDOW_PAD_DEG)
    dec = [float(d) for d in records["dec"]]
    entries = [
        (row, strip)
        for row, d in enumerate(dec)
        for strip in range(zone_of(max(d - band, -90.0), h), zone_of(min(d + band, 90.0), h) + 1)
    ]
    row = np.array([e[0] for e in entries], np.int64)
    strip = np.array([e[1] for e in entries], np.int64)
    ra = np.ascontiguousarray(records["ra"], dtype=np.float64)[row]
    key = strip * 361.0 + ra
    order = np.lexsort((row, ra, zone_of(records["dec"], h)[row], key))
    row, key = row[order], key[order]
    return crossmatch.ZoneIndex(
        zone_height_deg=h,
        reach_deg=reach_deg,
        ids=np.take(records["id"], row).astype(np.int64, copy=False),
        xyz=np.take(np.ascontiguousarray(crossmatch.xyz_of(records)), row, axis=0),
        key=np.append(key, np.inf),
    )


def zone_index_with_one_entry_per_row(records, zone_height_deg) -> crossmatch.ZoneIndex:
    """``crossmatch.build_zone_index`` as it was before rows were entered in
    every strip their reach touches: one entry per row, in its own zone, by
    one lexsort.  Its ``reach_deg`` is 0, so only
    ``range_join_with_two_bisections`` joins against it.
    """
    ra = np.ascontiguousarray(records["ra"], dtype=np.float64)
    zone = zone_of(records["dec"], zone_height_deg)
    order = np.lexsort((ra, zone))
    return crossmatch.ZoneIndex(
        zone_height_deg=zone_height_deg,
        reach_deg=0.0,
        ids=np.take(records["id"], order).astype(np.int64, copy=False),
        xyz=np.take(crossmatch.xyz_of(records), order, axis=0),
        key=np.append(zone[order] * 361.0 + ra[order], np.inf),
    )


def brute_force_candidate_counts(frame_ra, frame_dec, tpl_ra, tpl_dec, radius_deg):
    """Number of template stars within ``radius_deg`` of each frame row."""
    if len(frame_ra) == 0 or len(tpl_ra) == 0:
        return np.zeros(len(frame_ra), np.int64)
    sep = haversine_matrix_deg(frame_ra, frame_dec, tpl_ra, tpl_dec)
    return np.count_nonzero(sep <= radius_deg, axis=1)


def column_store_records(frame, matches) -> np.ndarray:
    """Store rows built one catalog column at a time into zeroed memory."""
    records = frame.records
    out = np.zeros(len(records), dtype=STORE_DTYPE)
    for name in TABLE2_COLUMNS:
        out[name] = records[name]
    out["star_id"] = UNMATCHED_STAR_ID
    out["star_id"][matches.matched_rows] = matches.star_ids[matches.matched_rows]
    out["candidate"] = 1
    out["candidate"][matches.matched_rows] = 0
    out["epoch"] = frame.epoch
    return out


def concatenate_and_sort_merge(layers) -> np.ndarray:
    """A merged base run's rows: every layer concatenated, then one lexsort.

    ``layers`` are the old base's rows and the delta segments' rows, in read
    order; the result is sorted by (star_id, epoch, id).
    """
    rows = np.concatenate(layers) if layers else np.zeros(0, STORE_DTYPE)
    return rows[np.lexsort((rows["id"], rows["epoch"], rows["star_id"]))]


class PureWindow:
    """Scalar sliding-window detector mirror built on the statistics module."""

    def __init__(self, window, min_window, k_sigma):
        self.window = window
        self.min_window = min_window
        self.k_sigma = k_sigma
        self.values = []

    def step(self, mag, mag_error):
        """Returns (kind or None, baseline_mean or None) then absorbs mag."""
        result = (None, None)
        if len(self.values) >= self.min_window:
            mean = statistics.fmean(self.values)
            var = statistics.variance(self.values)
            combined = math.sqrt(var + mag_error * mag_error)
            if abs(mag - mean) > self.k_sigma * combined:
                result = ("dimming" if mag > mean else "brightening", mean)
        self.values.append(mag)
        if len(self.values) > self.window:
            self.values.pop(0)
        return result


@dataclass
class WindowState:
    """Reference per-star window; the vectorized bank must match it exactly."""

    baseline: deque = field(default_factory=deque)


def online_update(state: WindowState, epoch, mag, mag_error, config: MiningConfig):
    """Evaluate one point against the baseline, then absorb it.

    Returns the alert (or None).  The baseline never contains the point being
    evaluated.
    """
    alert = None
    n = len(state.baseline)
    if n >= config.min_window:
        arr = np.asarray(state.baseline, dtype=np.float64)
        mean = float(arr.mean())
        var = float(arr.var(ddof=1))
        dev = mag - mean
        combined = math.sqrt(var + mag_error * mag_error)
        if abs(dev) > config.k_sigma * combined:
            alert = Alert(
                kind=DIMMING if dev > 0 else BRIGHTENING,
                epoch=float(epoch),
                mag=float(mag),
                baseline_mag=mean,
                deviation_sigma=abs(dev) / combined if combined > 0 else math.inf,
            )
    state.baseline.append(float(mag))
    if len(state.baseline) > config.window:
        state.baseline.popleft()
    return alert


def baseline_stats_in_masked_gathers(bank, slots):
    """``WindowBank.baseline_stats`` with the variance computed only for the
    baselines of two or more points, through boolean-mask gathers."""
    n, total, sumsq = bank._count[slots], bank._sum[slots], bank._sumsq[slots]
    mean = total / (np.maximum(n, 1) * QUANTA_PER_MAG)
    var = np.zeros(len(slots))
    two = n >= 2
    var[two] = (n[two] * sumsq[two] - total[two] ** 2) / (n[two] * (n[two] - 1) * QUANTA_PER_MAG**2)
    return n, mean, var


def push_in_unique_passes(bank, slots, quanta) -> None:
    """``WindowBank.absorb`` in one pass per multiplicity, as the bank once
    pushed: each pass takes every star's first remaining point through
    ``np.unique``, which sorts the slots.

    The current ``absorb`` must leave the rings, heads, counts and sums bit
    for bit the same.  The ring is read star-major, through ``bank._ring.T``.
    """
    ring = bank._ring.T
    quanta = np.asarray(quanta, dtype=np.int64)
    while len(slots):
        _, first = np.unique(slots, return_index=True)
        sel_slots = slots[first]
        sel_quanta = quanta[first]
        full = bank._count[sel_slots] == bank.config.window
        if np.any(full):
            fs = sel_slots[full]
            old = ring[fs, bank._head[fs]].astype(np.int64)
            bank._sum[fs] -= old
            bank._sumsq[fs] -= old * old
            bank._count[fs] -= 1
        ring[sel_slots, bank._head[sel_slots]] = sel_quanta
        bank._head[sel_slots] = (bank._head[sel_slots] + 1) % bank.config.window
        bank._count[sel_slots] += 1
        bank._sum[sel_slots] += sel_quanta
        bank._sumsq[sel_slots] += sel_quanta * sel_quanta
        rest = np.ones(len(slots), dtype=bool)
        rest[first] = False
        slots, quanta = slots[rest], quanta[rest]


class IntegerWindows:
    """Reference window bank: a deque of Python-int quanta per star.

    A point is ``round(mag * QUANTA_PER_MAG)``, appended one at a time in row
    order to its star's deque of ``window`` points.  A frame is judged first,
    every point against its star's pre-frame window, with the bank's formulas
    over Python-int sums; an unknown star id raises ``DomainError`` before
    anything changes.
    """

    def __init__(self, star_ids, config: MiningConfig):
        self.config = config
        self.windows = {int(s): deque(maxlen=config.window) for s in star_ids}

    def baseline(self, star_id):
        """(count, mean, sample variance) of one star's window, in mag."""
        q = self.windows[star_id]
        n, total, sumsq = len(q), sum(q), sum(x * x for x in q)
        mean = float(total) / float(max(n, 1) * QUANTA_PER_MAG)
        var = float(n * sumsq - total * total) / float(max(n * (n - 1), 1) * QUANTA_PER_MAG**2)
        return n, mean, var

    def update(self, epoch, star_ids, mags, mag_errors):
        """Judge the frame, then absorb it; returns ``(star_id, kind, mean, sigma)``
        for each alert, in row order."""
        star_ids = [int(s) for s in star_ids]
        unknown = sorted(set(star_ids) - self.windows.keys())
        if unknown:
            raise DomainError(f"unknown star ids: {unknown}")
        alerts = []
        for s, mag, err in zip(star_ids, mags, mag_errors):
            n, mean, var = self.baseline(s)
            dev, combined = mag - mean, math.sqrt(var + err * err)
            if n >= self.config.min_window and abs(dev) > self.config.k_sigma * combined:
                kind = DIMMING if dev > 0 else BRIGHTENING
                alerts.append((s, kind, mean, abs(dev) / combined if combined > 0 else math.inf))
        for s, mag in zip(star_ids, mags):
            self.windows[s].append(round(mag * QUANTA_PER_MAG))
        return alerts


class DenseTracker:
    """Reference new-source tracker: an (m, k) chord table and a row loop.

    Each detection, in row order, extends its nearest in-radius open track
    (ties to the lower track index) unless an earlier row already extended
    it; otherwise it opens a track.  Unextended tracks close.  The squared
    chord is summed with the same ``einsum`` as ``range_join`` so exact ties
    break identically.  Quadratic in memory: small inputs only.
    """

    def __init__(
        self, match_radius_deg: float, cadence_s: float, config: MiningConfig, camera_id=0
    ):
        self.radius_deg = match_radius_deg
        self.cadence_s = cadence_s
        self.config = config
        self.camera_id = camera_id
        self._xyz = np.zeros((0, 3))
        self._ra = np.zeros(0)
        self._dec = np.zeros(0)
        self._count = np.zeros(0, dtype=np.int64)
        self._alerted = np.zeros(0, dtype=bool)
        self._first_id = np.zeros(0, dtype=np.uint64)
        self._last_epoch = -np.inf
        self._chord_max_sq = separation_to_chord(match_radius_deg) ** 2

    @property
    def open_tracks(self) -> int:
        return len(self._count)

    def update(self, epoch, unmatched_records):
        epoch = float(epoch)
        rec = unmatched_records
        m = len(rec)
        stale = epoch - self._last_epoch > 1.5 * self.cadence_s
        if stale:
            # consecutive chain broken for every open track
            self._drop(np.ones(self.open_tracks, dtype=bool))
        alerts = []
        if m == 0:
            self._drop(np.ones(self.open_tracks, dtype=bool))
            self._last_epoch = epoch
            return alerts
        det_xyz = np.stack([rec["x"], rec["y"], rec["z"]], axis=1)
        k = self.open_tracks
        if k:
            d = det_xyz[:, None, :] - self._xyz[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", d, d)
            nearest = np.argmin(d2, axis=1)
            ok = d2[np.arange(m), nearest] <= self._chord_max_sq
        else:
            nearest = np.zeros(m, dtype=np.int64)
            ok = np.zeros(m, dtype=bool)
        extended = np.zeros(k, dtype=bool)
        new_rows = []
        for i in range(m):
            t = nearest[i]
            if ok[i] and not extended[t]:
                extended[t] = True
                self._xyz[t] = det_xyz[i]
                self._ra[t] = rec["ra"][i]
                self._dec[t] = rec["dec"][i]
                self._count[t] += 1
                if self._count[t] >= self.config.persistence and not self._alerted[t]:
                    self._alerted[t] = True
                    alerts.append(
                        Alert(
                            kind=NEW_SOURCE,
                            epoch=epoch,
                            record_id=int(self._first_id[t]),
                            mag=float(rec["calmag"][i]),
                            ra=float(rec["ra"][i]),
                            dec=float(rec["dec"][i]),
                            n_frames=int(self._count[t]),
                            camera_id=self.camera_id,
                        )
                    )
            else:
                new_rows.append(i)
        self._drop(~extended)
        if new_rows:
            idx = np.asarray(new_rows)
            self._xyz = np.concatenate([self._xyz, det_xyz[idx]])
            self._ra = np.concatenate([self._ra, rec["ra"][idx]])
            self._dec = np.concatenate([self._dec, rec["dec"][idx]])
            self._count = np.concatenate(
                [self._count, np.ones(len(idx), dtype=np.int64)]
            )
            self._alerted = np.concatenate(
                [self._alerted, np.zeros(len(idx), dtype=bool)]
            )
            self._first_id = np.concatenate(
                [self._first_id, rec["id"][idx].astype(np.uint64)]
            )
            if self.config.persistence == 1:
                for j, i in enumerate(idx):
                    t = len(self._alerted) - len(idx) + j
                    self._alerted[t] = True
                    alerts.append(
                        Alert(
                            kind=NEW_SOURCE, epoch=epoch,
                            record_id=int(rec["id"][i]),
                            mag=float(rec["calmag"][i]),
                            ra=float(rec["ra"][i]), dec=float(rec["dec"][i]),
                            n_frames=1, camera_id=self.camera_id,
                        )
                    )
        self._last_epoch = epoch
        return alerts

    def _drop(self, mask: np.ndarray):
        if not len(mask) or not np.any(mask):
            return
        keep = ~mask
        self._xyz = self._xyz[keep]
        self._ra = self._ra[keep]
        self._dec = self._dec[keep]
        self._count = self._count[keep]
        self._alerted = self._alerted[keep]
        self._first_id = self._first_id[keep]


def flux_of(mag, zero_point) -> float:
    return 10.0 ** (-0.4 * (mag - zero_point))


def zone_by_fraction(dec: float, height_num: int, height_den: int) -> int:
    """Exact-rational zone id for h = height_num / height_den degrees.

    Exactness sidesteps every binary-float boundary artifact, which is the
    point: the engine must land boundary declinations in the strip the
    decimal arithmetic says they belong to.
    """
    from fractions import Fraction

    h = Fraction(height_num, height_den)
    q = (Fraction(dec).limit_denominator(10**12) + 90) / h
    z = math.floor(q)
    n = math.ceil(Fraction(180) / h)
    return min(max(z, 0), n - 1)


@dataclass(frozen=True)
class SourceRecord:
    """One extracted star measurement; the full catalog row."""

    id: int
    imageid: int
    zone: int
    ra: float
    dec: float
    mag: float
    mag_error: float
    pixel_x: float
    pixel_y: float
    ra_err: float
    dec_err: float
    x: float
    y: float
    z: float
    flux: float
    flux_err: float
    calmag: float
    flag: int
    background: float
    threshold: float
    ellipticity: float
    class_star: float

    @classmethod
    def from_row(cls, row) -> "SourceRecord":
        return cls(**{name: row[name].item() for name in TABLE2_COLUMNS})

    def to_row(self) -> np.ndarray:
        out = np.zeros(1, dtype=RECORD_DTYPE)
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out[0]

    def validate(self, zone_height_deg: float, mag_zero_point: float) -> None:
        """Raise DomainError if any record invariant is violated.

        Every test reads ``not (<in range>)``, so a NaN fails each one.
        """
        problems = []
        if not (0.0 <= self.ra < 360.0):
            problems.append(f"ra={self.ra} outside [0, 360)")
        dec_ok = -90.0 <= self.dec <= 90.0
        if not dec_ok:
            problems.append(f"dec={self.dec} outside [-90, 90]")
        norm2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not (abs(norm2 - 1.0) <= 1e-9):
            problems.append(f"|xyz|^2={norm2} deviates from 1")
        if not (dec_ok and self.zone == zone_of(self.dec, zone_height_deg)):
            problems.append(f"zone={self.zone} != zone_of({self.dec}, {zone_height_deg})")
        expected_flux = float(mag_to_flux(self.mag, mag_zero_point))
        if not (abs(self.flux - expected_flux) <= 1e-9 * max(abs(expected_flux), 1e-300)):
            problems.append(f"flux={self.flux} inconsistent with mag={self.mag}")
        for name in ("pixel_x", "pixel_y"):
            v = getattr(self, name)
            if not (0.0 <= v < PIXELS_PER_AXIS):
                problems.append(f"{name}={v} outside [0, {PIXELS_PER_AXIS})")
        for name in ("mag_error", "ra_err", "dec_err"):
            v = getattr(self, name)
            if not (v >= 0.0):
                problems.append(f"{name}={v} negative")
        for name in ("ellipticity", "class_star"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                problems.append(f"{name}={v} outside [0, 1]")
        if not (-100.0 < self.calmag < 100.0):  # the window bank's range
            problems.append(f"calmag={self.calmag} outside (-100, 100)")
        if problems:
            raise DomainError("invalid SourceRecord: " + "; ".join(problems))


def check_frame_batch(frame, config) -> None:
    """Raise DomainError on a frame's batch-level invariant violations."""
    r = frame.records
    if len(r) and not np.all(r["imageid"] == frame.imageid):
        raise DomainError("records carry mixed imageids")
    key = r["zone"].astype(np.float64) * 361.0 + r["ra"]
    if len(r) > 1 and np.any(np.diff(key) < 0):
        raise DomainError("records not sorted by (zone, ra)")
    camera = int(r["id"].max()) >> 56 if len(r) else 0  # the ids' top byte
    if not camera < config.cameras:
        raise DomainError(f"camera {camera} outside [0, {config.cameras})")


def check_time_order(curve) -> None:
    """Raise SequenceError unless a light curve's epochs never decrease."""
    if np.any(np.diff(curve.points["epoch"]) < 0):
        raise SequenceError(f"curve for star {curve.star_id} is not time-ordered")


def time_span(curve) -> float:
    """Seconds from a light curve's first epoch to its last; 0 below two points."""
    if len(curve.points) < 2:
        return 0.0
    return float(curve.points["epoch"][-1] - curve.points["epoch"][0])


def cartesian_to_radec(x, y, z):
    """Inverse of radec_to_cartesian for unit vectors; ra in [0, 360)."""
    ra = np.degrees(np.arctan2(y, x)) % 360.0
    dec = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
    if np.isscalar(x):
        return float(ra), float(dec)
    return ra, dec


def _unit_vector(obj):
    if isinstance(obj, np.void):  # structured-array row
        return np.array([obj["x"], obj["y"], obj["z"]])
    ra, dec = obj
    return np.array(radec_to_cartesian(ra, dec))


def angular_separation(a, b) -> float:
    """Great-circle separation in degrees between two directions.

    Each argument is a structured record row or an (ra, dec) pair in
    degrees.  Computed from the chord length, 2*arcsin(|va - vb| / 2),
    which is well conditioned at small angles.
    """
    va = _unit_vector(a)
    vb = _unit_vector(b)
    chord = np.linalg.norm(va - vb)
    return float(np.degrees(2.0 * np.arcsin(min(1.0, chord / 2.0))))
