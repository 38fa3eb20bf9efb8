"""Zone-partitioned spatial index and the distance-bounded RangeJoin operator.

The sky is cut into horizontal declination strips ("zones") of fixed height.
Each strip keeps, sorted by right ascension, every star whose match radius
reaches into it, so a query source finds its candidates in one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (ConfigError, DomainError, refuse, row_blocks, rule_check,
                   separation_to_chord, zone_of, zone_ra_order)

# Above this absolute declination a 1/cos(dec) RA window degenerates; fall
# back to scanning the full strip.
POLE_CLAMP_DEG = 89.9

# Widens RA windows just past float rounding so a true match sitting exactly
# on a window edge can never be pruned.
_WINDOW_PAD_DEG = 1e-7

# Candidate pairs that one pass of the join expands at once (about 80 B
# each in flight); a row range whose lookups find more is joined in halves.
_PAIR_BUDGET = 1 << 18


@dataclass
class ZoneIndex:
    """Immutable zone-strip index over a set of catalog positions.

    Each row is stored once in every strip its ``reach_deg`` touches, sorted
    by ``key = strip * 361 + ra`` for global binary search; ``key`` ends in one
    ``+inf``, so that a probe just past any window still lands in ``key``.
    """

    zone_height_deg: float
    reach_deg: float
    ids: np.ndarray  # int64, flat
    xyz: np.ndarray  # (n, 3) unit vectors
    key: np.ndarray = field(repr=False)


UNMATCHED_STAR_ID = -1  # the star id of a row with no star in radius


@dataclass
class MatchResult:
    """Outcome of joining one frame against a template index, one entry per row.

    ``ids`` is the frame's own id column, in place; ``star_ids`` holds each
    row's nearest in-radius star, ``UNMATCHED_STAR_ID`` for a transient
    candidate, and ``separations_deg`` its separation, NaN for a candidate.
    """

    ids: np.ndarray
    star_ids: np.ndarray
    separations_deg: np.ndarray
    ambiguous_count: int

    @property
    def n_frame(self) -> int:
        return len(self.ids)

    @cached_property
    def matched_rows(self) -> np.ndarray:
        return np.flatnonzero(self.star_ids >= 0)

    @cached_property
    def unmatched_rows(self) -> np.ndarray:
        return np.flatnonzero(self.star_ids < 0)

    @property
    def n_matched(self) -> int:
        return len(self.matched_rows)

    @property
    def n_unmatched(self) -> int:
        return len(self.unmatched_rows)

    @property
    def unmatched_ids(self) -> np.ndarray:
        return self.ids[self.unmatched_rows]

    def pairs(self):
        """Iterate (frame record id, template star id, separation deg)."""
        rows = self.matched_rows
        for rid, sid, sep in zip(self.ids[rows], self.star_ids[rows], self.separations_deg[rows]):
            yield int(rid), int(sid), float(sep)


def xyz_of(rows) -> np.ndarray:
    """The ``(n, 3)`` read-only view of ``rows``' unit vectors, in place.

    ``rows`` must carry ``x``, ``y`` and ``z`` as adjacent native float64
    fields, as the catalog, store, template and track rows all do; any other
    layout raises DomainError.
    """
    f = rows.dtype.fields or {}
    x_at = f["x"][1] if "x" in f else 0
    if [f.get(c, ())[:2] for c in "xyz"] != [("f8", x_at + d) for d in (0, 8, 16)]:
        raise DomainError("rows must carry x, y and z as adjacent native float64 fields")
    x = rows["x"]
    return np.lib.stride_tricks.as_strided(x, (len(x), 3), (x.strides[0], 8), writeable=False)


def build_zone_index(records, zone_height_deg: float, reach_deg: float) -> ZoneIndex:
    """Index rows by declination strip, each row once in every strip that
    ``[dec - reach - pad, dec + reach + pad]`` touches, so that a join at any
    radius up to ``reach_deg`` finds a row's candidates in the row's own strip.

    Strips are ``zone_height_deg`` tall, or ``reach + 2 pad`` if taller, so a
    row has at most 3 entries, in key order, equal keys in (own zone, ra, row)
    order.  ``records`` carry ``id``, ``ra``, ``dec`` and ``x/y/z`` (``xyz_of``);
    zones come from dec, not a ``zone`` column.  Rows in (zone, ra) order, as
    templates are, take no sort and give three runs in key order, which one
    stable sort merges.
    """
    if not reach_deg > 0:
        raise ConfigError(f"reach_deg must be > 0, got {reach_deg}")
    band = reach_deg + _WINDOW_PAD_DEG
    h = max(zone_height_deg, band + _WINDOW_PAD_DEG)
    xyz = xyz_of(records)
    ra = np.ascontiguousarray(records["ra"], dtype=np.float64)
    dec = np.ascontiguousarray(records["dec"], dtype=np.float64)
    zone = zone_of(dec, h)
    rows = zone_ra_order(zone, ra)
    zone, ra, dec = zone[rows], ra[rows], dec[rows]
    # a band reaches at most one strip past its row's on each side; each
    # temporary goes once used, as page faults bound the build
    up = np.flatnonzero(zone_of(np.minimum(dec + band, 90.0), h) > zone)
    down = np.flatnonzero(zone_of(np.maximum(dec - band, -90.0), h) < zone)
    runs = np.concatenate([up, np.arange(len(rows)), down])
    key = np.concatenate([zone[up] + 1, zone, zone[down] - 1]) * 361.0
    key += ra[runs]
    del zone, ra, dec
    order = np.argsort(key, kind="stable")
    entries, key = rows[runs[order]], np.append(key[order], np.inf)
    del runs, rows, order
    return ZoneIndex(
        zone_height_deg=h,
        reach_deg=reach_deg,
        ids=np.take(records["id"], entries).astype(np.int64, copy=False),
        xyz=np.take(np.ascontiguousarray(xyz), entries, axis=0),  # a strided take is slower
        key=key,
    )


def _ra_halfwidth_deg(dec: np.ndarray, radius_deg: float) -> np.ndarray:
    """Safe RA half-window: no true match within radius can fall outside it.

    From the haversine identity, hav(dra) <= hav(r) / (cos d1 cos d2) and a
    counterpart within r has |dec| <= |dec_query| + r, so dividing by
    cos(|dec| + r) bounds the worst case over both endpoints.  To first order
    this is the familiar radius / cos(dec) window.
    """
    dmax = np.minimum(np.abs(dec) + radius_deg, POLE_CLAMP_DEG)
    s = np.sin(np.radians(radius_deg) / 2.0) / np.cos(np.radians(dmax))
    w = np.degrees(2.0 * np.arcsin(np.minimum(1.0, s))) + _WINDOW_PAD_DEG
    # Full-circle scan once the window stops being a pruning window at all.
    w[np.abs(dec) + radius_deg >= POLE_CLAMP_DEG] = 360.0
    return w


def range_join(records, template_index: ZoneIndex, radius_deg: float) -> MatchResult:
    """Match each frame record to its nearest in-radius template star.

    One lookup per row, in its own strip, which holds every star whose reach
    touches it (``build_zone_index``), inside a declination-inflated RA
    window; a window across the 0/360 seam adds an interval for its wrapped
    part.  Each interval is bisected once; two probes give its length, and
    only one of two or more stars is bisected again for its end.  The nearest
    candidate within ``radius_deg`` wins, exact ties going to the smaller
    star id; rows with none are unmatched transient candidates.  A
    ``radius_deg`` past the index's ``reach_deg`` raises ConfigError.  A row
    whose ``dec`` or ``ra`` breaks its ``core.ROW_RULES`` rule raises
    DomainError (``core.refuse``): the first bad ``dec``, else the first
    bad ``ra``.

    ``records`` carry ``id``, ``ra``, ``dec`` and ``x/y/z`` as adjacent
    native float64 fields (``xyz_of``); any other layout raises DomainError.
    Rows are independent, so they are joined in contiguous blocks on every
    core (``core.row_blocks``), each reading its rows' fields in place and
    writing its rows of the result; a block whose lookups find more than
    ``_PAIR_BUDGET`` candidate pairs is joined in halves.  The result is the
    same bytes for any blocking.
    """
    if not 0 < radius_deg <= 90:
        raise ConfigError(f"radius_deg must be in (0, 90], got {radius_deg}")
    if radius_deg > (reach := template_index.reach_deg):
        raise ConfigError(f"radius_deg {radius_deg} is past the index's reach_deg {reach}")
    xyz = xyz_of(records)
    out = np.empty(len(records), np.int64), np.empty(len(records))  # star ids, separations

    def block(lo, hi):
        return _join_rows(records, xyz, lo, hi, template_index, radius_deg, out)

    return MatchResult(records["id"], *out, ambiguous_count=sum(row_blocks(len(records), block)))


def _join_rows(records, xyz, lo, hi, template_index, radius_deg, out):
    """``range_join`` of rows ``[lo, hi)`` into those rows of ``out`` (star ids,
    separations); returns their ambiguous count.  Errors count rows from row 0."""
    n = hi - lo
    ra = np.ascontiguousarray(records["ra"][lo:hi], dtype=np.float64)
    dec = np.ascontiguousarray(records["dec"][lo:hi], dtype=np.float64)
    base = zone_of(dec, template_index.zone_height_deg, lo) * 361.0  # refuses a bad dec
    halfw = _ra_halfwidth_deg(dec, radius_deg)
    q_lo, q_hi = ra - halfw, ra + halfw
    hit_rec = None  # each interval's row, where seam intervals follow the rows'
    # A window that leaves [0, 360] crosses the seam or scans the full circle,
    # or its ra is itself outside [0, 360) or NaN: only these rows are looked
    # at again.  A seam window adds its wrapped part, the window moved a full
    # turn to the other side; both intervals are then clipped into [0, 360].
    edge = np.flatnonzero(~((q_lo >= 0.0) & (q_hi <= 360.0)))
    if len(edge):
        if not rule_check("ra", ra[edge])[2].all():  # an off-sky dec in any block is named first
            refuse([rule_check("dec", records["dec"])])
            refuse([rule_check("ra", ra)], lo)
        full = halfw[edge] >= 180.0
        q_lo[edge[full]], q_hi[edge[full]] = 0.0, 360.0
        wrap = edge[~full]
        turn = np.where(q_lo[wrap] < 0.0, 360.0, -360.0)
        hit_rec = np.concatenate([np.arange(n), wrap])
        q_lo = np.clip(np.concatenate([q_lo, q_lo[wrap] + turn]), 0.0, 360.0)
        q_hi = np.clip(np.concatenate([q_hi, q_hi[wrap] + turn]), 0.0, 360.0)
        base = base[hit_rec]

    # An interval holds a star if ``key[start]`` is in it, and two or more if
    # ``key[start + 1]`` is too (``key`` ends in +inf).
    key = template_index.key
    start = np.searchsorted(key, base + q_lo, side="left")
    w_end = base + q_hi
    hit = np.flatnonzero(np.take(key, start) <= w_end)
    start, w_end = start[hit], w_end[hit]
    length = 1 + (np.take(key, start + 1) <= w_end)
    more = np.flatnonzero(length > 1)
    length[more] = np.searchsorted(key, w_end[more], side="right") - start[more]
    hit_rec = hit if hit_rec is None else hit_rec[hit]
    if n > 1 and length.sum() > _PAIR_BUDGET:  # crowded: join each half apart
        mid = lo + n // 2
        return sum(_join_rows(records, xyz, a, b, template_index, radius_deg, out)
                   for a, b in ((lo, mid), (mid, hi)))
    cand_rec = np.repeat(hit_rec, length)
    # each hit's run of index rows, laid end to end
    cand_tpl = np.arange(len(cand_rec)) + np.repeat(
        start - (np.cumsum(length) - length), length
    )
    del base, hit_rec, start, length, hit, w_end, more, halfw, q_lo, q_hi

    diff = np.take(xyz[lo:hi], cand_rec, axis=0) - np.take(template_index.xyz, cand_tpl, axis=0)
    chord2 = np.einsum("ij,ij->i", diff, diff)
    del diff  # the largest temporary; not needed past this point
    max_chord = separation_to_chord(radius_deg)
    in_radius = chord2 <= max_chord * max_chord
    cand_rec = cand_rec[in_radius]
    cand_tpl = cand_tpl[in_radius]
    chord2 = chord2[in_radius]

    per_rec = np.bincount(cand_rec, minlength=n)
    ambiguous_count = int(np.count_nonzero(per_rec > 1))
    # a lone candidate wins outright; only the ambiguous rows' candidates
    # are sorted, nearest first and then by star id
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
    star_ids, separations = out[0][lo:hi], out[1][lo:hi]
    star_ids[:], separations[:] = UNMATCHED_STAR_ID, np.nan
    star_ids[matched] = np.take(template_index.ids, np.take(cand_tpl, chosen))
    separations[matched] = np.degrees(
        2.0 * np.arcsin(np.minimum(1.0, np.sqrt(chord2[chosen]) / 2.0))
    )
    return ambiguous_count
