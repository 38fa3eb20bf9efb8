import math
import re
import time
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcat.core import (
    ConfigError,
    DomainError,
    EngineConfig,
    InsufficientDataError,
    records_from_radec,
)
from tdcat import core, mining
from tdcat.crossmatch import UNMATCHED_STAR_ID, MatchResult
from tdcat.mining import (
    BRIGHTENING,
    DIMMING,
    NEW_SOURCE,
    Alert,
    CandidateTracker,
    MiningConfig,
    MAX_ABS_MAG,
    MAX_WINDOW,
    QUANTA_PER_MAG,
    WindowBank,
    default_freq_grid,
    false_alarm_level,
    lomb_scargle,
    period_search,
    read_alerts_csv,
    write_alerts_csv,
)

from oracles import (
    DenseTracker,
    IntegerWindows,
    PureWindow,
    WindowState,
    baseline_stats_in_masked_gathers,
    online_update,
    push_in_unique_passes,
)

CFG = EngineConfig()


def same_alert(a, b, rel=1e-12):
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, float):
            if math.isnan(x) and math.isnan(y):
                continue
            if x != pytest.approx(y, rel=rel, abs=1e-12):
                return False
        elif x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# configuration


def test_mining_config_defaults():
    cfg = MiningConfig()
    assert cfg.window == 40
    assert cfg.min_window == 10
    assert cfg.k_sigma == 5.0
    assert cfg.persistence == 2


@pytest.mark.parametrize(
    "kw",
    [
        dict(window=0),
        dict(window=MAX_WINDOW + 1),
        dict(min_window=1),
        dict(min_window=50),  # larger than window
        dict(k_sigma=0.0),
        dict(persistence=0),
        dict(min_points=2),
        dict(oversample=0),
        dict(fap=0.0),
        dict(fap=1.0),
    ],
)
def test_mining_config_rejects(kw):
    with pytest.raises(ConfigError):
        MiningConfig(**kw)


# ---------------------------------------------------------------------------
# scalar detector arithmetic


def warmed_state(values):
    state = WindowState()
    for v in values:
        state.baseline.append(float(v))
    return state


def test_threshold_boundary_with_flat_baseline():
    # constant baseline: sample variance 0, so combined sigma == mag_error
    cfg = MiningConfig(min_window=10, k_sigma=5.0)
    err = 0.02
    edge = 5.0 * err
    state = warmed_state([12.0] * 10)
    assert online_update(state, 0.0, 12.0 + edge, err, cfg) is None  # strict >
    state = warmed_state([12.0] * 10)
    alert = online_update(state, 0.0, 12.0 + edge + 1e-9, err, cfg)
    assert alert is not None and alert.kind == DIMMING
    state = warmed_state([12.0] * 10)
    alert = online_update(state, 0.0, 12.0 - edge - 1e-9, err, cfg)
    assert alert is not None and alert.kind == BRIGHTENING
    assert alert.baseline_mag == 12.0


def test_baseline_uses_sample_variance():
    # baseline {10, 12}: mean 11, sample variance 2 (population would give 1)
    cfg = MiningConfig(window=40, min_window=2, k_sigma=2.0)
    thresh = 2.0 * math.sqrt(2.0)
    state = warmed_state([10.0, 12.0])
    assert online_update(state, 0.0, 11.0 + thresh - 1e-9, 0.0, cfg) is None
    state = warmed_state([10.0, 12.0])
    alert = online_update(state, 0.0, 11.0 + thresh + 1e-9, 0.0, cfg)
    assert alert is not None
    assert alert.deviation_sigma == pytest.approx(thresh / math.sqrt(2.0), rel=1e-9)


def test_no_alerts_during_warmup():
    cfg = MiningConfig(min_window=10, k_sigma=5.0)
    state = WindowState()
    for i in range(10):
        # wildly varying magnitudes, but the baseline is not ready yet
        assert online_update(state, 15.0 * i, 12.0 + 3.0 * (-1) ** i, 0.02, cfg) is None
    assert online_update(state, 200.0, 40.0, 0.02, cfg) is not None


def test_window_is_bounded():
    cfg = MiningConfig(window=5, min_window=2)
    state = WindowState()
    for i in range(50):
        online_update(state, 15.0 * i, 12.0 + 0.001 * i, 0.02, cfg)
    assert len(state.baseline) == 5
    assert list(state.baseline) == [12.0 + 0.001 * i for i in range(45, 50)]


# ---------------------------------------------------------------------------
# vectorized bank vs scalar references


def run_streams(seed, n_stars, n_frames, cfg, dropout=0.1):
    """Same random mag streams through WindowBank, online_update, PureWindow.

    The magnitudes are whole quanta (1e-5 mag), so the bank's baselines hold
    the same values as the float references'."""
    rng = np.random.default_rng(seed)
    stars = np.arange(n_stars, dtype=np.int64) * 3 + 5
    bank = WindowBank(stars, cfg)
    scalar = {int(s): WindowState() for s in stars}
    pure = {
        int(s): PureWindow(cfg.window, cfg.min_window, cfg.k_sigma) for s in stars
    }
    bank_alerts, scalar_alerts, pure_alerts = [], [], []
    for f in range(n_frames):
        epoch = 15.0 * f
        present = rng.random(n_stars) > dropout
        if not np.any(present):
            continue
        ids = stars[present]
        mags = 12.0 + rng.standard_normal(len(ids)) * 0.02
        if f in (n_frames // 2, n_frames - 3):  # force outliers on some frames
            mags[0] += 1.0
        mags = np.round(mags, 5)  # whole quanta, which the bank holds exactly
        errs = np.full(len(ids), 0.02)
        for a in bank.update(epoch, ids, mags, errs):
            bank_alerts.append((a.star_id, a.epoch, a.kind, a.deviation_sigma))
        for s, m, e in zip(ids, mags, errs):
            a = online_update(scalar[int(s)], epoch, float(m), float(e), cfg)
            if a is not None:
                scalar_alerts.append((int(s), a.epoch, a.kind, a.deviation_sigma))
            kind, _ = pure[int(s)].step(float(m), float(e))
            if kind is not None:
                pure_alerts.append((int(s), epoch, kind))
    return bank_alerts, scalar_alerts, pure_alerts


def assert_same_alert_stream(got, want):
    """Identical alert decisions; sigma values agree to float-drift level."""
    assert [(s, e, k) for s, e, k, _ in got] == [(s, e, k) for s, e, k, _ in want]
    for (_, _, _, a), (_, _, _, b) in zip(got, want):
        assert a == pytest.approx(b, rel=1e-6)


def test_bank_matches_scalar_and_pure_oracles():
    cfg = MiningConfig(window=40, min_window=10, k_sigma=5.0)
    bank_alerts, scalar_alerts, pure_alerts = run_streams(11, 6, 200, cfg)
    assert_same_alert_stream(bank_alerts, scalar_alerts)
    assert [(s, e, k) for s, e, k, _ in bank_alerts] == pure_alerts
    assert len(bank_alerts) >= 2  # the forced outliers fired


def test_bank_matches_oracle_across_refresh_boundary():
    # 600 frames: integer running sums keep the baselines of a long run exact
    cfg = MiningConfig(window=30, min_window=10, k_sigma=4.0)
    bank_alerts, scalar_alerts, _ = run_streams(23, 4, 600, cfg, dropout=0.05)
    assert_same_alert_stream(bank_alerts, scalar_alerts)


def test_bank_running_sums_stay_exact_after_refresh():
    cfg = MiningConfig(window=8, min_window=4)
    bank = WindowBank(np.array([1], np.int64), cfg)
    rng = np.random.default_rng(0)
    for f in range(520):
        bank.update(15.0 * f, [1], [12.0 + rng.standard_normal() * 0.05], [0.02])
    n, mean, var = bank.baseline_stats(np.array([0]))
    window_vals = bank._ring.T[0].astype(np.int64)
    assert n[0] == 8
    assert bank._sum[0] == window_vals.sum() and bank._sumsq[0] == (window_vals**2).sum()
    assert mean[0] == pytest.approx(window_vals.mean() / QUANTA_PER_MAG, rel=1e-12)
    assert var[0] == pytest.approx(window_vals.var(ddof=1) / QUANTA_PER_MAG**2, rel=1e-9)


def test_duplicate_star_in_one_frame_judged_against_snapshot():
    cfg = MiningConfig(window=40, min_window=10, k_sigma=5.0)
    bank = WindowBank(np.array([7], np.int64), cfg)
    for f in range(10):
        bank.update(15.0 * f, [7], [12.0], [0.01])
    # two points for the same star in one frame: the second is judged against
    # the pre-frame baseline, not against a baseline containing the first
    alerts = bank.update(150.0, [7, 7], [12.0, 13.0], [0.01, 0.01])
    assert len(alerts) == 1 and alerts[0].mag == 13.0
    # both points were absorbed afterwards
    n, mean, _ = bank.baseline_stats(np.array([0]))
    assert n[0] == 12
    assert mean[0] == pytest.approx((10 * 12.0 + 12.0 + 13.0) / 12)


BANK_ARRAYS = ("_ring", "_head", "_count", "_sum", "_sumsq")


def quanta(mags):
    """Magnitudes as the window bank holds them."""
    return np.rint(np.asarray(mags) * QUANTA_PER_MAG).astype(np.int32)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_push_matches_the_unique_pass_push_bit_for_bit(k):
    """k matches per star and frame, a window shorter than k, over 524 frames."""
    cfg = MiningConfig(window=5, min_window=2, k_sigma=3.0)
    stars = np.arange(60, dtype=np.int64) * 2 + 1
    bank, reference = WindowBank(stars, cfg), WindowBank(stars, cfg)
    reference.absorb = types.MethodType(push_in_unique_passes, reference)
    rng = np.random.default_rng(k)
    for f in range(524):
        present = stars[rng.random(len(stars)) < 0.8]
        ids = rng.permutation(np.repeat(present, k))
        mags = 12.0 + rng.standard_normal(len(ids)) * rng.choice([0.01, 0.3, 4.0], len(ids))
        errs = np.full(len(ids), 0.02)
        got = bank.update(15.0 * f, ids, mags, errs)
        want = reference.update(15.0 * f, ids, mags, errs)
        assert [vars(a) for a in got] == [vars(a) for a in want]
        for name in BANK_ARRAYS:
            assert getattr(bank, name).tobytes() == getattr(reference, name).tobytes(), (f, name)


def bank_state(bank):
    return [getattr(bank, name).tobytes() for name in BANK_ARRAYS]


@pytest.mark.parametrize("block_rows", [1 << 14, 37])
@pytest.mark.parametrize("gaps", [False, True], ids=["ids_0_to_n", "every_9th_id_dropped"])
def test_push_of_full_scale_shaped_frames_matches_the_unique_pass_push(
    monkeypatch, gaps, block_rows
):
    """Most stars once a frame and a few 2-7 times, over 600 frames, the
    points in one row block or many: alerts and every array match the
    unique-pass push byte for byte, and restore undoes each frame bit for bit."""
    monkeypatch.setattr(core, "_BLOCK_ROWS", block_rows)
    cfg = MiningConfig(window=8, min_window=3, k_sigma=4.0)
    stars = np.arange(500, dtype=np.int64)
    if gaps:
        stars = stars[stars % 9 != 8]
    bank, reference = WindowBank(stars, cfg), WindowBank(stars, cfg)
    reference.absorb = types.MethodType(push_in_unique_passes, reference)
    rng = np.random.default_rng(11)
    for f in range(600):
        present = stars[rng.random(len(stars)) < 0.95]
        repeated = rng.choice(present, 0 if f % 10 == 0 else 6, replace=False)
        extra = np.repeat(repeated, rng.integers(1, 7, len(repeated)))
        ids = rng.permutation(np.concatenate([present, extra]))
        mags = 12.0 + rng.standard_normal(len(ids)) * rng.choice([0.01, 0.3, 4.0], len(ids))
        errs = np.full(len(ids), 0.02)
        got, slots, point_quanta = bank.judge(15.0 * f, ids, mags, errs)
        before = bank_state(bank)
        bank.restore(bank.absorb(slots, point_quanta))
        assert bank_state(bank) == before, f
        bank.absorb(slots, point_quanta)
        want = reference.update(15.0 * f, ids, mags, errs)
        assert [vars(a) for a in got] == [vars(a) for a in want], f
        assert bank_state(bank) == bank_state(reference), f


def test_a_bank_of_ids_0_to_n_takes_each_id_as_its_slot():
    n = 50
    bank = WindowBank(np.arange(n, dtype=np.int64), MiningConfig())
    assert bank._ids_are_slots
    ids = np.random.default_rng(4).integers(0, n, 300)
    assert bank._slots_of(ids).tobytes() == np.searchsorted(bank.star_ids, ids).tobytes()
    with pytest.raises(DomainError, match=rf"unknown star ids in update: \[-1 {n}\]"):
        bank.judge(0.0, [3, -1, n, 4], np.full(4, 12.0), np.full(4, 0.02))


@pytest.mark.parametrize(
    "stars",
    [
        np.arange(900)[np.arange(900) % 9 != 0],  # as unmatched-heavy's template
        np.arange(900)[np.arange(900) % 9 != 8],
        np.r_[-3, 1:50],  # n ids ending at n - 1, but not 0..n-1
    ],
    ids=["drop_0_9_18", "drop_8_17_26", "negative_first"],
)
def test_a_bank_of_other_ids_returns_the_searchsorted_slots(stars):
    stars = stars.astype(np.int64)
    bank = WindowBank(stars, MiningConfig())
    assert not bank._ids_are_slots
    ids = np.random.default_rng(len(stars)).choice(stars, 500)
    assert bank._slots_of(ids).tobytes() == np.searchsorted(stars, ids).tobytes()
    unknown = np.setdiff1d(np.arange(-4, stars[-1] + 3), stars)[[0, -1]]
    with pytest.raises(DomainError, match=re.escape(f"unknown star ids in update: {unknown}")):
        bank._slots_of(np.r_[stars[0], unknown, stars[-1]])


def test_baseline_stats_match_the_masked_gathers_and_zero_short_baselines():
    cfg = MiningConfig(window=5, min_window=2)
    bank = WindowBank(np.arange(40, dtype=np.int64), cfg)
    rng = np.random.default_rng(9)
    for f in range(8):
        ids = np.arange(40)[np.arange(40) // 5 > f]  # counts 0 to 5, windows wrapped
        bank.absorb(ids, quanta(12.0 + rng.standard_normal(len(ids))))
    slots = rng.permutation(np.repeat(np.arange(40), 2))
    got, want = bank.baseline_stats(slots), baseline_stats_in_masked_gathers(bank, slots)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert set(got[0][got[2] == 0.0]) >= {0, 1}


@pytest.mark.parametrize("k", [1, 2, 7])
def test_restore_undoes_absorb_bit_for_bit(k):
    """k matches per star and frame, a window shorter than k, over 524 frames:
    absorb then restore leaves every array as it was, and absorbing again
    gives the same bank as the first absorb."""
    cfg = MiningConfig(window=5, min_window=2, k_sigma=3.0)
    stars = np.arange(60, dtype=np.int64) * 2 + 1
    bank = WindowBank(stars, cfg)
    rng = np.random.default_rng(k)
    for f in range(524):
        present = stars[rng.random(len(stars)) < 0.8]
        ids = rng.permutation(np.repeat(present, k))
        mags = 12.0 + rng.standard_normal(len(ids)) * rng.choice([0.01, 0.3, 4.0], len(ids))
        _, slots, point_quanta = bank.judge(15.0 * f, ids, mags, np.full(len(ids), 0.02))
        before = bank_state(bank)
        undo = bank.absorb(slots, point_quanta)
        after = bank_state(bank)
        bank.restore(undo)
        assert bank_state(bank) == before, f
        bank.absorb(slots, point_quanta)
        assert bank_state(bank) == after, f


def test_judge_changes_nothing_and_absorb_completes_update():
    cfg = MiningConfig(window=6, min_window=2, k_sigma=3.0)
    stars = np.array([2, 4, 8], np.int64)
    split, whole = WindowBank(stars, cfg), WindowBank(stars, cfg)
    rng = np.random.default_rng(3)
    for f in range(20):
        ids = rng.choice(stars, 5)
        mags = 12.0 + rng.standard_normal(5) * (1.0 if f == 15 else 0.01)
        errs = np.full(5, 0.02)
        before = [getattr(split, name).tobytes() for name in BANK_ARRAYS]
        alerts, slots, point_quanta = split.judge(15.0 * f, ids, mags, errs)
        assert [getattr(split, name).tobytes() for name in BANK_ARRAYS] == before
        # the frame's columns whole, points picked by row
        picked, _, picked_quanta = split.judge(
            15.0 * f, ids, np.concatenate([[0.0], mags]), np.concatenate([[0.0], errs]),
            rows=np.arange(1, 6),
        )
        assert point_quanta.tobytes() == picked_quanta.tobytes() == quanta(mags).tobytes()
        split.absorb(slots, picked_quanta)
        want = whole.update(15.0 * f, ids, mags, errs)
        assert [vars(a) for a in alerts] == [vars(a) for a in picked] == [vars(a) for a in want]
        for name in BANK_ARRAYS:
            assert getattr(split, name).tobytes() == getattr(whole, name).tobytes()


@pytest.mark.parametrize("block_rows", [1, 7, 1 << 14])
def test_judge_in_row_blocks_equals_one_block(monkeypatch, block_rows):
    """Frames with duplicate-star rows, points picked by row: every blocking
    gives the alerts, slots and point magnitudes of one block."""
    cfg = MiningConfig(window=6, min_window=2, k_sigma=3.0)
    stars = np.arange(40, dtype=np.int64) * 3 + 1
    bank = WindowBank(stars, cfg, camera_id=2)
    rng = np.random.default_rng(block_rows)
    alerted = 0
    for f in range(30):
        ids = rng.choice(stars, 60)  # most stars twice or more
        width = len(ids) + 3
        mags = 12.0 + rng.standard_normal(width) * np.where(rng.random(width) < 0.05, 2.0, 0.01)
        errs = np.full(width, 0.02)
        rows = rng.permutation(width)[: len(ids)]
        args = (15.0 * f, ids, mags, errs, np.arange(width, dtype=np.uint64) + 1000, rows)
        monkeypatch.setattr(core, "_BLOCK_ROWS", 1 << 30)
        want = bank.judge(*args)
        monkeypatch.setattr(core, "_BLOCK_ROWS", block_rows)
        got = bank.judge(*args)
        assert [vars(a) for a in got[0]] == [vars(a) for a in want[0]]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        alerted += len(want[0])
        bank.absorb(want[1], want[2])
    assert alerted > 5


def test_judge_names_unknown_star_ids_of_the_lowest_failing_block(monkeypatch):
    bank = WindowBank(np.arange(10, dtype=np.int64) * 2, MiningConfig())
    ids = np.zeros(35, np.int64)
    ids[16], ids[30] = 1001, 999  # in blocks 2 and 4 of 7 rows each; 999 sorts first
    monkeypatch.setattr(core, "_BLOCK_ROWS", 7)
    with pytest.raises(DomainError, match="1001") as raised:
        bank.judge(0.0, ids, np.full(35, 12.0), np.full(35, 0.02))
    assert "999" not in str(raised.value)


def test_update_from_match_reads_the_frame_in_place_and_returns_its_undo():
    """Frames with duplicate-star matches, 60 of 70 rows matched at random:
    ``update_from_match`` gives the alerts and the bank of ``update`` on the
    gathered columns, as does ``update(rows=)``; ``restore(undo)`` puts the
    pre-frame bank back bit for bit; an unknown star id changes nothing."""
    cfg = MiningConfig(window=6, min_window=2, k_sigma=3.0)
    stars = np.arange(40, dtype=np.int64) * 3 + 1
    live, gathered, picked = (WindowBank(stars, cfg, camera_id=2) for _ in range(3))
    rng = np.random.default_rng(11)
    alerted, width = 0, 70
    for f in range(30):
        mags = 12.0 + rng.standard_normal(width) * np.where(rng.random(width) < 0.05, 2.0, 0.01)
        records = records_from_radec(
            np.arange(width) + 1000 * f, f, rng.uniform(10.0, 11.0, width),
            rng.uniform(-1.0, 1.0, width), mags, np.full(width, 0.02), CFG,
        )
        frame = core.FrameBatch(imageid=f, epoch=15.0 * f, records=records)
        rows = rng.permutation(width)[:60]
        star_ids = rng.choice(stars, 60)  # most stars twice or more
        if f == 20:
            star_ids[33] = 2  # not in the bank
        per_row = np.full(width, UNMATCHED_STAR_ID)  # the result's one entry per row
        per_row[rows] = star_ids
        matches = MatchResult(records["id"], per_row, np.zeros(width), 0)
        rows = matches.matched_rows  # the points come in row order
        star_ids = per_row[rows]
        rec, before = frame.records, bank_state(live)
        gather = (15.0 * f, star_ids, rec["calmag"][rows], rec["mag_error"][rows])
        if f == 20:
            with pytest.raises(DomainError, match=r"\[2\]"):
                live.update_from_match(frame, matches)
            with pytest.raises(DomainError, match=r"\[2\]"):
                gathered.update(*gather, record_ids=rec["id"][rows])
            assert bank_state(live) == bank_state(gathered) == before
            continue
        alerts, undo = live.update_from_match(frame, matches)
        after = bank_state(live)
        live.restore(undo)
        assert bank_state(live) == before, f
        assert [vars(a) for a in live.update_from_match(frame, matches)[0]] == [
            vars(a) for a in alerts
        ]
        assert bank_state(live) == after, f
        want = gathered.update(*gather, record_ids=rec["id"][rows])
        got = picked.update(
            15.0 * f, star_ids, rec["calmag"], rec["mag_error"], record_ids=rec["id"],
            rows=rows,
        )
        assert [vars(a) for a in alerts] == [vars(a) for a in want] == [vars(a) for a in got]
        assert after == bank_state(gathered) == bank_state(picked), f
        alerted += len(alerts)
    assert alerted > 5


def assert_bank_equals(bank, reference, pushed):
    """Each star's ring cells before its head hold its reference window in
    order, its head has moved past every point it took, and its count and
    sums are the window's."""
    w = bank.config.window
    for slot, star in enumerate(bank.star_ids.tolist()):
        window = list(reference.windows[star])
        count, head = int(bank._count[slot]), int(bank._head[slot])
        assert count == len(window) and head == pushed[star] % w, star
        cells = [(head - count + k) % w for k in range(count)]
        assert bank._ring[cells, slot].tolist() == window, star
        assert bank._sum[slot] == sum(window), star
        assert bank._sumsq[slot] == sum(q * q for q in window), star


@pytest.mark.parametrize("block_rows", [5, 1 << 14])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_bank_equals_the_integer_reference_after_every_frame(block_rows, data):
    """Frames that repeat stars more than ``window`` times, pick their rows
    out of order and sometimes name an unknown star: after every frame the
    bank's rings, heads, counts, sums and alerts equal ``IntegerWindows``
    exactly, and ``restore(undo)`` puts the pre-frame bank back bit for bit.
    A frame with an unknown star is refused and changes nothing."""
    window = data.draw(st.integers(2, 5), "window")
    cfg = MiningConfig(window=window, min_window=2, k_sigma=2.0)
    stars = sorted(data.draw(st.sets(st.integers(0, 30), min_size=1, max_size=6), "stars"))
    bank, reference = WindowBank(np.array(stars, np.int64), cfg), IntegerWindows(stars, cfg)
    pushed = Counter()
    mag = st.one_of(st.floats(11.9, 12.1), st.floats(-99.99999, 99.99999))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_ROWS", block_rows)
        for f in range(data.draw(st.integers(1, 6), "frames")):
            ids = data.draw(st.lists(st.sampled_from(stars), max_size=3 * window + 4), "ids")
            if ids and data.draw(st.integers(0, 4), "unknown") == 0:
                ids[-1] = min(set(range(-1, 32)) - set(stars))
            n = len(ids)
            mags = data.draw(st.lists(mag, min_size=n, max_size=n), "mags")
            errs = data.draw(st.lists(st.floats(0.0, 0.05), min_size=n, max_size=n), "errs")
            width = n + data.draw(st.integers(0, 3), "spare rows")
            rows = np.array(data.draw(st.permutations(range(width)), "rows")[:n], np.int64)
            mag_col, err_col = np.full(width, np.nan), np.full(width, np.nan)
            mag_col[rows], err_col[rows] = mags, errs  # unpicked rows are NaN, never read
            before = bank_state(bank)
            if set(ids) - set(stars):
                with pytest.raises(DomainError, match="unknown star ids"):
                    bank.update(15.0 * f, ids, mag_col, err_col, rows=rows)
                with pytest.raises(DomainError):
                    reference.update(15.0 * f, ids, mags, errs)
                assert bank_state(bank) == before
                continue
            alerts, slots, point_quanta = bank.judge(15.0 * f, ids, mag_col, err_col, rows=rows)
            undo = bank.absorb(slots, point_quanta)
            after = bank_state(bank)
            bank.restore(undo)
            assert bank_state(bank) == before, f
            bank.absorb(slots, point_quanta)
            assert bank_state(bank) == after, f
            want = reference.update(15.0 * f, ids, mags, errs)
            got = [(a.star_id, a.kind, a.baseline_mag, a.deviation_sigma) for a in alerts]
            assert got == want, f
            pushed.update(ids)
            assert_bank_equals(bank, reference, pushed)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 100.0, -100.0, 1e300])
def test_judge_refuses_a_magnitude_outside_the_bank_range_by_name(bad):
    bank = WindowBank(np.arange(5, dtype=np.int64), MiningConfig())
    before = bank_state(bank)
    message = re.escape(f"row 1: calmag {bad!r} is not inside (-100, 100)")
    with pytest.raises(DomainError, match=message):
        bank.update(0.0, [1, 3, 4], [12.0, bad, 12.0], [0.02] * 3)
    assert bank_state(bank) == before
    bank.update(0.0, [1, 3], [-99.99999, 99.99999], [0.02, 0.02])
    assert bank._sum[[1, 3]].tolist() == [-9_999_999, 9_999_999]


def test_the_longest_window_keeps_exact_int64_sums():
    top = round(MAX_ABS_MAG * QUANTA_PER_MAG)
    assert (MAX_WINDOW * top) ** 2 < 2**63 <= ((MAX_WINDOW + 1) * top) ** 2
    cfg = MiningConfig(window=MAX_WINDOW, min_window=2)
    bank = WindowBank(np.arange(2, dtype=np.int64), cfg)
    extremes = [99.99999 if k % 3 else -99.99999 for k in range(MAX_WINDOW)]
    for f, m in enumerate(extremes):
        bank.update(15.0 * f, [0, 1], [99.99999, m], [0.02, 0.02])
    n, mean, var = bank.baseline_stats(np.arange(2))
    assert n.tolist() == [MAX_WINDOW] * 2 and bank._sum[0] == MAX_WINDOW * (top - 1)
    assert mean[0] == 99.99999 and var[0] == 0.0
    q = [round(m * QUANTA_PER_MAG) for m in extremes]
    assert bank._sumsq[1] == sum(x * x for x in q)
    assert var[1] == pytest.approx(np.var(extremes, ddof=1), rel=1e-12)


def test_absorb_is_linear_in_repeated_points_and_holds_4_bytes_a_point():
    """A full-scale bank: 16,000 extra points on one star cost at most 4x the
    absorb of 1,000 (one pass over the stars per repeat would be quadratic),
    and after 40 frames the bank's arrays hold 4 bytes a ring point and 40
    bytes a star."""
    n, cfg = 175_600, MiningConfig()
    bank = WindowBank(np.arange(n, dtype=np.int64), cfg)
    rng = np.random.default_rng(7)
    for f in range(40):
        bank.absorb(np.arange(n), rng.integers(1_100_000, 1_300_000, n, dtype=np.int32))
    arrays = [a for a in vars(bank).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 4 * cfg.window * n + 40 * n

    def absorb_s(k):
        slots = np.r_[np.arange(n), np.zeros(k, np.int64)]
        points = rng.integers(1_100_000, 1_300_000, len(slots), dtype=np.int32)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            undo = bank.absorb(slots, points)
            best = min(best, time.perf_counter() - t0)
            bank.restore(undo)
        return best

    assert absorb_s(16_000) <= 4 * absorb_s(1_000)


def test_bank_rejects_unknown_and_unsorted_stars():
    cfg = MiningConfig()
    with pytest.raises(DomainError):
        WindowBank(np.array([3, 3], np.int64), cfg)
    bank = WindowBank(np.array([1, 5], np.int64), cfg)
    with pytest.raises(DomainError):
        bank.update(0.0, [1, 4], [12.0, 12.0], [0.02, 0.02])
    assert bank.update(0.0, [], [], []) == []


def test_alert_metadata_passthrough():
    cfg = MiningConfig(window=40, min_window=2, k_sigma=3.0)
    bank = WindowBank(np.array([9], np.int64), cfg, camera_id=4)
    bank.update(0.0, [9], [12.0], [0.01])
    bank.update(15.0, [9], [12.001], [0.01])
    alerts = bank.update(30.0, [9], [13.0], [0.01], record_ids=np.array([12345], np.uint64))
    assert len(alerts) == 1
    a = alerts[0]
    assert a.record_id == 12345
    assert a.camera_id == 4
    assert a.star_id == 9
    assert a.epoch == 30.0


# ---------------------------------------------------------------------------
# candidate tracker


def detections(ra_dec_pairs, ids=None, imageid=0, mag=14.0):
    ra = np.array([p[0] for p in ra_dec_pairs], dtype=np.float64)
    dec = np.array([p[1] for p in ra_dec_pairs], dtype=np.float64)
    if ids is None:
        ids = np.arange(len(ra), dtype=np.uint64) + 100 * (imageid + 1)
    return records_from_radec(
        ids=np.asarray(ids, np.uint64), imageid=imageid, ra=ra, dec=dec,
        mag=np.full(len(ra), mag), mag_error=np.full(len(ra), 0.02), config=CFG,
    )


def test_tracker_alerts_once_at_persistence():
    cfg = MiningConfig(persistence=2)
    tr = CandidateTracker(CFG, cfg)
    assert tr.update(0.0, detections([(100.0, 5.0)], ids=[11])) == []
    alerts = tr.update(15.0, detections([(100.0001, 5.0)], ids=[22]))
    assert len(alerts) == 1
    a = alerts[0]
    assert a.kind == NEW_SOURCE
    assert a.n_frames == 2
    assert a.record_id == 11  # first detection in the chain
    assert a.ra == pytest.approx(100.0001)
    # persisting further never re-alerts
    assert tr.update(30.0, detections([(100.0, 5.0)], ids=[33])) == []
    assert tr.open_tracks == 1


def test_tracker_gap_breaks_chain():
    cfg = MiningConfig(persistence=2)
    tr = CandidateTracker(CFG, cfg)
    tr.update(0.0, detections([(100.0, 5.0)]))
    # 45 s later: more than 1.5 cadences, the chain is broken
    assert tr.update(45.0, detections([(100.0, 5.0)])) == []
    assert tr.open_tracks == 1  # restarted at count 1
    alerts = tr.update(60.0, detections([(100.0, 5.0)]))
    assert len(alerts) == 1


def test_tracker_empty_frame_drops_tracks():
    cfg = MiningConfig(persistence=3)
    tr = CandidateTracker(CFG, cfg)
    tr.update(0.0, detections([(100.0, 5.0)]))
    tr.update(15.0, detections([(100.0, 5.0)]))
    assert tr.update(30.0, detections([], ids=[])) == []
    assert tr.open_tracks == 0
    tr.update(45.0, detections([(100.0, 5.0)]))
    assert tr.update(60.0, detections([(100.0, 5.0)])) == []  # count back at 2
    assert len(tr.update(75.0, detections([(100.0, 5.0)]))) == 1


def test_tracker_radius_decides_extension():
    cfg = MiningConfig(persistence=2)
    inside = CandidateTracker(CFG, cfg)
    inside.update(0.0, detections([(100.0, 5.0)]))
    assert len(inside.update(15.0, detections([(100.0, 5.0 + 0.0029)]))) == 1

    outside = CandidateTracker(CFG, cfg)
    outside.update(0.0, detections([(100.0, 5.0)]))
    assert outside.update(15.0, detections([(100.0, 5.0 + 0.0031)])) == []
    assert outside.open_tracks == 1  # old dropped, new opened


def test_tracker_parallel_tracks():
    cfg = MiningConfig(persistence=2)
    tr = CandidateTracker(CFG, cfg)
    tr.update(0.0, detections([(100.0, 5.0), (200.0, -5.0)]))
    alerts = tr.update(15.0, detections([(200.0, -5.0), (100.0, 5.0)]))
    assert len(alerts) == 2
    assert {round(a.ra) for a in alerts} == {100, 200}


def test_tracker_persistence_one_is_immediate():
    cfg = MiningConfig(persistence=1)
    tr = CandidateTracker(CFG, cfg)
    alerts = tr.update(0.0, detections([(10.0, 1.0), (20.0, 2.0)], ids=[7, 8]))
    assert len(alerts) == 2
    assert {a.record_id for a in alerts} == {7, 8}
    assert all(a.n_frames == 1 for a in alerts)
    assert tr.update(15.0, detections([(10.0, 1.0)])) == []


def test_tracker_rejects_bad_radius():
    with pytest.raises(ConfigError):
        CandidateTracker(EngineConfig(match_radius_deg=0.0), MiningConfig())


def tracker_frames(rng, ra0, dec0, radius, n_frames=10):
    """Crowded frames around (ra0, dec0): persisting sources plus noise.

    Positions jitter by about half a radius, so sources often sit within
    reach of more than one track; dec is clipped to the poles and ra wrapped
    across the seam.  Some frames repeat rows verbatim, some are empty, and
    some arrive after a gap of more than 1.5 cadences.
    """
    n_src = 40
    spread = 6 * radius
    cos0 = max(math.cos(math.radians(dec0)), 1e-3)
    src_ra = ra0 + rng.uniform(-spread, spread, n_src) / cos0
    src_dec = dec0 + rng.uniform(-spread, spread, n_src)
    epoch = 0.0
    for f in range(n_frames):
        epoch += 45.0 if rng.random() < 0.15 else 15.0
        if rng.random() < 0.1:
            yield epoch, detections([], ids=[], imageid=f)
            continue
        seen = rng.random(n_src) < 0.7
        n_noise = int(rng.integers(0, 15))
        ra = np.concatenate(
            [src_ra[seen], ra0 + rng.uniform(-spread, spread, n_noise) / cos0]
        )
        dec = np.concatenate(
            [src_dec[seen], dec0 + rng.uniform(-spread, spread, n_noise)]
        )
        ra = ra + rng.normal(0, 0.5 * radius, len(ra)) / cos0
        dec = dec + rng.normal(0, 0.5 * radius, len(dec))
        if rng.random() < 0.3:
            dup = rng.integers(0, len(ra), 5)
            ra, dec = np.append(ra, ra[dup]), np.append(dec, dec[dup])
        order = rng.permutation(len(ra))
        ra, dec = np.mod(ra[order], 360.0), np.clip(dec[order], -90.0, 90.0)
        ids = np.arange(len(ra), dtype=np.uint64) + np.uint64(1000 * (f + 1))
        yield epoch, detections(list(zip(ra, dec)), ids=ids, imageid=f)


@pytest.mark.parametrize("radius,zone_height", [(0.003, 0.01), (0.01, 0.003), (0.5, 1.0)])
@pytest.mark.parametrize("persistence", [1, 2, 3])
def test_tracker_matches_dense_reference(radius, zone_height, persistence):
    config = EngineConfig(match_radius_deg=radius, zone_height_deg=zone_height)
    cfg = MiningConfig(persistence=persistence)
    patches = [(0.0, 30.0), (359.999, -10.0), (45.0, 90.0), (200.0, -90.0), (120.0, 0.0)]
    for seed in range(3):
        for patch, (ra0, dec0) in enumerate(patches):
            rng = np.random.default_rng([seed, persistence, patch])
            tr = CandidateTracker(config, cfg, camera_id=3)
            ref = DenseTracker(radius, config.cadence_s, cfg, camera_id=3)
            for epoch, rec in tracker_frames(rng, ra0, dec0, radius):
                got = tr.update(epoch, rec)
                want = ref.update(epoch, rec)
                assert [repr(a) for a in got] == [repr(a) for a in want]
                assert tr.open_tracks == ref.open_tracks


def test_tracker_memory_is_bounded_at_5000_tracks():
    rng = np.random.default_rng(11)
    n = 5000
    tr = CandidateTracker(CFG, MiningConfig(persistence=2))
    frames = []
    for imageid in range(2):
        ra = rng.uniform(100.0, 110.0, n)
        dec = rng.uniform(-5.0, 5.0, n)
        frames.append(detections(list(zip(ra, dec)), imageid=imageid))
    tr.update(0.0, frames[0])
    assert tr.open_tracks == n
    tracemalloc.start()
    try:
        tr.update(15.0, frames[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense (m, k, 3) table of the old tracker peaked at ~763 MiB here
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# periodogram


def test_lomb_scargle_matches_scipy(monkeypatch):
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0, 28800, 300))
    y = 12.0 + 0.3 * np.sin(2 * np.pi * t / 700.0) + rng.standard_normal(300) * 0.05
    freqs = rng.uniform(1e-4, 0.03, 64)
    monkeypatch.setattr(mining, "PERIODOGRAM_CHUNK", 7)  # awkward chunk on purpose
    mine = lomb_scargle(t, y, freqs)
    yc = y - y.mean()
    var = float(np.sum(yc * yc) / (len(yc) - 1))
    ref = scipy.signal.lombscargle(t, yc, 2 * np.pi * freqs) / var
    assert np.allclose(mine, ref, rtol=1e-9, atol=1e-12)


def test_periodogram_peak_at_injected_frequency():
    t = np.arange(480) * 15.0
    y = 12.0 + 0.3 * np.sin(2 * np.pi * t / 300.0)
    freqs = default_freq_grid(t)
    power = lomb_scargle(t, y, freqs)
    assert freqs[np.argmax(power)] == pytest.approx(1.0 / 300.0, rel=5e-3)


def test_default_freq_grid_shape():
    t = np.arange(100) * 15.0
    freqs = default_freq_grid(t, oversample=5)
    span = t[-1] - t[0]
    assert freqs[0] == pytest.approx(1.0 / span)
    assert freqs[-1] < 0.5 / 15.0
    assert np.allclose(np.diff(freqs), 1.0 / (5 * span))
    with pytest.raises(InsufficientDataError):
        default_freq_grid(np.array([1.0]))
    with pytest.raises(InsufficientDataError):
        default_freq_grid(np.full(5, 7.0))


def test_lomb_scargle_rejects_degenerate_input():
    t = np.arange(10) * 15.0
    with pytest.raises(DomainError):
        lomb_scargle(t, np.zeros(9), np.array([0.001]))
    with pytest.raises(InsufficientDataError):
        lomb_scargle(t[:2], np.array([1.0, 2.0]), np.array([0.001]))
    with pytest.raises(DomainError):
        lomb_scargle(t, np.full(10, 3.0), np.array([0.001]))  # zero variance


def test_false_alarm_level_values():
    assert false_alarm_level(1, 0.01) == pytest.approx(-math.log(0.01))
    assert false_alarm_level(1, 0.5) == pytest.approx(math.log(2.0))
    # more independent frequencies demand a higher threshold
    levels = [false_alarm_level(m, 0.01) for m in (1, 10, 100, 10000)]
    assert levels == sorted(levels)
    # a stricter false-alarm probability demands a higher threshold
    assert false_alarm_level(100, 0.001) > false_alarm_level(100, 0.1)
    with pytest.raises(DomainError):
        false_alarm_level(0, 0.01)
    with pytest.raises(DomainError):
        false_alarm_level(10, 1.5)


def test_period_search_recovers_sine_within_one_percent():
    rng = np.random.default_rng(77)
    t = np.arange(480) * 15.0
    y = 12.0 + 0.3 * np.sin(2 * np.pi * t / 300.0) + rng.standard_normal(480) * 0.02
    res = period_search(t, y)
    assert abs(res.period_s - 300.0) / 300.0 < 0.01
    assert res.significant
    assert res.power > res.fap_threshold
    assert res.n_points == 480


def test_period_search_refinement_beats_grid_quantization():
    t = np.arange(480) * 15.0
    y = np.sin(2 * np.pi * t / 293.7)
    fine = period_search(t, y)
    freqs, power = fine.scan
    coarse = freqs[np.argmax(power)]  # the scan's own peak, before refinement
    assert abs(fine.period_s - 293.7) <= abs(1.0 / coarse - 293.7) + 1e-9
    assert fine.power >= power.max()
    assert fine.frequency_hz != coarse  # 293.7 s falls between grid points


def test_period_search_noise_only_is_insignificant():
    rng = np.random.default_rng(123)
    t = np.arange(480) * 15.0
    y = 12.0 + rng.standard_normal(480) * 0.02
    res = period_search(t, y)
    assert not res.significant


def test_period_search_needs_enough_points():
    t = np.arange(5) * 15.0
    with pytest.raises(InsufficientDataError):
        period_search(t, np.sin(t))


# ---------------------------------------------------------------------------
# alert serialization


def test_alert_csv_roundtrip(tmp_path):
    alerts = [
        Alert(kind=DIMMING, epoch=150.0, star_id=42, record_id=999, mag=13.5,
              baseline_mag=12.0, deviation_sigma=7.3, ra=float("nan"),
              dec=float("nan"), n_frames=0, camera_id=2),
        Alert(kind=NEW_SOURCE, epoch=300.0, record_id=1000, mag=14.0,
              ra=123.456, dec=-7.8, n_frames=2, camera_id=0),
    ]
    path = tmp_path / "alerts.csv"
    write_alerts_csv(path, alerts)
    back = read_alerts_csv(path)
    assert len(back) == 2
    for a, b in zip(alerts, back):
        assert same_alert(a, b)


def test_alert_csv_empty_roundtrip(tmp_path):
    path = tmp_path / "alerts.csv"
    write_alerts_csv(path, [])
    assert read_alerts_csv(path) == []
