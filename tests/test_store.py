import errno
import os
import shutil
import stat
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

import tdcat.store as store_mod
from tdcat.core import (
    RECORD_DTYPE,
    TABLE2_COLUMNS,
    DomainError,
    EngineConfig,
    SequenceError,
    StorageError,
    take_rows,
)
from tdcat.crossmatch import build_zone_index, range_join
from tdcat.skygen import SkyModel, build_template, observe_frame
from tdcat.store import (
    BASE_MAGIC,
    DELTA_MAGIC,
    RECORD_SIZE,
    SECONDS_PER_DAY,
    STORE_DTYPE,
    STORE_RECORD_SIZE,
    UNMATCHED_STAR_ID,
    NightStore,
    QueryPredicate,
    _read_rows,
    capacity_plan,
    capacity_table,
    frame_to_store_records,
    night_of,
    open_partitions,
    query_stores,
    read_records_bin,
    read_records_csv,
    write_records_bin,
    write_records_csv,
)

from oracles import column_store_records, concatenate_and_sort_merge

CFG = EngineConfig()
MODEL = SkyModel(seed=42, star_count=300, footprint=(0.0, 2.0, -1.0, 1.0))


@pytest.fixture(scope="module")
def sky():
    template = build_template(MODEL, CFG)
    index = build_zone_index(template.to_records(CFG), CFG.zone_height_deg)
    return template, index


def frame_at(sky, epoch, camera_id=0):
    template, index = sky
    frame = observe_frame(template, epoch, [], MODEL, CFG, camera_id=camera_id)
    matches = range_join(frame.records, index, CFG.match_radius_deg)
    return frame, matches


def random_records(rng, n):
    rec = np.zeros(n, dtype=RECORD_DTYPE)
    rec["id"] = rng.integers(0, 2**63, n).astype(np.uint64)
    rec["imageid"] = rng.integers(0, 10000, n)
    rec["zone"] = rng.integers(0, 18000, n)
    rec["flag"] = rng.integers(0, 4, n)
    for name in TABLE2_COLUMNS:
        if rec.dtype[name].kind == "f":
            rec[name] = rng.standard_normal(n) * 100
    return rec


# ---------------------------------------------------------------------------
# layout constants


def test_record_sizes():
    assert RECORD_SIZE == 162
    assert STORE_RECORD_SIZE == 179
    assert STORE_DTYPE.names == tuple(TABLE2_COLUMNS) + ("star_id", "epoch", "candidate")
    assert STORE_DTYPE["star_id"] == np.dtype("<i8")
    assert STORE_DTYPE["epoch"] == np.dtype("<f8")
    assert STORE_DTYPE["candidate"] == np.dtype("u1")


def test_store_row_begins_with_catalog_row():
    # frame_to_store_records copies the first RECORD_SIZE bytes of each store
    # row as one block, so they must hold RECORD_DTYPE's fields exactly
    head = STORE_DTYPE.names[: len(RECORD_DTYPE.names)]
    assert head == RECORD_DTYPE.names
    for name in head:
        assert STORE_DTYPE.fields[name] == RECORD_DTYPE.fields[name]  # format, offset
    assert RECORD_DTYPE.itemsize == RECORD_SIZE
    assert sum(RECORD_DTYPE[name].itemsize for name in head) == RECORD_SIZE
    for name in STORE_DTYPE.names[len(head):]:
        assert STORE_DTYPE.fields[name][1] >= RECORD_SIZE


@pytest.mark.parametrize(
    "epoch,night",
    [(0.0, 0), (86399.99, 0), (86400.0, 1), (86415.0, 1), (19 * 86400.0 + 3600, 19)],
)
def test_night_of(epoch, night):
    assert night_of(epoch) == night


# ---------------------------------------------------------------------------
# interchange files


def test_bin_roundtrip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(1)
    rec = random_records(rng, 257)
    path = tmp_path / "frame.tds"
    write_records_bin(path, rec)
    back = read_records_bin(path)
    assert back.tobytes() == rec.tobytes()
    assert path.stat().st_size == 12 + 257 * RECORD_SIZE
    write_records_bin(path, rec[:0])
    empty = read_records_bin(path)
    assert empty.dtype == RECORD_DTYPE and len(empty) == 0


def test_bin_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.tds"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(StorageError):
        read_records_bin(path)


def test_bin_rejects_truncation(tmp_path):
    rec = random_records(np.random.default_rng(2), 10)
    path = tmp_path / "frame.tds"
    write_records_bin(path, rec)
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    with pytest.raises(StorageError):
        read_records_bin(path)
    path.write_bytes(data[:7])
    with pytest.raises(StorageError):
        read_records_bin(path)


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    rec = random_records(rng, 40)
    # integer extremes must survive the text round trip
    rec["id"][:2] = [0, 2**64 - 1]
    for name in ("imageid", "zone", "flag"):
        info = np.iinfo(rec.dtype[name])
        rec[name][2:4] = [info.min, info.max]
    path = tmp_path / "frame.csv"
    write_records_csv(path, rec)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(TABLE2_COLUMNS)
    back = read_records_csv(path)
    # repr() of a float round-trips exactly through float()
    assert back.tobytes() == rec.tobytes()


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ra,dec\n1.0,2.0\n")
    with pytest.raises(StorageError):
        read_records_csv(path)


def test_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(TABLE2_COLUMNS) + "\n1,2\n")
    with pytest.raises(StorageError):
        read_records_csv(path)


# ---------------------------------------------------------------------------
# store rows


def test_frame_to_store_records_outcome(sky):
    frame, matches = frame_at(sky, 30.0)
    rows = frame_to_store_records(frame, matches)
    assert len(rows) == len(frame.records)
    assert np.all(rows["epoch"] == frame.epoch)
    for name in TABLE2_COLUMNS:
        assert np.array_equal(
            rows[name], frame.records[name], equal_nan=rows.dtype[name].kind == "f"
        )
    matched = rows["candidate"] == 0
    assert np.count_nonzero(matched) == matches.n_matched
    assert np.all(rows["star_id"][matched] >= 0)
    assert np.all(rows["star_id"][~matched] == UNMATCHED_STAR_ID)
    got = rows["star_id"][matches.matched_rows]
    assert np.array_equal(got, matches.star_ids)


def test_frame_to_store_records_rejects_mismatch(sky):
    frame, matches = frame_at(sky, 45.0)
    other_frame, _ = frame_at(sky, 60.0)
    with pytest.raises(DomainError):
        frame_to_store_records(other_frame, matches)


def assert_store_rows_match_reference(frame, matches):
    rows = frame_to_store_records(frame, matches)
    want = column_store_records(frame, matches)
    assert rows.dtype == want.dtype == STORE_DTYPE
    assert rows.tobytes() == want.tobytes()
    return rows


def test_store_rows_match_reference_with_unmatched_rows(sky):
    template, _ = sky
    frame = observe_frame(template, 75.0, [], MODEL, CFG)
    half = build_zone_index(template.to_records(CFG)[::2], CFG.zone_height_deg)
    matches = range_join(frame.records, half, CFG.match_radius_deg)
    assert matches.n_matched and matches.n_unmatched
    rows = assert_store_rows_match_reference(frame, matches)
    assert np.count_nonzero(rows["star_id"] == UNMATCHED_STAR_ID) == matches.n_unmatched


def test_store_rows_match_reference_for_strided_view(sky):
    frame, _ = frame_at(sky, 90.0)
    view = replace(frame, records=frame.records[::2])
    assert not view.records.flags.c_contiguous
    matches = range_join(view.records, sky[1], CFG.match_radius_deg)
    rows = assert_store_rows_match_reference(view, matches)
    assert len(rows) == len(view.records)


def test_store_rows_keep_nan_and_negative_zero(sky):
    frame, matches = frame_at(sky, 105.0)
    records = frame.records.copy()
    floats = [name for name in TABLE2_COLUMNS if records.dtype[name].kind == "f"]
    for name in floats:
        records[name][0::3] = np.nan
        records[name][1::3] = -0.0
    rows = assert_store_rows_match_reference(replace(frame, records=records), matches)
    for name in floats:
        assert np.all(np.isnan(rows[name][0::3]))
        assert np.all(np.signbit(rows[name][1::3]) & (rows[name][1::3] == 0.0))


def test_store_rows_for_empty_frame(sky):
    frame, _ = frame_at(sky, 120.0)
    empty = replace(frame, records=frame.records[:0])
    matches = range_join(empty.records, sky[1], CFG.match_radius_deg)
    rows = assert_store_rows_match_reference(empty, matches)
    assert len(rows) == 0 and rows.dtype == STORE_DTYPE


def test_frame_to_store_records_rejects_other_row_layouts(sky):
    # a byte copy (like a structured cast) would pair fields by position
    frame, matches = frame_at(sky, 135.0)
    reordered = np.dtype(list(reversed(RECORD_DTYPE.descr)))
    big_endian = RECORD_DTYPE.newbyteorder(">")
    padded = np.dtype(RECORD_DTYPE.descr + [("extra", "u1")])
    for dtype in (reordered, big_endian, padded):
        records = np.zeros(len(frame.records), dtype=dtype)
        for name in TABLE2_COLUMNS:
            records[name] = frame.records[name]
        with pytest.raises(DomainError):
            frame_to_store_records(replace(frame, records=records), matches)


# ---------------------------------------------------------------------------
# delta log


def test_delta_insert_ack_and_layout(tmp_path, sky):
    store = NightStore(tmp_path, partition_id=3)
    frame, matches = frame_at(sky, 15.0)
    ack = store.delta_insert(frame, frame_to_store_records(frame, matches))
    assert ack.records == len(frame.records)
    assert ack.night_id == 0
    expected = (
        tmp_path / "partition_03" / "delta" / "night_00000"
        / f"seg_{frame.imageid:08d}.tdl"
    )
    assert ack.segment_path == expected
    assert expected.is_file()


def test_delta_insert_requires_increasing_epoch(tmp_path, sky):
    store = NightStore(tmp_path, partition_id=0)
    frame, matches = frame_at(sky, 15.0)
    store.delta_insert(frame, frame_to_store_records(frame, matches))
    with pytest.raises(SequenceError):
        store.delta_insert(frame, frame_to_store_records(frame, matches))  # same epoch again
    older, older_m = frame_at(sky, 0.0)
    with pytest.raises(SequenceError):
        store.delta_insert(older, frame_to_store_records(older, older_m))


def test_delta_insert_refuses_a_negative_epoch(tmp_path, sky):
    # night_of(-15) is -1, a night no read, merge or reopen would ever see
    store = NightStore(tmp_path, partition_id=0)
    frame, matches = frame_at(sky, 0.0)
    with pytest.raises(DomainError, match="negative"):
        before = replace(frame, imageid=-1, epoch=-15.0)
        store.delta_insert(before, frame_to_store_records(before, matches))
    assert not list(tmp_path.rglob("seg_*"))
    store.delta_insert(frame, frame_to_store_records(frame, matches))
    assert len(store.query_records()) == len(frame.records)


def test_delta_insert_refuses_a_repeated_record_id(tmp_path, sky):
    store = NightStore(tmp_path, partition_id=0)
    frame, matches = frame_at(sky, 15.0)
    rows = frame_to_store_records(frame, matches)
    for a, b in ((4, 5), (len(rows) - 1, 0)):  # beside each other, then far apart
        repeated = rows.copy()
        repeated["id"][b] = repeated["id"][a]
        with pytest.raises(DomainError, match=f"record id {rows['id'][a]} repeats"):
            store.delta_insert(frame, repeated)
        assert not list(tmp_path.rglob("seg_*")) and store.stats.records_ingested == 0
    store.delta_insert(frame, rows[::-1].copy())  # unique ids in any order are stored
    assert len(store.query_records()) == len(rows)


# ---------------------------------------------------------------------------
# the file writer


def frame_of(sky, n, epoch=15.0):
    """A frame of ``n`` rows: the sky frame's rows repeated, under new ids."""
    frame, _ = frame_at(sky, epoch)
    records = np.resize(frame.records, n)
    records["id"] = frame.records["id"][0] + np.arange(n, dtype=np.uint64)
    return replace(frame, records=records), range_join(records, sky[1], CFG.match_radius_deg)


def segment_header(n, epoch):
    return DELTA_MAGIC + np.uint64(n).tobytes() + np.float64(epoch).tobytes()


@pytest.mark.parametrize("n", [0, 1, 3683, 3684, 3685])
def test_written_files_are_the_header_then_the_rows(tmp_path, sky, n):
    """At n = 3684 a segment, 20 + 179 n bytes, is exactly 161 pages."""
    frame, matches = frame_of(sky, n)
    rows = frame_to_store_records(frame, matches)
    ack = NightStore(tmp_path, 0).delta_insert(frame, rows)
    assert ack.segment_path.read_bytes() == segment_header(n, frame.epoch) + rows.tobytes()
    path = tmp_path / "frame.tds"
    write_records_bin(path, frame.records)
    assert path.read_bytes() == b"TDS1" + np.uint64(n).tobytes() + frame.records.tobytes()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize(
    "kind", ["built", "take_rows", "head", "page-aligned-tail", "strided", "other-epoch"]
)
def test_rows_outside_their_segment_buffer_are_copied(tmp_path, sky, monkeypatch, kind):
    """Only rows built for the frame are written from their own buffer; any
    other rows are copied, and no byte around the given rows is written."""
    frame, matches = frame_of(sky, 5000)
    rows = frame_to_store_records(frame, matches)
    around = rows.base.tobytes()  # the buffer the rows sit in
    given, epoch = {
        "built": (rows, frame.epoch),
        "take_rows": (take_rows(rows, np.arange(len(rows))), frame.epoch),
        "head": (rows[:-1], frame.epoch),
        "page-aligned-tail": (rows[4096:], frame.epoch),  # 179 * 4096 bytes in: a page boundary
        "strided": (rows[::2], frame.epoch),
        "other-epoch": (rows, frame.epoch + 15.0),
    }[kind]
    copies = []
    page_buffer = store_mod._page_buffer
    monkeypatch.setattr(
        store_mod, "_page_buffer", lambda *args: copies.append(args) or page_buffer(*args)
    )
    ack = NightStore(tmp_path, 0).delta_insert(replace(frame, epoch=epoch), given)
    assert ack.segment_path.read_bytes() == segment_header(len(given), epoch) + given.tobytes()
    assert len(copies) == (kind != "built")
    assert rows.base.tobytes() == around


def test_file_write_without_direct_io_gives_the_same_bytes(tmp_path, sky, monkeypatch):
    frame, matches = frame_at(sky, 15.0)
    rows = frame_to_store_records(frame, matches)
    want = NightStore(tmp_path / "direct", 0).delta_insert(frame, rows).segment_path.read_bytes()
    real_open, opened = os.open, []

    def refuse_direct_io(path, flags, *args):
        opened.append(flags)
        if flags & os.O_DIRECT:
            raise OSError(errno.EINVAL, "direct I/O refused")
        return real_open(path, flags, *args)

    with monkeypatch.context() as patch:
        patch.setattr(store_mod.os, "open", refuse_direct_io)
        ack = NightStore(tmp_path / "buffered", 0).delta_insert(frame, rows)
        path = tmp_path / "frame.tds"
        write_records_bin(path, frame.records)
    assert ack.segment_path.read_bytes() == want
    assert path.read_bytes() == b"TDS1" + np.uint64(len(rows)).tobytes() + frame.records.tobytes()
    assert [flags & os.O_DIRECT for flags in opened[:2]] == [os.O_DIRECT, 0]
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("call", ["write", "fsync"])
def test_failed_file_write_raises_and_leaves_no_temp_file(tmp_path, sky, monkeypatch, call):
    store = NightStore(tmp_path, 0)
    frame, matches = frame_at(sky, 15.0)
    rows = frame_to_store_records(frame, matches)

    def fail(*args):
        raise OSError(errno.EIO, f"injected {call} failure")

    with monkeypatch.context() as patch:
        patch.setattr(store_mod.os, call, fail)
        with pytest.raises(StorageError, match=f"injected {call} failure"):
            store.delta_insert(frame, rows)
        with pytest.raises(StorageError, match=f"injected {call} failure"):
            write_records_bin(tmp_path / "frame.tds", frame.records)
    assert not list(tmp_path.rglob("*.tmp"))
    assert not list(tmp_path.rglob("seg_*.tdl")) and not (tmp_path / "frame.tds").exists()
    ack = store.delta_insert(frame, rows)  # the failed insert left the store as it was
    assert ack.segment_path.read_bytes() == segment_header(len(rows), frame.epoch) + rows.tobytes()


def test_insert_fsyncs_its_directory_and_the_parent_of_each_it_made(tmp_path, sky, monkeypatch):
    store = NightStore(tmp_path, 0)
    events = []
    real_fsync, real_replace = store_mod.os.fsync, store_mod.os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd)))
        real_fsync(fd)

    def replace_(src, dst):
        real_replace(src, dst)
        events.append(("replace", Path(dst)))

    monkeypatch.setattr(store_mod.os, "fsync", fsync)
    monkeypatch.setattr(store_mod.os, "replace", replace_)

    def synced_after_commit(epoch):
        events.clear()
        frame, matches = frame_at(sky, epoch)
        ack = store.delta_insert(frame, frame_to_store_records(frame, matches))
        # the rename is the commit; the entries it needs must reach the disk after it
        commit = events.index(("replace", ack.segment_path))
        return {
            (st.st_dev, st.st_ino)
            for kind, st in events[commit + 1:]
            if kind == "fsync" and stat.S_ISDIR(st.st_mode)
        }

    def dirs(*paths):
        return {(os.stat(p).st_dev, os.stat(p).st_ino) for p in paths}

    night0, night1 = store.delta_dir / "night_00000", store.delta_dir / "night_00001"
    # the first insert made partition_00/, delta/ and night_00000/
    assert synced_after_commit(15.0) == dirs(night0, store.delta_dir, store.root, tmp_path)
    assert synced_after_commit(30.0) == dirs(night0)
    assert synced_after_commit(86415.0) == dirs(night1, store.delta_dir)


def test_bytes_on_disk_is_the_size_of_the_partition_files(tmp_path, sky):
    def file_bytes():
        files = [p for p in (tmp_path / "partition_00").rglob("*") if p.is_file()]
        return sum(p.stat().st_size for p in files)

    store, _ = fill_store(tmp_path, sky, [15.0, 30.0, SECONDS_PER_DAY + 15.0])
    assert store.stats.bytes_on_disk == file_bytes() > 0
    store.nightly_merge()
    assert store.stats.bytes_on_disk == file_bytes()
    frame, matches = frame_at(sky, 2 * SECONDS_PER_DAY)
    store.delta_insert(frame, frame_to_store_records(frame, matches))
    reopened = NightStore(tmp_path, partition_id=0)
    assert reopened.stats.bytes_on_disk == store.stats.bytes_on_disk == file_bytes()


def test_reopen_reads_one_segment_header(tmp_path, sky):
    fill_store(tmp_path, sky, [n * SECONDS_PER_DAY + e for n in range(3) for e in (15.0, 30.0)])
    with mock.patch.object(store_mod, "_read_header", wraps=store_mod._read_header) as read:
        reopened = NightStore(tmp_path, partition_id=0)
    assert read.call_count == 1
    frame, matches = frame_at(sky, 2 * SECONDS_PER_DAY + 30.0)
    with pytest.raises(SequenceError):  # the guard still comes from the newest segment
        reopened.delta_insert(frame, frame_to_store_records(frame, matches))


def test_reopen_resumes_epoch_guard(tmp_path, sky):
    store = NightStore(tmp_path, partition_id=0)
    frame, matches = frame_at(sky, 15.0)
    store.delta_insert(frame, frame_to_store_records(frame, matches))
    del store
    reopened = NightStore(tmp_path, partition_id=0)
    with pytest.raises(SequenceError):
        reopened.delta_insert(frame, frame_to_store_records(frame, matches))
    nxt, nxt_m = frame_at(sky, 30.0)
    ack = reopened.delta_insert(nxt, frame_to_store_records(nxt, nxt_m))
    assert ack.records == len(nxt.records)


# ---------------------------------------------------------------------------
# merge


def fill_store(root, sky, epochs, partition_id=0):
    store = NightStore(root, partition_id)
    rows = []
    for e in epochs:
        frame, matches = frame_at(sky, e)
        rows.append(frame_to_store_records(frame, matches))
        store.delta_insert(frame, rows[-1])
    return store, np.concatenate(rows)


def canonical(records):
    order = np.lexsort((records["id"], records["epoch"]))
    return records[order].tobytes()


@pytest.mark.parametrize("merge_after", [1, 2], ids=["after_base", "after_first_segment"])
def test_read_racing_a_merge_sees_one_state_or_names_the_lost_file(tmp_path, sky, merge_after):
    """A merge that commits between a reader's file reads cannot tear the read."""
    epochs = [n * SECONDS_PER_DAY + e for n in range(2) for e in (15.0, 30.0, 45.0)]
    writer, first = fill_store(tmp_path, sky, epochs[:3])
    writer.nightly_merge()  # night 0 is the base; night 1 stays three segments
    _, second = fill_store(tmp_path, sky, epochs[3:])
    expected = canonical(np.concatenate([first, second]))
    reader, real, reads = NightStore(tmp_path, partition_id=0), store_mod._read_rows, []

    def read_then_merge(*args, **kwargs):
        out = real(*args, **kwargs)
        reads.append(args[0])
        if len(reads) == merge_after:
            writer.nightly_merge()
        return out

    with mock.patch.object(store_mod, "_read_rows", read_then_merge):
        try:
            got = reader.query_records()
        except StorageError as exc:
            assert "seg_" in str(exc)  # the segment the merge swept
        else:
            assert canonical(got) == expected
    assert not any(writer.all_segments())  # the merge ran, mid-read
    assert canonical(reader.query_records()) == expected


def test_merge_preserves_record_multiset(tmp_path, sky):
    epochs = [15.0 * k for k in range(1, 8)] + [86400.0 + 15.0 * k for k in range(1, 5)]
    store, inserted = fill_store(tmp_path, sky, epochs)
    before = store.query_records()
    report = store.nightly_merge()
    after = store.query_records()
    assert canonical(before) == canonical(after) == canonical(inserted)
    assert report.noop is False
    assert report.nights == [0, 1]
    assert report.records_merged == len(inserted)
    # the base run is the only remaining layer
    assert report.base_path.name == "base_through_00001.tdb"
    assert not any((tmp_path / "partition_00" / "delta").iterdir())


def test_base_run_sort_order(tmp_path, sky):
    store, _ = fill_store(tmp_path, sky, [15.0, 30.0, 45.0])
    report = store.nightly_merge()
    base, _ = _read_rows(report.base_path, BASE_MAGIC, STORE_DTYPE)
    keys = list(zip(base["star_id"], base["epoch"], base["id"]))
    assert keys == sorted(keys)


def test_noop_merge_leaves_base_bytes_untouched(tmp_path, sky):
    store, _ = fill_store(tmp_path, sky, [15.0, 30.0])
    first = store.nightly_merge()
    payload = first.base_path.read_bytes()
    second = store.nightly_merge()
    assert second.noop is True
    assert second.records_merged == 0
    assert second.base_path == first.base_path
    assert first.base_path.read_bytes() == payload


def test_insert_into_merged_night_rejected(tmp_path, sky):
    store, _ = fill_store(tmp_path, sky, [15.0, 30.0])
    store.nightly_merge()
    frame, matches = frame_at(sky, 45.0)  # night 0 is already folded
    with pytest.raises(SequenceError):
        store.delta_insert(frame, frame_to_store_records(frame, matches))
    day2, day2_m = frame_at(sky, 86400.0 + 15.0)
    ack = store.delta_insert(day2, frame_to_store_records(day2, day2_m))
    assert ack.night_id == 1


def test_incremental_merge_equals_single_merge(tmp_path, sky):
    epochs_a = [15.0 * k for k in range(1, 6)]
    epochs_b = [86400.0 + 15.0 * k for k in range(1, 6)]

    one, _ = fill_store(tmp_path / "one", sky, epochs_a + epochs_b)
    one.nightly_merge()

    two, _ = fill_store(tmp_path / "two", sky, epochs_a)
    two.nightly_merge()
    for e in epochs_b:
        frame, matches = frame_at(sky, e)
        two.delta_insert(frame, frame_to_store_records(frame, matches))
    two.nightly_merge()

    assert one.base_path().read_bytes() == two.base_path().read_bytes()


def layer_rows(store):
    """The rows of every layer a merge of ``store`` reads, in read order."""
    layers = []
    if store.base_path() is not None:
        layers.append(_read_rows(store.base_path(), BASE_MAGIC, STORE_DTYPE)[0])
    for seg in store.all_segments():
        layers.append(_read_rows(seg, DELTA_MAGIC, STORE_DTYPE)[0])
    return layers


# Each night is (template stars indexed, frames, frames with no rows, merge
# after it).  With no star indexed every row is stored as a candidate.
MERGE_PLANS = {
    "no_base": [("all", 4, (), True)],
    "candidate_base": [("none", 3, (), True), ("all", 3, (), True)],
    "stars_only_in_base_or_delta": [("even", 3, (), True), ("thirds", 3, (), True)],
    "two_unmerged_nights": [
        ("all", 3, (), True), ("even", 2, (), False), ("thirds", 2, (), True),
    ],
    "empty_segments": [
        ("all", 3, (0,), True), ("all", 2, (0, 1), True), ("all", 3, (2,), True),
    ],
}


@pytest.mark.parametrize("chunk_rows", [1, 7, 100, store_mod.MERGE_CHUNK_ROWS])
@pytest.mark.parametrize("plan", sorted(MERGE_PLANS))
def test_streamed_merge_equals_concatenate_and_sort(
    tmp_path, sky, monkeypatch, plan, chunk_rows
):
    # chunks of a few rows split one star's base rows across chunk boundaries
    monkeypatch.setattr(store_mod, "MERGE_CHUNK_ROWS", chunk_rows)
    template, _ = sky
    stars = template.to_records(CFG)
    indexes = {
        "all": stars, "none": stars[:0], "even": stars[::2], "thirds": stars[::3],
    }
    store = NightStore(tmp_path, 0)
    merges = 0
    for night, (indexed, frames, empty, merge) in enumerate(MERGE_PLANS[plan]):
        index = build_zone_index(indexes[indexed], CFG.zone_height_deg)
        for k in range(frames):
            frame = observe_frame(template, night * 86400.0 + 15.0 * (k + 1), [], MODEL, CFG)
            if k in empty:
                frame = replace(frame, records=frame.records[:0])
            matches = range_join(frame.records, index, CFG.match_radius_deg)
            store.delta_insert(frame, frame_to_store_records(frame, matches))
        if not merge:
            continue
        expected = concatenate_and_sort_merge(layer_rows(store))
        report = store.nightly_merge()
        merges += 1
        assert report.records_merged == len(expected)
        header = BASE_MAGIC + np.uint64(len(expected)).tobytes()
        assert report.base_path.read_bytes() == header + expected.tobytes()
    assert merges >= 1 and len(expected) > 0


def test_merge_refuses_delta_rows_of_a_closed_night(tmp_path, sky):
    store, _ = fill_store(tmp_path / "store", sky, [15.0, 86400.0 + 15.0])
    base = store.nightly_merge().base_path  # closes nights 0 and 1
    # a night-0 segment planted in a later night's directory
    donor, _ = fill_store(tmp_path / "donor", sky, [30.0])
    planted = store.delta_dir / "night_00002" / "seg_00000777.tdl"
    planted.parent.mkdir(parents=True)
    planted.write_bytes(next(donor.all_segments()).read_bytes())
    payload = base.read_bytes()
    with pytest.raises(StorageError, match="seg_00000777"):
        store.nightly_merge()
    assert store.base_path() == base and base.read_bytes() == payload
    assert not list(store.base_dir.glob("*.staging"))


def night_frames(sky, night, frames):
    return [frame_at(sky, night * 86400.0 + 15.0 * (k + 1)) for k in range(frames)]


def test_merge_memory_grows_with_the_night_not_the_history(tmp_path, sky, monkeypatch):
    monkeypatch.setattr(store_mod, "MERGE_CHUNK_ROWS", 1024)
    store = NightStore(tmp_path, 0)
    for frame, matches in night_frames(sky, 0, 200):
        store.delta_insert(frame, frame_to_store_records(frame, matches))
    base = store.nightly_merge().base_path
    night_bytes = 0
    for frame, matches in night_frames(sky, 1, 10):
        ack = store.delta_insert(frame, frame_to_store_records(frame, matches))
        night_bytes += ack.records * STORE_RECORD_SIZE
    assert base.stat().st_size >= 20 * night_bytes
    tracemalloc.start()
    try:
        store.nightly_merge()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the night's segments and their sorted copy, then the sorted night, a
    # base chunk and its merged copy; the whole history would be 60 times more
    assert peak < 2 * night_bytes + 3 * 1024 * STORE_RECORD_SIZE


def test_full_scan_holds_its_layers_and_one_output(tmp_path, sky):
    store, _ = fill_store(tmp_path, sky, [15.0 * k for k in range(1, 61)])
    store.nightly_merge()
    for frame, matches in night_frames(sky, 1, 30):
        store.delta_insert(frame, frame_to_store_records(frame, matches))
    tracemalloc.start()
    try:
        rows = store.query_records()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * rows.nbytes


# ---------------------------------------------------------------------------
# crash recovery


def plant_leftovers(part):
    """A torn segment write and an uncommitted merge output."""
    junk = part / "delta" / "night_00000" / "seg_00000099.tdl.tmp"
    junk.write_bytes(b"torn segment write")
    staging = part / "base" / "base_through_00000.tdb.staging"
    staging.parent.mkdir(exist_ok=True)  # only a merge makes base/
    staging.write_bytes(b"partial merge output that never committed")
    return junk, staging


def test_recover_discards_uncommitted_staging(tmp_path, sky):
    store, inserted = fill_store(tmp_path, sky, [15.0, 30.0])
    junk, staging = plant_leftovers(tmp_path / "partition_00")

    reopened = NightStore(tmp_path, partition_id=0)
    # reads skip the leftovers; only the next merge deletes them
    assert canonical(reopened.query_records()) == canonical(inserted)
    assert junk.exists() and staging.exists()
    report = reopened.nightly_merge()
    assert report.records_merged == len(inserted)
    assert not junk.exists()
    assert not staging.exists()


def test_readers_never_delete(tmp_path, sky):
    _, inserted = fill_store(tmp_path, sky, [15.0, 30.0])
    junk, staging = plant_leftovers(tmp_path / "partition_00")
    got = query_stores(open_partitions(tmp_path, [0]), QueryPredicate())
    assert junk.exists() and staging.exists()
    assert canonical(got) == canonical(inserted)


def test_merge_commit_fsyncs_base_directory(tmp_path, sky, monkeypatch):
    store, _ = fill_store(tmp_path, sky, [15.0, 30.0])
    events = []
    real_fsync, real_replace = store_mod.os.fsync, store_mod.os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd)))
        real_fsync(fd)

    def replace(src, dst):
        real_replace(src, dst)
        events.append(("replace", Path(dst)))

    monkeypatch.setattr(store_mod.os, "fsync", fsync)
    monkeypatch.setattr(store_mod.os, "replace", replace)
    report = store.nightly_merge()
    monkeypatch.undo()
    # the rename is the commit; its directory entry must reach the disk after it
    commit = events.index(("replace", report.base_path))
    base_dir, root = os.stat(store.base_dir), os.stat(store.root)
    synced_dirs = [
        (st.st_dev, st.st_ino)
        for kind, st in events[commit + 1:]
        if kind == "fsync" and stat.S_ISDIR(st.st_mode)
    ]
    assert (base_dir.st_dev, base_dir.st_ino) in synced_dirs
    assert (root.st_dev, root.st_ino) in synced_dirs  # this merge made base/


def test_recover_completes_committed_merge(tmp_path, sky, monkeypatch):
    epochs = [15.0, 30.0, 45.0]
    clean, _ = fill_store(tmp_path / "clean", sky, epochs)
    clean.nightly_merge()

    crashed, inserted = fill_store(tmp_path / "crashed", sky, epochs)
    # simulate dying right after the base rename: the commit has happened but
    # the folded delta segments were never swept
    monkeypatch.setattr(NightStore, "recover", lambda self: None)
    crashed.nightly_merge()
    monkeypatch.undo()
    part = tmp_path / "crashed" / "partition_00"
    assert (part / "base" / "base_through_00000.tdb").is_file()
    assert any((part / "delta").iterdir())  # stale segments still present

    reopened = NightStore(tmp_path / "crashed", partition_id=0)
    # the stale night is skipped by the read rule, so no row comes back twice
    assert canonical(reopened.query_records()) == canonical(inserted)
    assert any((part / "delta").iterdir())
    report = reopened.nightly_merge()
    assert report.noop is True
    assert not any((part / "delta").iterdir())
    assert (
        reopened.base_path().read_bytes() == clean.base_path().read_bytes()
    )


def test_interrupted_then_retried_merge_converges(tmp_path, sky):
    epochs = [15.0 * k for k in range(1, 10)]
    clean, _ = fill_store(tmp_path / "clean", sky, epochs)
    clean.nightly_merge()

    crashed, _ = fill_store(tmp_path / "crashed", sky, epochs)
    real_replace = NightStore.nightly_merge

    import tdcat.store as store_mod

    def boom(src, dst):
        raise OSError("simulated power loss before commit")

    orig = store_mod.os.replace
    store_mod.os.replace = boom
    try:
        with pytest.raises(OSError):
            crashed.nightly_merge()
    finally:
        store_mod.os.replace = orig
    assert crashed.base_path() is None  # nothing committed

    reopened = NightStore(tmp_path / "crashed", partition_id=0)
    report = real_replace(reopened)
    assert report.noop is False
    assert reopened.base_path().read_bytes() == clean.base_path().read_bytes()


def test_store_matches_row_list_model(tmp_path, sky):
    """Random insert, crash, merge and reopen sequences against a plain list."""
    run_state_machine_as_test(
        lambda: StoreMachine(tmp_path, sky),
        settings=settings(
            max_examples=25, stateful_step_count=15, derandomize=True,
            deadline=None, database=None,
        ),
    )


class StoreMachine(RuleBasedStateMachine):
    """The model is the list of committed rows plus the newest merged night."""

    def __init__(self, parent, sky):
        super().__init__()
        self.sky = sky
        self.root = Path(tempfile.mkdtemp(dir=parent))
        self.store = NightStore(self.root, 0)
        self.rows = [np.zeros(0, STORE_DTYPE)]  # every committed row
        self.epoch = 0.0  # last epoch offered to the store
        self.merged_night = -1  # newest night folded into the base
        self.open_nights = set()  # night directories after merged_night

    def teardown(self):
        shutil.rmtree(self.root)

    def files(self):
        return sorted(p.relative_to(self.root) for p in self.root.rglob("*"))

    def night_dir(self):
        night = night_of(self.epoch)
        if night > self.merged_night:
            self.open_nights.add(night)
        path = self.store.delta_dir / f"night_{night:05d}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    @rule(next_night=st.booleans())
    def insert(self, next_night):
        if next_night:
            self.epoch = (night_of(self.epoch) + 1) * 86400.0
        self.epoch += 15.0
        frame, matches = frame_at(self.sky, self.epoch)
        if night_of(self.epoch) <= self.merged_night:
            with pytest.raises(SequenceError):
                self.store.delta_insert(frame, frame_to_store_records(frame, matches))
            return
        self.night_dir()
        self.rows.append(frame_to_store_records(frame, matches))
        self.store.delta_insert(frame, self.rows[-1])

    @rule(staging=st.booleans())
    def leave_torn_file(self, staging):
        if staging:
            path = self.store.base_dir / "base_through_00000.tdb.staging"
            path.parent.mkdir(parents=True, exist_ok=True)  # as the merge does
        else:
            path = self.night_dir() / "seg_99999999.tdl.tmp"
        path.write_bytes(b"torn write")

    def committed_merge(self):
        if self.open_nights:
            self.merged_night = max(self.open_nights)
            self.open_nights.clear()

    @rule()
    def merge(self):
        self.store.nightly_merge()
        self.committed_merge()
        left = [p for p in self.files() if p.suffix in (".tmp", ".staging")]
        assert left == []
        assert len(self.store._base_files()) <= 1
        assert not any(self.store.delta_dir.glob("*"))  # absent before any insert

    @precondition(lambda self: self.open_nights)  # an empty merge commits nothing
    @rule()
    def merge_fails_at_commit(self):
        with mock.patch.object(store_mod.os, "replace", side_effect=OSError("crash")):
            with pytest.raises(OSError):
                self.store.nightly_merge()

    @rule()
    def merge_skips_sweep(self):
        with mock.patch.object(NightStore, "recover", lambda self: None):
            self.store.nightly_merge()
        self.committed_merge()

    @rule()
    def reopen(self):
        before = self.files()
        self.store = NightStore(self.root, 0)
        assert self.files() == before

    @rule(star_id=st.one_of(st.none(), st.integers(-1, 310)))
    def query(self, star_id):
        before = self.files()
        got = self.store.query_records(star_id=star_id)
        assert self.files() == before
        expected = np.concatenate(self.rows)
        if star_id is not None:
            expected = expected[expected["star_id"] == star_id]
        assert canonical(got) == canonical(expected)


# ---------------------------------------------------------------------------
# queries


def test_query_filters_match_bruteforce(tmp_path, sky):
    epochs = [15.0 * k for k in range(1, 12)]
    store, inserted = fill_store(tmp_path, sky, epochs[:6])
    store.nightly_merge()  # half in base
    for e in epochs[6:]:
        frame, matches = frame_at(sky, 86400.0 + e)
        rows = frame_to_store_records(frame, matches)
        store.delta_insert(frame, rows)
        inserted = np.concatenate([inserted, rows])

    def brute(star_id=None, lo=None, hi=None, cand=True):
        keep = np.ones(len(inserted), dtype=bool)
        if star_id is not None:
            keep &= inserted["star_id"] == star_id
        if lo is not None:
            keep &= inserted["epoch"] >= lo
        if hi is not None:
            keep &= inserted["epoch"] <= hi
        if not cand:
            keep &= inserted["candidate"] == 0
        return canonical(inserted[keep])

    some_star = int(inserted["star_id"][inserted["star_id"] >= 0][0])
    cases = [
        dict(),
        dict(star_id=some_star),
        dict(star_id=999999),
        dict(epoch_min=40.0),
        dict(epoch_max=86400.0),
        dict(epoch_min=30.0, epoch_max=86500.0),
        dict(include_candidates=False),
        dict(star_id=some_star, epoch_min=40.0, include_candidates=False),
    ]
    for kw in cases:
        got = store.query_records(**kw)
        assert canonical(got) == brute(
            kw.get("star_id"), kw.get("epoch_min"), kw.get("epoch_max"),
            kw.get("include_candidates", True),
        )
        assert np.all(np.diff(got["epoch"]) >= 0)


def full_scan_star_query(store, star_id, epoch_min=None, epoch_max=None,
                         include_candidates=True):
    """Every layer read whole, masked, then put in (epoch, id) order."""
    layers = [_read_rows(store.base_path(), BASE_MAGIC, STORE_DTYPE)[0]]
    for seg in store.all_segments():
        layers.append(_read_rows(seg, DELTA_MAGIC, STORE_DTYPE)[0])
    parts = []
    for rec in layers:
        keep = rec["star_id"] == star_id
        if epoch_min is not None:
            keep &= rec["epoch"] >= epoch_min
        if epoch_max is not None:
            keep &= rec["epoch"] <= epoch_max
        if not include_candidates:
            keep &= rec["candidate"] == 0
        parts.append(rec[keep])
    out = np.concatenate(parts)
    return out[np.lexsort((out["id"], out["epoch"]))]


def test_star_query_equals_full_scan_byte_for_byte(tmp_path, sky):
    # half the template is indexed, so every frame also stores candidates and
    # the odd template stars never appear: ids missing between present ones
    template, _ = sky
    half = build_zone_index(template.to_records(CFG)[::2], CFG.zone_height_deg)
    store = NightStore(tmp_path, 0)
    for night in range(3):
        for k in range(1, 4):
            epoch = night * 86400.0 + 15.0 * k
            frame = observe_frame(template, epoch, [], MODEL, CFG)
            matches = range_join(frame.records, half, CFG.match_radius_deg)
            store.delta_insert(frame, frame_to_store_records(frame, matches))
        if night == 0:
            store.nightly_merge()  # nights 1 and 2 stay in the delta log
    base, _ = _read_rows(store.base_path(), BASE_MAGIC, STORE_DTYPE)
    assert len(list(store.all_segments())) == 6
    present = set(base["star_id"].tolist())
    stars = template.stars["id"].astype(int)
    missing = [s for s in range(min(present), max(present)) if s not in present]
    assert UNMATCHED_STAR_ID in present and missing
    ids = sorted(set(stars) | {UNMATCHED_STAR_ID, -5, max(stars) + 1, missing[0]})
    windows = [
        dict(),
        dict(epoch_min=30.0),
        dict(epoch_max=86400.0 + 30.0),
        dict(epoch_min=45.0, epoch_max=2 * 86400.0 + 15.0),
        dict(epoch_min=86400.0 + 16.0, epoch_max=86400.0 + 44.0),
        dict(include_candidates=False),
        dict(epoch_min=30.0, include_candidates=False),
    ]
    hits = 0
    for star_id in ids:
        rows, _ = _read_rows(store.base_path(), BASE_MAGIC, STORE_DTYPE, star_id=star_id)
        assert rows.tobytes() == base[base["star_id"] == star_id].tobytes()
        for kw in windows:
            got = store.query_records(star_id=star_id, **kw)
            want = full_scan_star_query(store, star_id, **kw)
            assert got.dtype == STORE_DTYPE
            assert got.tobytes() == want.tobytes(), (star_id, kw)
            hits += len(got) > 0
    assert hits > len(ids)


def test_star_query_on_empty_base(tmp_path, sky):
    store = NightStore(tmp_path, 0)
    for k in range(1, 3):
        frame, _ = frame_at(sky, 15.0 * k)
        empty = replace(frame, records=frame.records[:0])
        matches = range_join(empty.records, sky[1], CFG.match_radius_deg)
        store.delta_insert(empty, frame_to_store_records(empty, matches))
    report = store.nightly_merge()
    assert report.records_merged == 0 and report.base_path.stat().st_size == 12
    for star_id in (UNMATCHED_STAR_ID, 0, 7):
        got = store.query_records(star_id=star_id)
        assert len(got) == 0 and got.dtype == STORE_DTYPE


def test_star_query_rejects_damaged_base(tmp_path, sky):
    store, inserted = fill_store(tmp_path, sky, [15.0, 30.0])
    base = store.nightly_merge().base_path
    star_id = int(inserted["star_id"][inserted["star_id"] >= 0][0])
    payload = base.read_bytes()
    base.write_bytes(payload[:-1])
    with pytest.raises(StorageError, match="truncated"):
        store.query_records(star_id=star_id)
    base.write_bytes(b"TDL1" + payload[4:])
    with pytest.raises(StorageError, match="not a TDB1"):
        store.query_records(star_id=star_id)


def test_star_query_rows_are_a_writable_copy(tmp_path, sky):
    store, inserted = fill_store(tmp_path, sky, [15.0, 30.0])
    old_base = store.nightly_merge().base_path
    star_id = int(inserted["star_id"][inserted["star_id"] >= 0][0])
    rows, _ = _read_rows(old_base, BASE_MAGIC, STORE_DTYPE, star_id=star_id)
    got = store.query_records(star_id=star_id)
    for arr in (rows, got):
        assert type(arr) is np.ndarray and arr.flags.writeable and arr.flags.owndata
    assert len(rows) == 2 and np.all(rows["star_id"] == star_id)
    rows["mag"] = 0.0  # the file is unchanged
    assert canonical(store.query_records(star_id=star_id)) == canonical(got)
    # no mapping outlives the read, so the next merge replaces and sweeps it
    frame, matches = frame_at(sky, 86400.0 + 15.0)
    store.delta_insert(frame, frame_to_store_records(frame, matches))
    new_base = store.nightly_merge().base_path
    assert new_base != old_base and not old_base.exists()
    assert list(new_base.parent.iterdir()) == [new_base]
    assert len(store.query_records(star_id=star_id)) == 3


# ---------------------------------------------------------------------------
# capacity planning


def test_capacity_plan_arithmetic():
    row = capacity_plan(CFG, days=1)
    # 1920 frames x 175600 sources x 36 cameras
    assert row.records == 36 * 1920 * 175600
    assert row.bytes == row.records * STORE_RECORD_SIZE
    single = capacity_plan(EngineConfig(cameras=1), days=1)
    assert single.records == 337_152_000


def test_capacity_table_sig_figs():
    rows = {(r.cameras, r.days): r for r in capacity_table(CFG)}
    assert set(rows) == {(1, 1), (1, 260), (1, 2600), (36, 1), (36, 260), (36, 2600)}

    def sig3(x):
        return float(f"{x:.2e}")

    assert sig3(rows[(1, 1)].records) == 3.37e8
    assert sig3(rows[(1, 260)].records) == 8.77e10
    assert sig3(rows[(1, 2600)].records) == 8.77e11
    assert sig3(rows[(36, 1)].records) == 1.21e10
    assert sig3(rows[(36, 260)].records) == 3.16e12
    assert sig3(rows[(36, 2600)].records) == 3.16e13


def test_capacity_plan_validation():
    with pytest.raises(DomainError):
        capacity_plan(CFG, days=-1)
    with pytest.raises(DomainError):
        capacity_plan(CFG, days=1, bytes_per_record=0)
