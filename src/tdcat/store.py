"""Append-only micro-batch ingestion with nightly merge, the on-disk formats,
and the one read across partition stores (``query_stores``).

Three fixed-width little-endian binary layouts, all documented in the README:

  TDS1  interchange frame/template file: magic ``TDS1``, record count (u64),
        then catalog rows in column order (162 bytes per row).
  TDL1  delta-log segment, one per ingested frame: magic ``TDL1``, record
        count (u64), frame epoch (f64), then store rows.
  TDB1  merged base run: magic ``TDB1``, record count (u64), then store rows
        sorted by (star_id, epoch, id).

A store row is a catalog row plus the matched template ``star_id`` (-1 for
transient candidates), the frame ``epoch`` and a ``candidate`` flag byte
(179 bytes per row).  The CSV interchange format carries the 22 catalog
column names as its header, in column order.

A binary file is written to a temp file, which is fsynced and renamed, and its
directory is then fsynced (segments and TDS1 files by direct I/O).  Every file
is read by one rule: the newest base run, then the delta segments of the
nights after it.  Readers never see a partial segment.  A merge deletes its
stale inputs (the old base run and the folded nights) right after its own
commit; an interrupted merge leaves either the old base intact or a committed
new base whose stale inputs the rule already skips, and the next merge
deletes them.

Rows are moved as opaque 179-byte items (NumPy copies structured rows field
by field, several times slower), and orders come from key columns alone.  A
merge holds the unmerged nights' delta rows, sorted, and streams the old base
past them in ``MERGE_CHUNK_ROWS`` chunks, so its memory grows with those
nights, not with the history; it still rewrites the whole base.
"""

from __future__ import annotations

import errno
import os
import time
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    RECORD_DTYPE,
    SECONDS_PER_DAY,
    TABLE2_COLUMNS,
    DomainError,
    EngineConfig,
    EngineError,
    SequenceError,
    StorageError,
    as_items,
    radec_to_cartesian,
    read_csv,
    refuse,
    row_blocks,
    rule_check,
    separation_to_chord,
    take_rows,
    write_csv,
)
from .crossmatch import UNMATCHED_STAR_ID

TDS_MAGIC = b"TDS1"
DELTA_MAGIC = b"TDL1"
BASE_MAGIC = b"TDB1"

# the store columns that follow a catalog row
_TAIL_DTYPE = np.dtype([("star_id", "<i8"), ("epoch", "<f8"), ("candidate", "u1")])
STORE_DTYPE = np.dtype(RECORD_DTYPE.descr + _TAIL_DTYPE.descr)
RECORD_SIZE = RECORD_DTYPE.itemsize  # 162
STORE_RECORD_SIZE = STORE_DTYPE.itemsize  # 179

# Base rows a merge reads at a time (45 MiB).  Above glibc's largest mmap
# threshold (32 MiB), so each chunk is its own mapping, returned on free.
MERGE_CHUNK_ROWS = 1 << 18


def night_of(epoch: float) -> int:
    return int(epoch // SECONDS_PER_DAY)


# ---------------------------------------------------------------------------
# file primitives


_PAGE = os.sysconf("SC_PAGE_SIZE")  # O_DIRECT aligns memory, offsets and lengths to it


def _page_buffer(header: bytes, nbytes: int) -> np.ndarray:
    """Whole pages from a page boundary: ``header``, ``nbytes`` to fill, zeros.

    Carved from an over-allocated ``np.empty``: a frame reuses the last one's heap.
    """
    size = len(header) + nbytes
    raw = np.empty(-(-size // _PAGE) * _PAGE + _PAGE, np.uint8)
    buf = raw[-raw.ctypes.data % _PAGE:][: len(raw) - _PAGE]
    buf[:len(header)], buf[size:] = np.frombuffer(header, np.uint8), 0
    return buf


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_framed(path: Path, header: bytes, rows: np.ndarray, new_dirs=()) -> None:
    """Durably write ``header``, then the bytes of ``rows``, to ``path``.

    Rows in a ``_page_buffer`` behind this header go out from it, others from
    a copy, in one ``O_DIRECT`` write (buffered where that is ``EINVAL``); the
    temp file is cut to size, fsynced and renamed, then the directories that
    hold ``path`` and ``new_dirs`` (made for it) are fsynced.
    """
    size, raw, lo = len(header) + rows.nbytes, rows.base, -1
    if isinstance(raw, np.ndarray) and raw.flags.c_contiguous and rows.flags.c_contiguous:
        raw = raw.reshape(-1).view(np.uint8)
        lo = rows.ctypes.data - len(header) - raw.ctypes.data
    buf = raw[lo:lo + -(-size // _PAGE) * _PAGE] if lo >= 0 else None
    if (buf is None or len(buf) % _PAGE or buf.ctypes.data % _PAGE
            or buf[:len(header)].tobytes() != header):
        buf = _page_buffer(header, rows.nbytes)
        as_items(buf[len(header):size].view(rows.dtype))[:] = as_items(rows)
    tmp, flags = path.with_suffix(path.suffix + ".tmp"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        try:
            fd = os.open(tmp, flags | os.O_DIRECT, 0o666)
        except OSError as exc:
            if exc.errno != errno.EINVAL:
                raise
            fd = os.open(tmp, flags, 0o666)
        try:
            view = memoryview(buf)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, size)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        for entry in (path, *new_dirs):  # an entry is durable once its directory is
            _fsync_dir(entry.parent)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise StorageError(f"write to {path} failed: {exc}") from exc


_KIND = {
    TDS_MAGIC: "TDS1 file", DELTA_MAGIC: "TDL1 segment", BASE_MAGIC: "TDB1 base run"
}


def _read_header(fh, path, magic: bytes, dtype):
    """Check the header of the binary file open at ``fh``; returns ``(count, epoch)``.

    ``epoch`` is the TDL1 frame epoch (None for the other layouts), and ``fh``
    is left at the first row.
    """
    header_size = 20 if magic == DELTA_MAGIC else 12
    header = fh.read(header_size)
    if header[:4] != magic:
        raise StorageError(f"{path} is not a {_KIND[magic]}")
    count = int.from_bytes(header[4:12], "little")
    # checked against the file size before anything is allocated for it
    if os.fstat(fh.fileno()).st_size < header_size + count * dtype.itemsize:
        raise StorageError(f"truncated file {path}")
    epoch = float(np.frombuffer(header[12:], "<f8")[0]) if magic == DELTA_MAGIC else None
    return count, epoch


def _read_rows(path, magic: bytes, dtype, star_id=None):
    """Check a binary file's header, then read its rows in one call.

    Returns ``(rows, epoch)``: ``rows`` is a fresh writable array and ``epoch``
    is the TDL1 frame epoch (None for the other layouts).  With ``star_id``
    (TDB1 only, whose rows are sorted by star) only that star's rows are read:
    the file is mapped and its ``star_id`` column bisected, touching O(log n)
    pages besides those rows.
    """
    with open(path, "rb") as fh:
        count, epoch = _read_header(fh, path, magic, dtype)
        if star_id is None:
            rows = np.fromfile(fh, dtype=dtype, count=count)
        else:  # the map spans the header too, so a 0-row base maps fine
            mapped = np.memmap(fh, dtype, "r", offset=fh.tell(), shape=(count,))
            keys = mapped["star_id"]  # not searchsorted: it copies the whole column
            lo, hi = bisect_left(keys, star_id), bisect_right(keys, star_id)
            rows = np.empty(hi - lo, dtype)  # owns its bytes: no view of the map
            as_items(rows)[:] = as_items(mapped[lo:hi])
    return rows, epoch


def _read_chunks(path, magic: bytes, dtype, chunk_rows: int):
    """A binary file's rows, ``chunk_rows`` at a time, after ``_read_rows``'s checks."""
    with open(path, "rb") as fh:
        count, _ = _read_header(fh, path, magic, dtype)
        for start in range(0, count, chunk_rows):
            yield np.fromfile(fh, dtype=dtype, count=min(chunk_rows, count - start))


def _ordered(layers, keys) -> np.ndarray:
    """The store rows of ``layers`` in the stable lexicographic order of ``keys``.

    The order comes from the key columns alone; each layer is then scattered
    once into one preallocated output, never into a concatenated copy.
    """
    def column(name):
        parts = [rows[name] for rows in layers]
        return np.concatenate(parts) if parts else np.zeros(0, STORE_DTYPE[name])

    order = np.lexsort([column(name) for name in reversed(keys)])
    dest = np.empty(len(order), np.intp)
    dest[order] = np.arange(len(order))
    del order  # freed before the output is allocated
    out = np.empty(len(dest), STORE_DTYPE)
    items, start = as_items(out), 0
    for rows in layers:
        items[dest[start:start + len(rows)]] = as_items(rows)
        start += len(rows)
    return out


def write_records_bin(path, records: np.ndarray) -> None:
    """Interchange TDS1 file of catalog rows."""
    records = np.asarray(records, dtype=RECORD_DTYPE)
    _write_framed(Path(path), TDS_MAGIC + np.uint64(len(records)).tobytes(), records)


def read_records_bin(path) -> np.ndarray:
    return _read_rows(path, TDS_MAGIC, RECORD_DTYPE)[0]


def write_records_csv(path, records: np.ndarray) -> None:
    """Interchange CSV with the 22 catalog column names as header."""
    write_csv(path, TABLE2_COLUMNS, records[TABLE2_COLUMNS].tolist())


def read_records_csv(path) -> np.ndarray:
    parsers = [int if RECORD_DTYPE[name].kind in "iu" else float for name in TABLE2_COLUMNS]
    columns = read_csv(path, TABLE2_COLUMNS, parsers)
    out = np.zeros(len(columns[0]), dtype=RECORD_DTYPE)
    for name, values in zip(TABLE2_COLUMNS, columns):
        try:
            out[name] = values
        except OverflowError as exc:
            raise StorageError(f"{path}: column {name}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# night store


@dataclass
class StorageStats:
    root: Path
    records_ingested: int = 0

    @property
    def bytes_on_disk(self) -> int:
        """Size of every file under the partition, measured when read."""
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())


@dataclass
class MergeReport:
    nights: list
    records_merged: int
    base_path: Path | None
    duration_s: float
    noop: bool


def frame_to_store_records(frame, matches) -> np.ndarray:
    """Store rows for one frame: catalog columns plus match outcome.

    Built in contiguous row blocks on every core (``core.row_blocks``), each
    block filling its own rows of the one output array, which sits in a page
    buffer behind the frame's TDL1 header for ``NightStore.delta_insert``.
    A row whose id is not the result's, or whose ``calmag`` breaks its
    ``core.ROW_RULES`` rule (``core.refuse``), raises DomainError.
    """
    records = frame.records
    if records.dtype != RECORD_DTYPE:
        raise DomainError(f"frame rows must have RECORD_DTYPE, got {records.dtype}")
    records = np.ascontiguousarray(records)
    n = len(records)
    if matches.n_frame != n:
        raise DomainError(f"match result covers {matches.n_frame} records, frame has {n}")
    header = DELTA_MAGIC + np.uint64(n).tobytes() + np.float64(frame.epoch).tobytes()
    out = _page_buffer(header, n * STORE_RECORD_SIZE)[len(header):][: n * STORE_RECORD_SIZE]
    row_bytes = out.reshape(n, STORE_RECORD_SIZE)
    record_bytes = records.view(np.uint8).reshape(n, RECORD_SIZE)

    def block(lo, hi):
        if not np.array_equal(records["id"][lo:hi], matches.ids[lo:hi]):
            raise DomainError("match result does not correspond to this frame")
        refuse([rule_check("calmag", records["calmag"][lo:hi])], lo)  # before any write
        # The 17-byte tail is built apart, then each catalog row and its tail
        # are copied verbatim into their store row: two byte-block copies, no
        # strided pass over the output.
        tail = np.empty(hi - lo, _TAIL_DTYPE)
        tail["star_id"] = matches.star_ids[lo:hi]
        tail["epoch"] = frame.epoch
        tail["candidate"] = tail["star_id"] < 0
        row_bytes[lo:hi, :RECORD_SIZE] = record_bytes[lo:hi]
        row_bytes[lo:hi, RECORD_SIZE:] = tail.view(np.uint8).reshape(
            hi - lo, _TAIL_DTYPE.itemsize
        )

    row_blocks(n, block)
    return out.view(STORE_DTYPE)


class NightStore:
    """Per-partition delta log plus merged base store.

    Exactly one writer per partition.  Every read takes the newest base run
    plus the delta segments of the nights after it, so ``*.tmp`` and
    ``*.staging`` leftovers, older base runs and nights already folded into
    the base are skipped, never deleted: opening a store reads nothing, and
    only ``nightly_merge`` sweeps what a crash left behind.
    """

    def __init__(self, root, partition_id: int):
        self.partition_id = partition_id
        self.root = Path(root) / f"partition_{partition_id:02d}"
        self.delta_dir = self.root / "delta"
        self.base_dir = self.root / "base"
        self.stats = StorageStats(self.root)
        self._busy = False
        self._last_epoch = None  # the insert epoch guard: the first insert reads it

    # -- state ----------------------------------------------------------

    def _base_files(self):
        return sorted(self.base_dir.glob("base_through_*.tdb"))

    def base_path(self) -> Path | None:
        files = self._base_files()
        return files[-1] if files else None

    def _segments(self, night_id: int):
        return sorted((self.delta_dir / f"night_{night_id:05d}").glob("seg_*.tdl"))

    def _segment_path(self, frame) -> Path:
        night_dir = self.delta_dir / f"night_{night_of(frame.epoch):05d}"
        return night_dir / f"seg_{frame.imageid:08d}.tdl"

    def _snapshot(self):
        """The newest base run (or None), its night, the later delta nights and their segments.

        A read lists them all once, before it opens any, so a merge that commits
        meanwhile cannot make it skip or repeat a night, only delete a listed file.
        The nights and their segments are listed before the base: a merge that
        commits in between leaves a base that covers every night it swept.
        """
        nights = sorted(int(p.name.split("_")[-1]) for p in self.delta_dir.glob("night_*"))
        segments = {night: self._segments(night) for night in nights}
        base = self.base_path()
        base_night = -1 if base is None else int(base.stem.split("_")[-1])
        nights = [night for night in nights if night > base_night]
        return base, base_night, nights, [seg for night in nights for seg in segments[night]]

    def _layers(self, star_id=None):
        """Newest base run (only ``star_id``'s rows, if given), then each later segment."""
        base, _, _, segments = self._snapshot()
        listed = [] if base is None else [(base, BASE_MAGIC, star_id)]
        for path, magic, star in listed + [(seg, DELTA_MAGIC, None) for seg in segments]:
            try:
                rows = _read_rows(path, magic, STORE_DTYPE, star_id=star)[0]
            except FileNotFoundError:
                raise StorageError(f"{path} was deleted by a merge during the read") from None
            yield rows

    def recover(self) -> None:
        """Delete what a crash left behind and every read already skips."""
        for leftover in (*self.root.rglob("*.tmp"), *self.base_dir.glob("*.staging")):
            leftover.unlink()
        for old in self._base_files()[:-1]:
            old.unlink()
        # Delta nights at or below the base high-water mark were already
        # folded in by a committed merge whose cleanup did not finish.
        base_night = self._snapshot()[1]
        for night_dir in self.delta_dir.glob("night_*"):
            if int(night_dir.name.split("_")[-1]) <= base_night:
                for seg in night_dir.glob("seg_*.tdl"):
                    seg.unlink()
                night_dir.rmdir()

    # -- writes ---------------------------------------------------------

    def delta_insert(self, frame, rows) -> Path:
        """Durably append one frame's store rows as its delta segment; returns its path.

        ``rows`` is ``frame_to_store_records(frame, matches)``.  Epochs start
        at 0: the store's nights are ``night_of(epoch) >= 0``.  No record id
        may repeat within the frame, since reads order a frame's rows by id, and
        each id's top byte, its camera, must be the partition id (star ids are
        per camera, so a partition holds one camera's rows).  Rows built for
        this frame are written from their page buffer, with no copy, so this
        may run on a helper thread; a returned insert is durable.
        """
        if frame.epoch < 0:
            raise DomainError(f"frame epoch {frame.epoch} is negative")
        if rows.dtype != STORE_DTYPE:
            raise DomainError(f"store rows must have STORE_DTYPE, got {rows.dtype}")
        ids = rows["id"]
        if not (ids[1:] > ids[:-1]).all():  # sorted only when not already increasing
            ids = np.sort(ids)
            repeats = ids[1:][ids[1:] == ids[:-1]]
            if len(repeats):
                raise DomainError(
                    f"record id {repeats[0]} repeats in frame {frame.imageid}"
                )
        cameras = sorted({int(ids[0]) >> 56, int(ids[-1]) >> 56} if len(ids) else ())
        if cameras and cameras != [self.partition_id]:  # ids ascend: the ends bound them
            raise DomainError(
                f"frame {frame.imageid} has rows from cameras {cameras}; partition "
                f"{self.partition_id} holds camera {self.partition_id}'s rows only"
            )
        if self._busy:
            raise StorageError("delta_insert overlaps another store operation")
        self._busy = True
        try:
            if self._last_epoch is None:
                _, base_night, _, segments = self._snapshot()
                # a merged night is closed to inserts; with no base, any epoch >= 0 passes
                self._last_epoch = (base_night + 1) * SECONDS_PER_DAY - 1e-9
                if segments:  # epochs only grow, so the newest segment holds the last one
                    with open(segments[-1], "rb") as fh:
                        _, epoch = _read_header(fh, segments[-1], DELTA_MAGIC, STORE_DTYPE)
                    self._last_epoch = max(self._last_epoch, epoch)
            if not frame.epoch > self._last_epoch:
                raise SequenceError(
                    f"frame epoch {frame.epoch} not after last appended epoch "
                    f"{self._last_epoch}"
                )
            path = self._segment_path(frame)
            made = [d for d in (self.root, self.delta_dir, path.parent) if not d.is_dir()]
            path.parent.mkdir(parents=True, exist_ok=True)
            count, epoch = np.uint64(len(rows)).tobytes(), np.float64(frame.epoch).tobytes()
            _write_framed(path, DELTA_MAGIC + count + epoch, rows, made)
            self._last_epoch = frame.epoch
            self.stats.records_ingested += len(rows)
            return path
        finally:
            self._busy = False

    def holds(self, frame, rows) -> bool:
        """True when this frame's committed segment has exactly these store rows."""
        path = self._segment_path(frame)
        if not path.is_file():
            return False
        stored, epoch = _read_rows(path, DELTA_MAGIC, STORE_DTYPE)
        n = stored.nbytes
        if epoch != frame.epoch or n != rows.nbytes:
            return False
        # each side viewed as one opaque item: compared in place, never copied
        return bool((stored.view(f"V{n}") == rows.view(f"V{n}")).all())

    def _unmerged_rows(self, base_night: int, segments) -> np.ndarray:
        """The rows of delta ``segments``, all after ``base_night``, sorted as the base is."""
        closed = -np.inf if base_night < 0 else (base_night + 1) * SECONDS_PER_DAY
        layers = []
        for seg in segments:
            rows = _read_rows(seg, DELTA_MAGIC, STORE_DTYPE)[0]
            # the merge places delta rows after the base's rows of their star
            if len(rows) and not rows["epoch"].min() >= closed:
                raise StorageError(
                    f"{seg} holds rows of night {base_night} or earlier, "
                    "which the base run already closed"
                )
            layers.append(rows)
        return _ordered(layers, ("star_id", "epoch", "id"))

    def nightly_merge(self) -> MergeReport:
        """Fold all delta segments into the base run (all-or-nothing).

        The new base is written to a ``*.tmp`` file (removed if the merge
        raises) and renamed into place; the rename is the commit point.
        Re-running after an interruption at any point converges to the same bytes.
        """
        if self._busy:
            raise StorageError("nightly_merge overlaps another store operation")
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.recover()
            base, base_night, nights, segments = self._snapshot()
            if not nights:
                return MergeReport(
                    nights=[], records_merged=0, base_path=base,
                    duration_s=time.perf_counter() - t0, noop=True,
                )
            delta = self._unmerged_rows(base_night, segments)
            target = max(nights)
            final = self.base_dir / f"base_through_{target:05d}.tdb"
            tmp = final.with_suffix(final.suffix + ".tmp")
            self.base_dir.mkdir(exist_ok=True)
            # The old base is streamed MERGE_CHUNK_ROWS at a time.  Every delta
            # epoch is after the base's night, so each delta row goes right
            # after its star's base rows, and the rows of a chunk's last star
            # wait for the next chunk, which may hold more of that star.
            stars, done, merged = np.ascontiguousarray(delta["star_id"]), 0, 0
            try:
                with open(tmp, "wb") as fh:
                    fh.write(BASE_MAGIC + bytes(8))  # the row count is written last
                    chunks = () if base is None else _read_chunks(
                        base, BASE_MAGIC, STORE_DTYPE, MERGE_CHUNK_ROWS
                    )
                    for chunk in chunks:
                        upto = int(np.searchsorted(stars, chunk["star_id"][-1], side="left"))
                        at = np.searchsorted(chunk["star_id"], stars[done:upto], side="right")
                        block = np.insert(as_items(chunk), at, as_items(delta[done:upto]))
                        fh.write(block.view(np.uint8))
                        done, merged = upto, merged + len(block)
                        del chunk, block  # freed before the next chunk is read
                    fh.write(as_items(delta[done:]).view(np.uint8))
                    merged += len(delta) - done
                    fh.seek(4)
                    fh.write(np.uint64(merged).tobytes())
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, final)  # commit point
            finally:  # gone once renamed; a failed merge leaves no temp file
                tmp.unlink(missing_ok=True)
            # the rename is durable only once its directory entry is on disk
            for directory in (self.base_dir, self.root):  # base/ may be new
                _fsync_dir(directory)
            self.recover()  # sweeps old base + folded delta nights
            self._last_epoch = None  # the next insert reads the new base's night
            return MergeReport(
                nights=nights,
                records_merged=merged,
                base_path=final,
                duration_s=time.perf_counter() - t0,
                noop=False,
            )
        finally:
            self._busy = False

    # -- reads ----------------------------------------------------------

    def query_records(
        self,
        star_id: int | None = None,
        epoch_min: float | None = None,
        epoch_max: float | None = None,
        cone: tuple | None = None,
        mag_min: float | None = None,
        mag_max: float | None = None,
        include_candidates: bool = True,
    ) -> np.ndarray:
        """The rows of all layers that pass every clause given; a cone is (ra, dec, radius) in deg.

        Each layer is filtered as it is read, so only those rows reach the
        (epoch, id) sort; a star query bisects the base.
        """
        if cone is not None:
            ra, dec, radius = cone
            (cx, cy, cz), chord2 = radec_to_cartesian(ra, dec), separation_to_chord(radius) ** 2
        layers = []
        for rec in self._layers(star_id):
            keep = np.ones(len(rec), dtype=bool)
            if star_id is not None:
                keep &= rec["star_id"] == star_id
            if epoch_min is not None:
                keep &= rec["epoch"] >= epoch_min
            if epoch_max is not None:
                keep &= rec["epoch"] <= epoch_max
            if cone is not None:
                d2 = (rec["x"] - cx) ** 2 + (rec["y"] - cy) ** 2 + (rec["z"] - cz) ** 2
                keep &= d2 <= chord2
            if mag_min is not None:
                keep &= rec["calmag"] >= mag_min
            if mag_max is not None:
                keep &= rec["calmag"] <= mag_max
            if not include_candidates:
                keep &= rec["candidate"] == 0
            layers.append(rec if keep.all() else take_rows(rec, keep))
        return _ordered(layers, ("epoch", "id"))


# ---------------------------------------------------------------------------
# cross-partition reads


class PartitionError(EngineError):
    """A partition store is missing or unreadable during a cross-partition read."""


def open_partitions(root, partition_ids=None) -> list:
    """The stores ``partition_ids`` under ``root``, by default every ``partition_NN`` there.

    A missing partition, or none found, raises ``PartitionError``; an id
    named twice raises ``DomainError``.  Nothing is read.
    """
    if partition_ids is None:
        found = (p.name[len("partition_"):] for p in Path(root).glob("partition_*") if p.is_dir())
        partition_ids = sorted(int(n) for n in found if n.isdecimal())
        if not partition_ids:
            raise PartitionError(f"no partitions found under {root}")
    stores = []
    for p in partition_ids:
        if p in (s.partition_id for s in stores):  # each of its rows would be read twice
            raise DomainError(f"partition {p} is named twice")
        if not (Path(root) / f"partition_{p:02d}").is_dir():
            raise PartitionError(f"partition {p} missing under {root}")
        stores.append(NightStore(root, p))
    return stores


def _select(store: NightStore, clauses: dict) -> np.ndarray:
    """One store's rows that pass ``clauses``, in (epoch, id) order."""
    try:
        return store.query_records(**clauses)
    except EngineError as exc:
        raise PartitionError(f"partition {store.partition_id}: {exc}") from exc


def query_stores(stores, **clauses) -> np.ndarray:
    """Rows of every store that pass ``clauses``, ``NightStore.query_records``'
    keywords, in (epoch, id) order.

    Several stores are read in threads, whose file reads and numpy work
    overlap; one store is read in the caller's thread, where a pool would
    cost more than a one-star read.  An unreadable partition fails the whole
    query with a ``PartitionError`` naming it: a silent partial answer would
    look like a real catalog result.
    """
    if clauses.get("cone") is not None:  # a bad centre is the caller's error, not a partition's
        radec_to_cartesian(*clauses["cone"][:2])
    stores = list(stores)
    if len(stores) == 1:
        return _select(stores[0], clauses)
    with ThreadPoolExecutor() as pool:
        parts = list(pool.map(lambda s: _select(s, clauses), stores))
    return _ordered(parts, ("epoch", "id"))


# ---------------------------------------------------------------------------
# capacity planning


@dataclass
class CapacityRow:
    cameras: int
    days: int
    records: int
    bytes: int


def capacity_plan(
    config: EngineConfig, days: int, bytes_per_record: int = STORE_RECORD_SIZE
) -> CapacityRow:
    """Projected record and byte volume for the configured camera count."""
    if days < 0:
        raise DomainError(f"days must be >= 0, got {days}")
    if bytes_per_record <= 0:
        raise DomainError(f"bytes_per_record must be > 0, got {bytes_per_record}")
    records = config.cameras * config.frames_per_night * config.sources_per_frame * days
    return CapacityRow(
        cameras=config.cameras,
        days=days,
        records=records,
        bytes=records * bytes_per_record,
    )


def capacity_table(
    config: EngineConfig, bytes_per_record: int = STORE_RECORD_SIZE
) -> list:
    """(1 camera, N cameras) x (one day, one 260-day year, ten years)."""
    rows = []
    for cameras in sorted({1, config.cameras}):
        cfg = replace(config, cameras=cameras)
        for days in (1, 260, 2600):
            rows.append(capacity_plan(cfg, days, bytes_per_record))
    return rows
