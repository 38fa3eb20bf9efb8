"""One rule, one message: every entry point that reads ``ra``, ``dec`` or
``calmag`` refuses a NaN, an infinity or an out-of-range value of that field
with the same ``<field> <value!r> is not <rule>`` text, and changes nothing.

The rule texts are spelled here, not imported, so that a rule changed in
``core`` fails every entry point that states it through ``core``.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tdcat.cli import build_parser
from tdcat.core import DomainError, EngineConfig, zone_of
from tdcat.crossmatch import range_join
from tdcat.mining import CandidateTracker, MiningConfig, WindowBank
from tdcat.pipeline import PartitionWorker
from tdcat.skygen import SkyModel, TemplateCatalog, build_template, observe_frame
from tdcat.store import open_partitions, query_stores, write_records_bin

CFG = EngineConfig()
MINING = MiningConfig()
MODEL = SkyModel(seed=8, star_count=300, footprint=(30.0, 32.0, -1.0, 1.0))
TEMPLATE = build_template(MODEL, CFG)
HALF = TemplateCatalog(TEMPLATE.stars[::2], CFG)  # every other star stays unmatched
FRAMES = [observe_frame(TEMPLATE, 15.0 * k, [], MODEL, CFG) for k in range(3)]
ROW = 5

RULES = {"ra": "in [0, 360)", "dec": "in [-90, 90]", "calmag": "inside (-100, 100)"}
BAD = {
    "ra": [math.nan, math.inf, -math.inf, 360.0, -1e-9],
    "dec": [math.nan, math.inf, -math.inf, 90.5, -90.5],
    "calmag": [math.nan, math.inf, -math.inf, 100.0, -100.0],
}


def files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def bank_state(bank):
    return [a.tobytes() for a in (bank._ring, bank._head, bank._count, bank._sum, bank._sumsq)]


def tracker_state(tracker):
    return tracker._tracks.tobytes(), tracker._last_epoch


def with_bad(records, field, bad, row=ROW):
    records = records.copy()
    records[field][row] = bad
    return records


def ingest(tmp_path, field, bad):
    path = tmp_path / "frame.tds"
    write_records_bin(path, with_bad(FRAMES[1].records, field, bad))
    data = tmp_path / "data"
    args = build_parser().parse_args(
        ["ingest", "--data-dir", str(data), "--partition", "0", "--input", str(path)]
    )
    return lambda: args.func(args), lambda: files(tmp_path)


def join(tmp_path, field, bad):
    records = with_bad(FRAMES[1].records, field, bad)
    return lambda: range_join(records, TEMPLATE.index, CFG.match_radius_deg), lambda: None


def worker_frame(data_dir):
    def entry(tmp_path, field, bad):
        worker = PartitionWorker(0, TEMPLATE, CFG, MINING, data_dir=tmp_path if data_dir else None)
        for frame in FRAMES[:2]:
            worker.process_frame(frame)
        frame = replace(FRAMES[2], records=with_bad(FRAMES[2].records, field, bad))
        state = lambda: (bank_state(worker.bank), tracker_state(worker.tracker), files(tmp_path))
        return lambda: worker.process_frame(frame), state
    return entry


def window_update(tmp_path, field, bad):
    bank = WindowBank(TEMPLATE.stars["id"], MINING)
    bank.update(0.0, [1, 3, 4, 6], [12.0] * 4, [0.02] * 4)
    update = lambda: bank.update(15.0, [1, 3, 4, 6], [12.0, 12.1, 12.2, bad], [0.02] * 4,
                                 record_ids=np.array([10, 11, 12, 13], np.uint64))
    return update, lambda: bank_state(bank)


def tracker_update(tmp_path, field, bad):
    tracker = CandidateTracker(CFG, MINING)
    unmatched = [f.records[range_join(f.records, HALF.index, CFG.match_radius_deg).unmatched_rows]
                 for f in FRAMES[:2]]
    tracker.update(0.0, unmatched[0])
    rows = with_bad(unmatched[1], field, bad, row=2)
    return lambda: tracker.update(15.0, rows), lambda: tracker_state(tracker)


def zone(tmp_path, field, bad):
    return lambda: zone_of(np.array([0.0, 0.5, bad]), CFG.zone_height_deg), lambda: None


def cone_query(tmp_path, field, bad):
    PartitionWorker(0, TEMPLATE, CFG, MINING, data_dir=tmp_path).process_frame(FRAMES[0])
    centre = {"ra": 31.0, "dec": 0.0} | {field: bad}
    query = lambda: query_stores(open_partitions(tmp_path), cone=(centre["ra"], centre["dec"], 0.5))
    return query, lambda: files(tmp_path)


ENTRIES = {  # entry point: (the rule fields it reads, its set-up)
    "ingest": (("ra", "dec", "calmag"), ingest),
    "range_join": (("ra", "dec"), join),
    "process_frame_with_store": (("ra", "dec", "calmag"), worker_frame(True)),
    "process_frame_without_store": (("ra", "dec", "calmag"), worker_frame(False)),
    "WindowBank.update": (("calmag",), window_update),
    "CandidateTracker.update": (("ra", "dec", "calmag"), tracker_update),
    "zone_of": (("dec",), zone),
    "cone_query": (("ra", "dec"), cone_query),
}
CASES = [(entry, field, bad) for entry, (fields, _) in ENTRIES.items()
         for field in fields for bad in BAD[field]]


@pytest.mark.parametrize("entry,field,bad", CASES)
def test_every_entry_point_refuses_a_bad_field_with_one_message(tmp_path, entry, field, bad):
    call, state = ENTRIES[entry][1](tmp_path, field, bad)
    before = state()
    with pytest.raises(DomainError) as raised:
        call()
    where = r"\S+frame\.tds: " if entry == "ingest" else ""
    row = "" if entry == "cone_query" else r"row \d+( \(id \d+\))?: "
    text = f"{field} {bad!r} is not {RULES[field]}"
    assert re.fullmatch(where + row + re.escape(text), str(raised.value)), str(raised.value)
    assert state() == before
