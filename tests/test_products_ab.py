"""``scripts/products_ab.py`` on one tree: two runs agree, and a changed file is named."""

import importlib
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = SCRIPTS.parent / "src"


def test_one_tree_run_twice_gives_the_same_products_and_a_flipped_byte_is_named(
    tmp_path, monkeypatch
):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    products_ab = importlib.import_module("products_ab")
    first = products_ab.products(SRC, tmp_path / "first")
    second = products_ab.products(SRC, tmp_path / "second")
    assert products_ab.differing(first, second) == []
    for name in ("matches.csv", "candidates.csv", "online_delta.csv", "online_base.csv",
                 "curve.csv", "periodogram.csv", "night/alerts_p01.csv",
                 "curve_all.csv", "online_window.csv", "periodogram_night1.csv",
                 "matches_csv.csv", "gencsv/frame_00000002.csv",
                 "bare/partition_00/delta/night_00000/seg_00000011.tdl",
                 "data/partition_00/base/base_through_00001.tdb",
                 "curve_cam1.csv", "online_cams.csv",
                 "cams/partition_01/delta/night_00000/seg_00000011.tdl"):
        assert name in first, name

    run = tmp_path / "second"
    alerts = run / "online_base.csv"
    data = bytearray(alerts.read_bytes())
    data[-3] ^= 1
    alerts.write_bytes(data)
    (run / "night" / "cadence_p00.csv").write_text("wall-clock telemetry is not compared\n")
    (run / "curve.csv").unlink()
    got = products_ab.differing(first, products_ab.hash_tree(run))
    assert got == ["curve.csv", "online_base.csv"]
