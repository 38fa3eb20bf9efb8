import argparse
import csv
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from tdcat import mining
from tdcat.cli import build_configs, build_parser, load_config_file, main
from tdcat.core import ConfigError
from tdcat.lightcurve import query_curve
from tdcat.mining import MiningConfig
from tdcat.store import open_partitions, read_records_bin, write_records_bin


REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# exit codes and version


def test_no_arguments_is_usage_error(capsys):
    assert run_cli() == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("frobnicate") == 2
    assert "usage" in capsys.readouterr().err


def test_version_is_machine_readable(capsys):
    assert run_cli("--version") == 0
    out = capsys.readouterr().out.strip()
    name, version = out.split()
    assert name == "tdcat"
    assert version.count(".") == 2


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    out = capsys.readouterr().out
    for cmd in ("generate", "ingest", "merge", "crossmatch", "run-night",
                "query", "mine", "bench", "plan"):
        assert cmd in out


def test_console_script_matches_main(capsys):
    # The command the package declares, run the way pip's console-script
    # wrapper runs it, so that no install is needed.
    import tomllib  # Python 3.11+; kept local so this file imports on 3.10

    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    ep = EntryPoint(name="tdcat", value=scripts["tdcat"],
                    group="console_scripts")
    assert ep.load() is main

    argv = ["plan", "--cameras", "1", "--days", "1"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    wrapper = (f"import sys; from {ep.module} import {ep.attr}; "
               f"sys.exit({ep.attr}())")
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "3.372e+08" in proc.stdout

    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.skipif(shutil.which("tdcat") is None,
                    reason="no installed tdcat executable on PATH")
def test_installed_console_script_matches_main():
    proc = subprocess.run(
        ["tdcat", "plan", "--cameras", "1", "--days", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "3.372e+08" in proc.stdout


# ---------------------------------------------------------------------------
# the parser

COMMON = "--config --data-dir -h --help"
SKY = "--density --stars --seed"
READS = "--partitions --epoch-min --epoch-max"
OPTIONS = {  # every subcommand's option strings
    "generate": f"{COMMON} {SKY} --out --frames --night --camera --new-sources "
                "--brightenings --format",
    "ingest": f"{COMMON} --partition --night --input --template",
    "merge": f"{COMMON} --partition --night",
    "crossmatch": f"{COMMON} --template --frame --radius-deg --zone-height-deg "
                  "--out-matches --out-candidates",
    "run-night": f"{COMMON} {SKY} --partitions --frames --night --inject --new-sources "
                 "--brightenings --workers --merge --no-store --report",
    "query": f"{COMMON} {READS} --star --out",
    "mine online": f"{COMMON} {READS} --out",
    "mine period": f"{COMMON} {READS} --star --fap --oversample --out",
    "bench cadence": f"{COMMON} {SKY} --frames --out",
    "bench scaling": f"{COMMON} {SKY} --workers --partitions --frames --out",
    "plan": f"{COMMON} --cameras --days --bytes-per-record --table",
}


def leaf_parsers(parser, path=()):
    """(command words, parser) of every subcommand that takes no further one."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


def test_every_subcommand_takes_the_options_of_its_table():
    got = {name: sorted(s for a in p._actions for s in a.option_strings)
           for name, p in leaf_parsers(build_parser())}
    assert got == {name: sorted(options.split()) for name, options in OPTIONS.items()}


@pytest.mark.parametrize("command", ["generate --out x", "run-night", "bench cadence",
                                     "bench scaling"])
def test_density_and_stars_exclude_each_other(command, capsys):
    assert run_cli(*command.split(), "--density", "1/100", "--stars", "5") == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "query --star 5 --partitions 0,0",
    "query --star 5 --partitions 0,",
    "query --star 5 --partitions -1",
    "mine online --partitions 0,0",
    "mine period --star 5 --partitions 1,x",
    "bench scaling --workers 1,x",
    "bench scaling --workers 2,2",
])
def test_a_list_flag_takes_distinct_integers_of_zero_or_more(workflow, argv, capsys):
    _, data = workflow
    before = tree_bytes(data)
    *words, value = argv.split()
    assert run_cli(*words, value, "--data-dir", str(data)) == 2
    err = capsys.readouterr().err
    assert f"{words[-1]}: {value!r} is not a list of distinct integers >= 0" in err
    assert tree_bytes(data) == before


def test_a_bad_list_flag_exits_two_without_a_traceback():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tdcat.cli", "bench", "scaling", "--workers", "1,x"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert "'1,x' is not a list of distinct integers >= 0" in proc.stderr


def test_bench_scaling_refuses_zero_workers_before_it_runs(capsys):
    assert run_cli("bench", "scaling", "--workers", "0,2", "--stars", "10") == 1
    assert "worker counts must be >= 1, got [0, 2]" in capsys.readouterr().err


def test_generate_refuses_a_camera_past_the_ids_top_byte(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert run_cli("generate", "--out", str(gen), "--frames", "1", "--stars", "20",
                   "--camera", "256") == 2
    assert "camera_id 256 is outside [0, 255]" in capsys.readouterr().err
    assert not list(gen.glob("frame_*"))


@pytest.mark.parametrize("existed", [False, True])
def test_a_refused_generate_writes_nothing(tmp_path, capsys, existed):
    gen = tmp_path / "gen"
    if existed:
        gen.mkdir()
    assert run_cli("generate", "--out", str(gen), "--frames", "2", "--stars", "30",
                   "--camera", "256") == 2
    assert "camera_id 256" in capsys.readouterr().err
    assert (list(gen.iterdir()) == []) if existed else not gen.exists()


# ---------------------------------------------------------------------------
# plan


def test_plan_single_camera_day(capsys):
    assert run_cli("plan", "--cameras", "1", "--days", "1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "cameras,days,records,bytes,gib"
    cameras, days, records, nbytes, gib = lines[1].split(",")
    assert (cameras, days) == ("1", "1")
    assert records == "3.372e+08"
    assert int(nbytes) == 337_152_000 * 179
    assert float(gib) == pytest.approx(int(nbytes) / 2**30, abs=0.01)


def test_plan_full_table(capsys):
    assert run_cli("plan", "--table") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7  # header + (1, 36) cameras x (1, 260, 2600) days
    assert lines[1].startswith("1,1,3.372e+08")
    assert lines[6].startswith("36,2600,3.156e+13")


def test_plan_bytes_per_record_override(capsys):
    assert run_cli("plan", "--cameras", "1", "--days", "1",
                   "--bytes-per-record", "197") == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert int(line.split(",")[3]) == 337_152_000 * 197


# ---------------------------------------------------------------------------
# configuration handling


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(
        "# engine overrides\n"
        "cadence_s = 30.0\n"
        "match_radius_deg=0.005   # wider beam\n"
        "\n"
        "k_sigma = 6.0\n"
    )
    values = load_config_file(cfg)
    assert values == {
        "cadence_s": "30.0", "match_radius_deg": "0.005", "k_sigma": "6.0"
    }


def test_config_precedence_flags_beat_file(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("match_radius_deg = 0.005\ncadence_s = 30.0\n")
    parser = build_parser()

    args = parser.parse_args(["crossmatch", "--config", str(cfg),
                              "--template", "t", "--frame", "f"])
    engine, _ = build_configs(args)
    assert engine.match_radius_deg == 0.005  # from file
    assert engine.cadence_s == 30.0

    args = parser.parse_args(["crossmatch", "--config", str(cfg),
                              "--radius-deg", "0.01",
                              "--template", "t", "--frame", "f"])
    engine, _ = build_configs(args)
    assert engine.match_radius_deg == 0.01  # flag wins
    assert engine.cadence_s == 30.0  # file still beats the default

    args = parser.parse_args(["crossmatch", "--template", "t", "--frame", "f"])
    engine, mining = build_configs(args)
    assert engine.match_radius_deg == 0.003  # built-in default
    assert mining.k_sigma == 5.0

    cfg.write_text("fap = 0.05\noversample = 3\n")
    args = parser.parse_args(["mine", "period", "--config", str(cfg), "--star", "1",
                              "--fap", "0.1"])
    _, mining = build_configs(args)
    assert (mining.fap, mining.oversample) == (0.1, 3)  # the flag, then the file


def test_config_file_errors_exit_two(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("no_such_knob = 5\n")
    assert run_cli("plan", "--config", str(bad_key)) == 2
    assert "no_such_knob" in capsys.readouterr().err

    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("cadence_s\n")
    assert run_cli("plan", "--config", str(bad_line)) == 2

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("cadence_s = fast\n")
    assert run_cli("plan", "--config", str(bad_value)) == 2

    bad_setting = tmp_path / "bad_setting.cfg"
    bad_setting.write_text("cadence_s = -15\n")
    assert run_cli("plan", "--config", str(bad_setting)) == 2


def test_generate_refuses_zones_past_the_int16_column(tmp_path, capsys):
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("zone_height_deg = 0.001\n")
    gen = tmp_path / "gen"
    assert run_cli("generate", "--config", str(cfg), "--out", str(gen), "--frames", "1",
                   "--stars", "200") != 0
    assert ("zone_height_deg 0.001 is below 0.0054931640625, the smallest height whose zones "
            "fit the int16 zone column") in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "oops.cfg"
    cfg.write_text("radius = 0.003\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg)


# ---------------------------------------------------------------------------
# generate -> ingest -> merge -> query -> mine workflow


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """One generated mini-survey, ingested and merged under a data dir."""
    base = tmp_path_factory.mktemp("workflow")
    gen = base / "gen"
    data = base / "data"
    rc = main(
        ["generate", "--out", str(gen), "--frames", "12", "--stars", "150",
         "--seed", "5", "--new-sources", "1", "--brightenings", "1"]
    )
    assert rc == 0
    frames = sorted(str(p) for p in gen.glob("frame_*.tds"))
    assert len(frames) == 12
    rc = main(
        ["ingest", "--data-dir", str(data), "--partition", "0",
         "--template", str(gen / "template.tds"), "--input", *frames]
    )
    assert rc == 0
    rc = main(["merge", "--data-dir", str(data), "--partition", "0"])
    assert rc == 0
    return gen, data


def test_generate_outputs(workflow):
    gen, _ = workflow
    template = read_records_bin(gen / "template.tds")
    assert len(template) == 150
    assert (gen / "truth.csv").is_file()
    frame = read_records_bin(gen / "frame_00000000.tds")
    assert np.all(frame["imageid"] == 0)


def test_ingested_store_contents(workflow):
    _, data = workflow
    [store] = open_partitions(data, [0])
    rec = store.query_records()
    # 12 frames x ~150 matched stars, plus candidate rows from the injection
    assert len(rec) >= 12 * 150
    assert store.base_path() is not None  # merge committed a base run
    assert not store._snapshot()[3]


def test_query_writes_curve_csv(workflow, tmp_path, capsys):
    _, data = workflow
    out = tmp_path / "curve.csv"
    rc = run_cli("query", "--data-dir", str(data), "--star", "3",
                 "--out", str(out))
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "calmag", "mag_error", "flux", "flux_err"]
    assert len(rows) >= 9  # star 3 matched in nearly every frame
    epochs = [float(r[0]) for r in rows[1:]]
    assert epochs == sorted(epochs)


def test_query_epoch_window(workflow, tmp_path):
    _, data = workflow
    out = tmp_path / "curve.csv"
    rc = run_cli("query", "--data-dir", str(data), "--star", "3",
                 "--epoch-min", "30", "--epoch-max", "75", "--out", str(out))
    assert rc == 0
    with open(out) as fh:
        epochs = [float(r[0]) for r in list(csv.reader(fh))[1:]]
    assert all(30 <= e <= 75 for e in epochs)


def test_query_without_partitions_fails(tmp_path, capsys):
    data = tmp_path / "data"
    for _ in ("absent", "empty"):
        rc = run_cli("query", "--data-dir", str(data), "--star", "1")
        assert rc == 1
        assert f"no partitions found under {data}" in capsys.readouterr().err
        data.mkdir(exist_ok=True)


def test_mine_online_replays_store(workflow, tmp_path, capsys):
    _, data = workflow
    out = tmp_path / "alerts.csv"
    rc = run_cli("mine", "online", "--data-dir", str(data), "--out", str(out))
    assert rc == 0
    assert out.is_file()
    assert "alerts from partitions [0]" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["query", "--star", "3"],
    ["mine", "online"],
    ["mine", "period", "--star", "3"],
])
def test_readers_create_nothing(workflow, tmp_path, capsys, command):
    _, data = workflow
    before = tree_bytes(data)
    rc = run_cli(*command, "--data-dir", str(data), "--partitions", "0,7")
    assert rc == 1
    assert "partition 7" in capsys.readouterr().err
    assert not (data / "partition_07").exists()
    rc = run_cli(*command, "--data-dir", str(data), "--partitions", "0",
                 "--out", str(tmp_path / "out.csv"))
    assert rc == 0
    assert tree_bytes(data) == before


def test_mine_period_reports_best_period(workflow, tmp_path, capsys, monkeypatch):
    _, data = workflow
    out = tmp_path / "power.csv"
    scan, sizes = mining.lomb_scargle, []

    def counted(epochs, mags, freqs, *args):
        sizes.append(len(freqs))
        return scan(epochs, mags, freqs, *args)

    monkeypatch.setattr(mining, "lomb_scargle", counted)
    rc = run_cli("mine", "period", "--data-dir", str(data), "--star", "3",
                 "--out", str(out))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "best period" in stdout
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["frequency_hz", "power"]
    assert len(rows) > 2
    # one scan of the grid, then the 81-point refinement; the CSV is that scan
    assert sizes == [len(rows) - 1, 81]
    curve = query_curve(open_partitions(data, [0]), 3)
    freqs = mining.default_freq_grid(curve.epochs, MiningConfig().oversample)
    power = scan(curve.epochs, curve.mags, freqs)
    assert rows[1:] == [[repr(float(f)), repr(float(p))] for f, p in zip(freqs, power)]


def test_crossmatch_files(workflow, tmp_path, capsys):
    gen, _ = workflow
    matches = tmp_path / "m.csv"
    cand = tmp_path / "c.csv"
    rc = run_cli(
        "crossmatch", "--template", str(gen / "template.tds"),
        "--frame", str(gen / "frame_00000000.tds"),
        "--out-matches", str(matches), "--out-candidates", str(cand),
    )
    assert rc == 0
    with open(matches) as mf, open(cand) as cf:
        m_rows, c_rows = list(csv.reader(mf)), list(csv.reader(cf))
    assert m_rows[0] == ["record_id", "star_id", "separation_deg"]
    assert c_rows[0] == ["record_id"]
    n_frame = len(read_records_bin(gen / "frame_00000000.tds"))
    assert (len(m_rows) - 1) + (len(c_rows) - 1) == n_frame
    assert len(m_rows) - 1 >= 140  # clean sky: nearly all 150 match


def test_ingest_rejects_wrong_night(workflow, tmp_path):
    gen, _ = workflow
    rc = run_cli(
        "ingest", "--data-dir", str(tmp_path / "d"), "--partition", "0",
        "--night", "1",
        "--template", str(gen / "template.tds"),
        "--input", str(gen / "frame_00000000.tds"),
    )
    assert rc == 1


@pytest.mark.parametrize("with_template", [True, False])
def test_ingest_rejects_nan_declination(workflow, tmp_path, with_template, capsys):
    """A row that fails any row check fails ingest and crossmatch; NaN fails each."""
    gen, _ = workflow
    good = read_records_bin(gen / "frame_00000000.tds")
    for field, value in (
        ("dec", np.nan), ("ra", np.nan), ("ra", 360.0), ("x", good["x"][3] * 1.001),
        ("zone", good["zone"][3] + 1), ("mag_error", -0.01),
    ):
        records = good.copy()
        records[field][3] = value
        frame = tmp_path / "frame_00000000.tds"
        write_records_bin(frame, records)
        data = tmp_path / "d"
        template = ["--template", str(gen / "template.tds")] if with_template else []
        rc = run_cli(
            "ingest", "--data-dir", str(data), "--partition", "0", *template,
            "--input", str(frame),
        )
        assert rc == 1
        assert not list(data.rglob("seg_*.tdl"))
        assert f"{frame}: row 3: " in capsys.readouterr().err
        rc = run_cli(
            "crossmatch", "--template", str(gen / "template.tds"),
            "--frame", str(frame), "--out-matches", str(tmp_path / "m.csv"),
            "--out-candidates", str(tmp_path / "c.csv"),
        )
        assert rc == 1
        assert f"{frame}: row 3: " in capsys.readouterr().err


def test_ingest_and_crossmatch_refuse_an_invalid_template(workflow, tmp_path, capsys):
    gen, _ = workflow
    template = read_records_bin(gen / "template.tds")
    template["x"][7] *= 1.001
    bad = tmp_path / "template.tds"
    write_records_bin(bad, template)
    data = tmp_path / "d"
    rc = run_cli(
        "ingest", "--data-dir", str(data), "--partition", "0",
        "--template", str(bad), "--input", str(gen / "frame_00000000.tds"),
    )
    assert rc == 1
    assert not list(data.rglob("seg_*.tdl"))
    assert f"{bad}: row 7: " in capsys.readouterr().err
    rc = run_cli(
        "crossmatch", "--template", str(bad),
        "--frame", str(gen / "frame_00000000.tds"),
        "--out-matches", str(tmp_path / "m.csv"),
        "--out-candidates", str(tmp_path / "c.csv"),
    )
    assert rc == 1
    assert f"{bad}: row 7: " in capsys.readouterr().err


def test_ingest_refuses_a_negative_epoch(workflow, tmp_path, capsys):
    gen, _ = workflow
    records = read_records_bin(gen / "frame_00000000.tds")
    records["imageid"] = -1
    frame = tmp_path / "frame_-0000001.tds"
    write_records_bin(frame, records)
    data = tmp_path / "d"
    rc = run_cli(
        "ingest", "--data-dir", str(data), "--partition", "0",
        "--template", str(gen / "template.tds"), "--input", str(frame),
    )
    assert rc == 1
    assert "negative" in capsys.readouterr().err
    assert not list(data.rglob("seg_*.tdl"))


def test_ingest_refuses_a_repeated_record_id(tmp_path, capsys):
    gen, data = tmp_path / "gen", tmp_path / "d"
    assert run_cli("generate", "--out", str(gen), "--frames", "3", "--stars", "60",
                   "--seed", "2") == 0
    frames = sorted(gen.glob("frame_*.tds"))
    records = read_records_bin(frames[1])
    n = len(records)
    write_records_bin(frames[1], np.concatenate([records, records[4:5]]))
    capsys.readouterr()
    rc = run_cli(
        "ingest", "--data-dir", str(data), "--partition", "0",
        "--template", str(gen / "template.tds"), "--input", *map(str, frames),
    )
    assert rc == 1
    assert f"{frames[1]}: row {n}: id {int(records['id'][4])} is not unique" in (
        capsys.readouterr().err
    )
    # the frame before it was stored; the bad frame and the ones after were not
    assert [p.name for p in sorted(data.rglob("seg_*.tdl"))] == ["seg_00000000.tdl"]


def test_ingest_refuses_a_frame_whose_ids_name_two_cameras(tmp_path, capsys):
    gen, data = tmp_path / "gen", tmp_path / "d"
    assert run_cli("generate", "--out", str(gen), "--frames", "1", "--stars", "300",
                   "--seed", "2") == 0
    frame = gen / "frame_00000000.tds"
    records = read_records_bin(frame)
    records["id"][5] |= np.uint64(1) << np.uint64(56)  # the id's top byte is its camera
    write_records_bin(frame, records)
    capsys.readouterr()
    for template in (["--template", str(gen / "template.tds")], []):
        rc = run_cli("ingest", "--data-dir", str(data), "--partition", "0", *template,
                     "--input", str(frame))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {frame}: frame 0 has rows from cameras [0, 1]; "
            "partition 0 holds camera 0's rows only\n"
        )
        assert not list(data.rglob("seg_*.tdl"))


def generate_camera(out, camera, seed):
    """A night of ``camera``'s frames from a template of seed ``seed``."""
    assert run_cli("generate", "--out", str(out), "--frames", "3", "--stars", "60",
                   "--seed", str(seed), "--camera", str(camera)) == 0
    return sorted(map(str, out.glob("frame_*.tds")))


def test_ingest_refuses_frames_of_a_camera_other_than_the_partitions(tmp_path, capsys):
    # two templates' camera-1 frames: star 5 of one is not star 5 of the other
    data = tmp_path / "d"
    first = generate_camera(tmp_path / "a", 1, seed=2)
    second = generate_camera(tmp_path / "b", 1, seed=5)
    capsys.readouterr()
    rc = run_cli("ingest", "--data-dir", str(data), "--partition", "0",
                 "--template", str(tmp_path / "b" / "template.tds"), "--input", *second)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {second[0]}: frame 0 has rows from cameras [1]; "
        "partition 0 holds camera 0's rows only\n"
    )
    assert not data.exists() or not any(data.rglob("*"))
    assert run_cli("ingest", "--data-dir", str(data), "--partition", "1",
                   "--template", str(tmp_path / "a" / "template.tds"), "--input", *first) == 0
    assert [s.partition_id for s in open_partitions(data)] == [1]


def test_query_reads_one_cameras_star_from_its_partition(tmp_path, capsys):
    data, out = tmp_path / "d", tmp_path / "curve.csv"
    for camera, seed in ((0, 2), (1, 5)):
        frames = generate_camera(tmp_path / f"cam{camera}", camera, seed)
        template = str(tmp_path / f"cam{camera}" / "template.tds")
        for partition in (1 - camera, camera):  # the other camera's partition refuses them
            assert run_cli("ingest", "--data-dir", str(data), "--partition", str(partition),
                           "--template", template, "--input", *frames) == (partition != camera)
    assert run_cli("query", "--data-dir", str(data), "--star", "5") == 1  # two cameras' star 5
    assert run_cli("query", "--data-dir", str(data), "--star", "5", "--partitions", "1",
                   "--out", str(out)) == 0
    with open(out) as fh:
        got = [float(p["calmag"]) for p in csv.DictReader(fh)]
    star5 = []
    for camera in (0, 1):
        template = read_records_bin(tmp_path / f"cam{camera}" / "template.tds")
        star5.append(float(template["calmag"][template["id"] == 5][0]))
    assert abs(star5[0] - star5[1]) > 0.5  # the two cameras' star 5 tell apart
    assert len(got) == 3 and np.allclose(got, star5[1], atol=0.1)


@pytest.mark.parametrize("calmag", [np.nan, 100.0])
def test_ingest_and_crossmatch_refuse_a_frame_file_by_its_calmag_row(tmp_path, capsys, calmag):
    gen, data = tmp_path / "gen", tmp_path / "d"
    assert run_cli("generate", "--out", str(gen), "--frames", "2", "--stars", "60",
                   "--seed", "2") == 0
    frames = sorted(gen.glob("frame_*.tds"))
    records = read_records_bin(frames[1])
    records["calmag"][7] = calmag
    write_records_bin(frames[1], records)
    capsys.readouterr()
    refusal = f"{frames[1]}: row 7: calmag {calmag!r} is not inside (-100, 100)"
    template = ["--template", str(gen / "template.tds")]
    assert run_cli("ingest", "--data-dir", str(data), "--partition", "0", *template,
                   "--input", *map(str, frames)) == 1
    assert refusal in capsys.readouterr().err
    assert [p.name for p in sorted(data.rglob("seg_*.tdl"))] == ["seg_00000000.tdl"]
    assert run_cli("crossmatch", *template, "--frame", *map(str, frames),
                   "--out-matches", str(tmp_path / "m.csv"),
                   "--out-candidates", str(tmp_path / "c.csv")) == 1
    assert refusal in capsys.readouterr().err


def test_ingest_without_template_stores_candidates(workflow, tmp_path):
    gen, _ = workflow
    data = tmp_path / "d"
    rc = run_cli(
        "ingest", "--data-dir", str(data), "--partition", "0",
        "--input", str(gen / "frame_00000000.tds"),
    )
    assert rc == 0
    [store] = open_partitions(data, [0])
    rec = store.query_records()
    assert len(rec) and np.all(rec["candidate"] == 1)
    assert np.all(rec["star_id"] == -1)


def test_templateless_ingest_then_online_mining_fits_in_1gib(tmp_path):
    # Without a template every row is a candidate, so the replay tracker sees
    # m = k = 17,560 unmatched rows per frame.
    import resource

    gen, data, out = tmp_path / "gen", tmp_path / "data", tmp_path / "alerts.csv"
    assert main(["generate", "--out", str(gen), "--density", "1/10",
                 "--frames", "3"]) == 0
    frames = sorted(str(p) for p in gen.glob("frame_*.tds"))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    # BLAS reserves address space per thread; one thread keeps the limit
    # about the program's own arrays on many-core hosts
    env["OPENBLAS_NUM_THREADS"] = "1"
    for argv in (
        ["ingest", "--data-dir", str(data), "--partition", "0", "--input", *frames],
        ["mine", "online", "--data-dir", str(data), "--out", str(out)],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "tdcat.cli", *argv], capture_output=True,
            text=True, env=env, timeout=120, preexec_fn=limit_address_space,
        )
        assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        kinds = [row[0] for row in csv.reader(fh)][1:]
    assert kinds == ["new_source"] * 17_560


def test_rerun_of_interrupted_ingest_converges(workflow, tmp_path, capsys):
    gen, _ = workflow
    frames = sorted(str(p) for p in gen.glob("frame_*.tds"))[:3]
    template = ["--template", str(gen / "template.tds")]
    clean, resumed = tmp_path / "clean", tmp_path / "resumed"
    assert run_cli("ingest", "--data-dir", str(clean), "--partition", "0",
                   *template, "--input", *frames) == 0
    # the first run stopped after two of the three frames
    assert run_cli("ingest", "--data-dir", str(resumed), "--partition", "0",
                   *template, "--input", *frames[:2]) == 0
    capsys.readouterr()
    assert run_cli("ingest", "--data-dir", str(resumed), "--partition", "0",
                   *template, "--input", *frames) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"skipped {frames[0]}", f"skipped {frames[1]}", f"ingested {frames[2]}",
    ]
    assert tree_bytes(resumed) == tree_bytes(clean)


def test_rerun_of_ingest_with_different_rows_fails(workflow, tmp_path, capsys):
    gen, _ = workflow
    frames = sorted(str(p) for p in gen.glob("frame_*.tds"))[:2]
    data = tmp_path / "d"
    assert run_cli("ingest", "--data-dir", str(data), "--partition", "0",
                   "--template", str(gen / "template.tds"), "--input", *frames) == 0
    stored = tree_bytes(data)
    capsys.readouterr()
    # without the template every row becomes a candidate: not the stored rows
    assert run_cli("ingest", "--data-dir", str(data), "--partition", "0",
                   "--input", *frames) == 1
    assert "not after last appended epoch" in capsys.readouterr().err
    assert tree_bytes(data) == stored


def test_merge_refuses_when_delta_extends_past_night(workflow, tmp_path, capsys):
    gen, _ = workflow
    base = tmp_path / "later"
    # re-generate a night-1 frame stream and ingest it, then ask for a merge
    # that claims to cover only night 0
    night1 = tmp_path / "gen1"
    rc = main(
        ["generate", "--out", str(night1), "--frames", "2", "--stars", "50",
         "--seed", "6", "--night", "1"]
    )
    assert rc == 0
    frames = sorted(str(p) for p in night1.glob("frame_*.tds"))
    rc = main(["ingest", "--data-dir", str(base), "--partition", "0",
               "--template", str(night1 / "template.tds"), "--input", *frames])
    assert rc == 0
    rc = run_cli("merge", "--data-dir", str(base), "--partition", "0",
                 "--night", "0")
    assert rc == 1
    assert "extends past" in capsys.readouterr().err


def test_csv_format_generate_and_ingest(tmp_path):
    gen = tmp_path / "gen"
    rc = main(
        ["generate", "--out", str(gen), "--frames", "2", "--stars", "40",
         "--seed", "1", "--format", "csv"]
    )
    assert rc == 0
    assert (gen / "template.csv").is_file()
    data = tmp_path / "data"
    frames = sorted(str(p) for p in gen.glob("frame_*.csv"))
    rc = main(
        ["ingest", "--data-dir", str(data), "--partition", "0",
         "--template", str(gen / "template.csv"), "--input", *frames]
    )
    assert rc == 0
    [store] = open_partitions(data, [0])
    assert len(store.query_records()) >= 80


# ---------------------------------------------------------------------------
# run-night


def test_run_night_is_deterministic(tmp_path, capsys):
    argv = ["run-night", "--partitions", "2", "--frames", "12",
            "--stars", "120", "--seed", "3", "--new-sources", "1",
            "--brightenings", "1", "--merge"]
    assert main(argv + ["--data-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--data-dir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"


def test_query_refuses_a_star_id_from_two_cameras(tmp_path, capsys):
    # template ids restart at 0 in every partition: star 3 names two stars
    data = str(tmp_path)
    assert main(["run-night", "--data-dir", data, "--partitions", "2",
                 "--frames", "4", "--stars", "200"]) == 0
    capsys.readouterr()
    assert run_cli("query", "--data-dir", data, "--star", "3") == 1
    err = capsys.readouterr().err
    assert "cameras [0, 1]" in err and "--partitions" in err
    out = tmp_path / "curve.csv"
    assert run_cli("query", "--data-dir", data, "--star", "3",
                   "--partitions", "0", "--out", str(out)) == 0
    with open(out) as fh:
        assert len(list(csv.reader(fh))) == 1 + 4


def test_run_night_report_writes_telemetry(tmp_path, capsys):
    rc = main(
        ["run-night", "--data-dir", str(tmp_path), "--partitions", "1",
         "--frames", "6", "--stars", "60", "--report"]
    )
    assert rc == 0
    assert (tmp_path / "night_summary.json").is_file()
    assert (tmp_path / "cadence_p00.csv").is_file()
    out = capsys.readouterr().out
    assert "within cadence" in out


def test_run_night_rejects_a_ragged_truth_log_by_name(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    for row, reason in [
        ("new_source,15.0,90.0", "3 fields"),
        ("supernova,15.0,90.0,1.0,0.0,0.0,-1,12.0,0", "unknown injection kind 'supernova'"),
        ("new_source,90.0,90.0,1.0,0.0,0.0,-1,12.0,0", "epoch_on must precede epoch_off"),
    ]:
        truth.write_text(
            "kind,epoch_on,epoch_off,ra,dec,delta_mag,target_star,mag,camera_id\n"
            f"{row}\n"
        )
        rc = main(["run-night", "--data-dir", str(tmp_path / "data"), "--partitions", "1",
                   "--frames", "4", "--stars", "40", "--inject", str(truth)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {truth}, line 2: ") and reason in err, row
        assert "Traceback" not in err


def test_data_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TDCAT_DATA_DIR", str(tmp_path / "envdata"))
    rc = main(["run-night", "--partitions", "1", "--frames", "4",
               "--stars", "40"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "envdata" / "partition_00").is_dir()


def test_bench_cadence_runs(tmp_path, capsys):
    out = tmp_path / "cadence.csv"
    rc = main(["bench", "cadence", "--frames", "6", "--stars", "60",
               "--out", str(out)])
    assert rc == 0
    assert out.is_file()
    assert "within cadence" in capsys.readouterr().out
