"""Config files and run-directory artifacts."""

import numpy as np
import pytest

from rdspectral.grid import make_grid
from rdspectral.models import MODELS
from rdspectral.runio import (
    ConfigError,
    RunConfig,
    RunWriter,
    config_to_text,
    iter_snapshots,
    load_config,
    load_snapshot,
    parse_config_text,
    read_header,
    read_index,
)
from rdspectral.steppers import integrate


# --------------------------------------------------------------- config text

def test_config_text_roundtrip():
    cfg = RunConfig(model="gray1d", scheme="etdrk4b", n=128, half_length=37.5,
                    dt=0.03, rel_tol=2e-5, t_final=12.0, snap_every=0.4,
                    out="runs/demo", dealias=True,
                    params={"feed": 0.041, "kill": 0.0625})
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_config_roundtrip_via_disk(tmp_path):
    cfg = RunConfig(model="fisher1d", dt=0.1, t_final=1.0)
    path = tmp_path / "run.cfg"
    path.write_text(config_to_text(cfg))
    assert load_config(path) == cfg


def test_parse_comments_blank_lines_and_key_aliases():
    cfg = parse_config_text(
        "# a demo\n"
        "model = fisher1d   # trailing comment\n"
        "\n"
        "L = 75.0\n"
        "tol = 1e-6\n")
    assert cfg.model == "fisher1d"
    assert cfg.half_length == 75.0
    assert cfg.rel_tol == 1e-6


def test_parse_reports_every_problem_with_line_numbers():
    text = ("scheme rk4\n"           # no '='
            "n = eleven\n"           # bad int
            "dealias = perhaps\n"    # bad bool
            "colour = red\n")        # unknown key, and model is missing
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text, source="demo.cfg")
    problems = exc.value.problems
    assert len(problems) == 5
    assert problems[0].startswith("demo.cfg:1:")
    assert "expected key = value" in problems[0]
    assert problems[1].startswith("demo.cfg:2:")
    assert "bad value for n" in problems[1]
    assert "expected a boolean" in problems[2]
    assert "unknown key 'colour'" in problems[3]
    assert "param.<name>" in problems[3]
    assert problems[4] == "demo.cfg: model is required"
    assert str(exc.value).count("  - ") == 5


def test_validate_collects_all_field_problems():
    cfg = RunConfig(model="nope", scheme="bogus", n=7, half_length=-1.0,
                    dt=0.0, rel_tol=0.0, t_final=None, snap_every=0.0)
    problems = cfg.validate()
    assert len(problems) == 8
    joined = "\n".join(problems)
    assert "valid models:" in joined
    assert "valid schemes:" in joined
    assert "t_final is required" in joined


def test_validate_adi_requires_fisher2d():
    bad = RunConfig(model="gray1d", scheme="adi", t_final=1.0)
    assert bad.validate() == [
        "scheme adi cannot run model gray1d: the ADI scheme is two-dimensional only"]
    assert RunConfig(model="fisher2d", scheme="adi", t_final=1.0).validate() == []


def test_validate_rejects_adi_with_dealias():
    problems = RunConfig(model="fisher2d", scheme="adi", dealias=True, t_final=1.0).validate()
    assert len(problems) == 1
    assert "scheme adi cannot dealias" in problems[0]


def test_adi_accepts_exactly_the_2d_single_species_models():
    # the capability check reads dimension and species count from the registry
    accepted = {name for name in MODELS
                if not RunConfig(model=name, scheme="adi", t_final=1.0).validate()}
    assert accepted == {"fisher2d"}
    assert RunConfig(model="gray2d", scheme="adi", t_final=1.0).validate() == [
        "scheme adi cannot run model gray2d: "
        "the ADI scheme handles single-species models, gray2d has 2"]


def test_validate_checks_model_params():
    cfg = RunConfig(model="fisher1d", t_final=1.0, params={"bogus": 1.0})
    problems = cfg.validate()
    assert len(problems) == 1
    assert "bogus" in problems[0]


def test_grid_and_dt_defaults_come_from_the_registry():
    cfg = RunConfig(model="fisher2d", t_final=1.0)
    grid = cfg.grid()
    assert grid.dims == 2
    override = RunConfig(model="fisher2d", t_final=1.0, n=48, half_length=30.0)
    assert override.grid().n == (48, 48)
    assert override.grid().half_length == (30.0, 30.0)
    assert RunConfig(model="fisher1d", dt=0.25, t_final=1.0).resolved_dt() == 0.25
    assert RunConfig(model="fisher1d", t_final=1.0).resolved_dt() > 0


# ------------------------------------------------------------ run directories

def _small_run(out_dir, *, snap_every=0.1, config=None):
    grid = make_grid(64, 20.0, 1)
    writer = RunWriter(out_dir, grid, "fisher1d", 1,
                       config=config, snap_every=snap_every)
    summary = integrate("fisher1d", grid, scheme="rk4", dt=0.05, t_final=0.5,
                        snap_every=snap_every, sink=writer)
    writer.finish(summary)
    return grid, writer, summary


def test_run_directory_inventory(tmp_path):
    cfg = RunConfig(model="fisher1d", dt=0.05, t_final=0.5, snap_every=0.1)
    _small_run(tmp_path / "run", config=cfg)
    names = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert names == ["config.txt", "header.txt",
                     "snap_00000.bin", "snap_00001.bin", "snap_00002.bin",
                     "snap_00003.bin", "snap_00004.bin", "snap_00005.bin",
                     "snapshots.csv", "spacetime_0.csv", "summary.txt"]


def test_header_round_trips(tmp_path):
    _small_run(tmp_path)
    header = read_header(tmp_path)
    assert header == {"model": "fisher1d", "species": 1, "dims": 1,
                      "n": (64,), "L": (20.0,), "snap_every": 0.1}


def test_header_without_cadence(tmp_path):
    grid = make_grid(16, 5.0, 1)
    RunWriter(tmp_path, grid, "fisher1d", 1)
    assert read_header(tmp_path)["snap_every"] is None


def test_snapshots_load_with_times_in_order(tmp_path):
    _small_run(tmp_path)
    rows = read_index(tmp_path)
    assert [k for k, *_ in rows] == list(range(6))
    times = [t for _, t, _, _ in rows]
    assert times == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]
    loaded = list(iter_snapshots(tmp_path))
    assert len(loaded) == 6
    for (t, fields), t_row in zip(loaded, times):
        assert t == t_row
        assert fields.shape == (1, 64)


def test_spacetime_csv_matches_snapshots_exactly(tmp_path):
    # 17 significant digits round-trip doubles exactly
    _small_run(tmp_path)
    lines = (tmp_path / "spacetime_0.csv").read_text().splitlines()
    assert len(lines) == 6
    for k, line in enumerate(lines):
        cells = [float(v) for v in line.split(",")]
        t, fields = load_snapshot(tmp_path, k)
        assert cells[0] == t
        assert np.array_equal(np.array(cells[1:]), fields[0])


def test_no_spacetime_file_for_2d_runs(tmp_path):
    grid = make_grid(16, 10.0, 2)
    writer = RunWriter(tmp_path, grid, "fisher2d", 1)
    summary = integrate("fisher2d", grid, scheme="rk4", dt=0.1, t_final=0.2,
                        sink=writer)
    writer.finish(summary)
    assert not list(tmp_path.glob("spacetime_*.csv"))
    t, fields = load_snapshot(tmp_path, 1)
    assert t == 0.2
    assert fields.shape == (1, 16, 16)


def test_runs_are_bitwise_deterministic(tmp_path):
    _small_run(tmp_path / "a")
    _small_run(tmp_path / "b")
    for name in ["snapshots.csv"] + [f"snap_{k:05d}.bin" for k in range(6)]:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name


def test_corrupted_payload_is_detected(tmp_path):
    _small_run(tmp_path)
    target = tmp_path / "snap_00002.bin"
    payload = bytearray(target.read_bytes())
    payload[17] ^= 0xFF
    target.write_bytes(bytes(payload))
    with pytest.raises(ValueError, match="checksum mismatch"):
        load_snapshot(tmp_path, 2)
    load_snapshot(tmp_path, 1)  # neighbors unaffected
    with pytest.raises(ValueError, match="no snapshot 99"):
        load_snapshot(tmp_path, 99)


def test_summary_contents(tmp_path):
    _, _, summary = _small_run(tmp_path)
    text = (tmp_path / "summary.txt").read_text()
    assert "status = ok" in text
    assert "scheme = rk4" in text
    assert "steps = 10" in text
    assert "reaction_evals = 40" in text
    assert "snapshots = 6" in text
    assert "detail" not in text


def test_failed_run_summary_keeps_status_and_detail(tmp_path):
    grid = make_grid(16, 5.0, 1)
    writer = RunWriter(tmp_path, grid, "fisher1d", 1)
    writer.finish(None, status="blowup", detail="|u| reached 1e10")
    text = (tmp_path / "summary.txt").read_text()
    assert text.splitlines()[0] == "status = blowup"
    assert "detail = |u| reached 1e10" in text
    assert "steps" not in text


def test_stored_config_revalidates_clean(tmp_path):
    cfg = RunConfig(model="fisher1d", dt=0.05, t_final=0.5, snap_every=0.1)
    _small_run(tmp_path, config=cfg)
    reloaded = load_config(tmp_path / "config.txt")
    assert reloaded == cfg
    assert reloaded.validate() == []
