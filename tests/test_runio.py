"""Config files and run-directory artifacts."""

import numpy as np
import pytest

from rdspectral.grid import make_grid
from rdspectral.models import MODELS
from rdspectral.runio import (
    ConfigError,
    RunConfig,
    RunWriter,
    _format_rows,
    config_to_text,
    iter_snapshots,
    load_config,
    load_snapshot,
    parse_config_text,
    read_header,
    read_index,
)
from rdspectral.steppers import SCHEMES, integrate


# --------------------------------------------------------------- config text

def test_config_text_roundtrip():
    cfg = RunConfig(model="gray1d", scheme="etdrk4b", n=128, half_length=37.5,
                    dt=0.03, rel_tol=2e-5, t_final=12.0, snap_every=0.4,
                    out="runs/demo", dealias=True,
                    params={"feed": 0.041, "kill": 0.0625})
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_config_text_bytes_are_pinned():
    cfg = RunConfig(model="gray1d", scheme="etdrk4b", n=128, half_length=37.5,
                    dt=0.03, rel_tol=2e-5, t_final=12.0, snap_every=0.4,
                    out="runs/demo", dealias=True,
                    params={"kill": 0.0625, "feed": 0.041})
    assert config_to_text(cfg) == (
        "model = gray1d\n"
        "scheme = etdrk4b\n"
        "n = 128\n"
        "L = 37.5\n"
        "dt = 0.03\n"
        "tol = 2e-05\n"
        "t_final = 12.0\n"
        "snap_every = 0.4\n"
        "out = runs/demo\n"
        "dealias = true\n"
        "param.feed = 0.041\n"
        "param.kill = 0.0625\n")
    assert config_to_text(RunConfig(model="fisher1d")) == (
        "model = fisher1d\nscheme = rk4\ndealias = false\n")


def test_config_roundtrip_via_disk(tmp_path):
    cfg = RunConfig(model="fisher1d", dt=0.1, t_final=1.0)
    path = tmp_path / "run.cfg"
    path.write_text(config_to_text(cfg))
    assert load_config(path) == cfg


@pytest.mark.parametrize("settings, line", [
    ({"n": 64.0}, "n = 64"),            # validate takes n = 64.0 as make_grid does
    ({"n": np.float64(64.0)}, "n = 64"),
    ({"dt": np.float64(0.1)}, "dt = 0.1"),
    ({"params": {"delta": np.float64(2.0)}}, "param.delta = 2.0"),
])
def test_config_txt_reloads_every_config_validate_takes(tmp_path, settings, line):
    cfg = RunConfig(model="fisher1d", t_final=1.0, **settings)
    assert cfg.validate() == []
    assert line in config_to_text(cfg).splitlines()
    path = tmp_path / "config.txt"
    path.write_text(config_to_text(cfg))
    assert load_config(path) == cfg
    assert load_config(path).grid().n == cfg.grid().n


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
    assert problems[3] == ("demo.cfg:4: unknown key 'colour'; valid keys: model, scheme, "
                           "n, L, dt, tol, t_final, snap_every, out, dealias, param.<name>")
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


def test_validate_adi_checks_the_configured_grid():
    assert RunConfig(model="fisher2d", scheme="adi", n=2, half_length=5.0,
                     t_final=0.2).validate() == [
        "scheme adi cannot run model fisher2d: the ADI scheme needs n >= 4, got 2"]
    assert RunConfig(model="fisher2d", scheme="adi", n=4, t_final=0.2).validate() == []
    # an invalid n or L is reported once, and ADI is then asked about the default grid
    assert RunConfig(model="fisher2d", scheme="adi", n=3, t_final=0.2).validate() == [
        "n must be even and >= 2, got 3"]


def test_validate_builds_no_grid_for_a_spectral_scheme(monkeypatch):
    # only ADI's run checks read the grid
    def no_grid(self):
        raise AssertionError("validate built a grid")
    monkeypatch.setattr(RunConfig, "grid", no_grid)
    for scheme in ("rk4", "ck45", "etdrk4", "etdrk4b"):
        assert RunConfig(model="gray2d", scheme=scheme, n=64, t_final=1.0).validate() == []


@pytest.mark.parametrize("out", ["runs/#3", "a\nscheme = ck45", "a\rb", " runs/x",
                                 "runs/x ", "runs/x\n"])
def test_validate_rejects_an_out_config_txt_cannot_hold(out):
    cfg = RunConfig(model="fisher1d", t_final=1.0, out=out)
    try:  # why it is refused: its config.txt reloads as another config, or not at all
        assert parse_config_text(config_to_text(cfg)) != cfg
    except ConfigError:
        pass
    problems = cfg.validate()
    assert len(problems) == 1
    assert problems[0].startswith("out cannot hold '#', a line break")
    assert repr(out) in problems[0]


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


def test_validate_reports_tol_with_a_fixed_step_scheme():
    for scheme in ("rk4", "etdrk4", "etdrk4b"):
        assert RunConfig(model="fisher1d", scheme=scheme, rel_tol=1e-3,
                         t_final=1.0).validate() == [
            f"tol is read only by scheme ck45, not by {scheme}"]
    assert RunConfig(model="fisher1d", scheme="ck45", rel_tol=1e-3, t_final=1.0).validate() == []


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", MODELS)
def test_integrate_refuses_exactly_the_runs_validate_reports(model, scheme, dealias):
    _assert_integrate_refuses_what_validate_reports(
        RunConfig(model=model, scheme=scheme, dealias=dealias, t_final=0.0))


def test_integrate_refuses_adi_on_the_grid_validate_resolves():
    _assert_integrate_refuses_what_validate_reports(
        RunConfig(model="fisher2d", scheme="adi", n=2, half_length=5.0, t_final=0.0))


def _assert_integrate_refuses_what_validate_reports(cfg):
    """integrate, given the config's grid and step, refuses the run with
    exactly the problems validate lists, or runs it when there are none."""
    problems = cfg.validate()

    def run():
        integrate(cfg.model, cfg.grid(), scheme=cfg.scheme, dt=cfg.resolved_dt(),
                  t_final=cfg.t_final, dealias=cfg.dealias)
    if not problems:
        run()
        return
    with pytest.raises(ValueError) as excinfo:
        run()
    assert str(excinfo.value) == "; ".join(problems)


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
    assert names == ["config.txt", "header.txt", "snapshots.bin", "snapshots.csv",
                     "spacetime_0.csv", "summary.txt"]
    # six (1, 64) float64 payloads, one after the other, at the offsets the index gives
    assert (tmp_path / "run" / "snapshots.bin").stat().st_size == 6 * 64 * 8
    assert [offset for _, _, offset, _ in read_index(tmp_path / "run")] == [
        k * 64 * 8 for k in range(6)]


def test_run_directory_files_do_not_grow_with_the_snapshot_count(tmp_path):
    grid = make_grid(64, 20.0, 1)
    for name, snap_every, t_final in (("six", 0.1, 0.5), ("sixty", 0.01, 0.59)):
        writer = RunWriter(tmp_path / name, grid, "fisher1d", 1, snap_every=snap_every)
        writer.finish(integrate("fisher1d", grid, scheme="rk4", dt=0.01, t_final=t_final,
                                snap_every=snap_every, sink=writer))
    assert [len(read_index(tmp_path / name)) for name in ("six", "sixty")] == [6, 60]
    assert len(list((tmp_path / "six").iterdir())) == len(list((tmp_path / "sixty").iterdir()))


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
    cfg = RunConfig(model="fisher1d", dt=0.05, t_final=0.5, snap_every=0.1)
    _small_run(tmp_path / "a", config=cfg)
    _small_run(tmp_path / "b", config=cfg)
    for name in ["snapshots.csv", "snapshots.bin", "spacetime_0.csv", "header.txt",
                 "config.txt"]:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name


def test_corrupted_payload_is_detected(tmp_path):
    _small_run(tmp_path)
    target = tmp_path / "snapshots.bin"
    payload = bytearray(target.read_bytes())
    payload[read_index(tmp_path)[2][2] + 17] ^= 0xFF
    target.write_bytes(bytes(payload))
    with pytest.raises(ValueError, match="checksum mismatch for snapshot 2 in"):
        load_snapshot(tmp_path, 2)
    load_snapshot(tmp_path, 1)  # neighbors unaffected
    with pytest.raises(ValueError, match="no snapshot 99"):
        load_snapshot(tmp_path, 99)


def test_iter_snapshots_reads_the_index_once(tmp_path, monkeypatch):
    from rdspectral import runio
    _small_run(tmp_path, snap_every=0.25)
    calls = []
    real = runio.read_index
    monkeypatch.setattr(runio, "read_index", lambda d: calls.append(d) or real(d))
    loaded = list(iter_snapshots(tmp_path))
    assert len(loaded) == 3 and len(calls) == 1
    for k, (t, fields) in enumerate(loaded):
        t_k, fields_k = load_snapshot(tmp_path, k)
        assert t == t_k and np.array_equal(fields, fields_k)
    target = tmp_path / "snapshots.bin"
    payload = bytearray(target.read_bytes())
    payload[read_index(tmp_path)[1][2] + 9] ^= 0x01
    target.write_bytes(bytes(payload))
    with pytest.raises(ValueError, match="checksum mismatch for snapshot 1 in"):
        list(iter_snapshots(tmp_path))


def test_bytes_past_the_last_indexed_payload_are_ignored(tmp_path):
    # what a run killed between a payload and its index row leaves behind
    _small_run(tmp_path)
    written = list(iter_snapshots(tmp_path))
    target = tmp_path / "snapshots.bin"
    assert target.stat().st_size == 6 * 64 * 8
    with open(target, "ab") as payloads:
        payloads.write(b"\x01" * 700)
    for (t, fields), (t_after, fields_after) in zip(written, iter_snapshots(tmp_path),
                                                     strict=True):
        assert t == t_after and np.array_equal(fields, fields_after)
    t, fields = load_snapshot(tmp_path, 5)
    assert t == written[5][0] and np.array_equal(fields, written[5][1])


def test_a_payload_cut_short_is_named(tmp_path):
    _small_run(tmp_path)
    with open(tmp_path / "snapshots.bin", "r+b") as payloads:
        payloads.truncate(3 * 64 * 8 + 100)
    message = r"snapshots\.bin ends inside snapshot 3"
    with pytest.raises(ValueError, match=message):
        list(iter_snapshots(tmp_path))
    with pytest.raises(ValueError, match=message):
        load_snapshot(tmp_path, 3)
    load_snapshot(tmp_path, 2)  # the payloads before it are whole


def test_spacetime_csv_bytes_match_per_value_formatting(tmp_path):
    from rdspectral.grid import State
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1.8e308,
               -1.0 / 3.0, 0.1, 1e22, 123456789.0]
    grid = make_grid(len(special), 5.0, 1)
    writer = RunWriter(tmp_path, grid, "gray1d", 2)
    profiles = [(0.0, np.array([special, special[::-1]])),
                (0.30000000000000004, np.array([special[::-1], special]))]
    for t, u in profiles:
        writer(State(t=t, u=u, uhat=np.zeros((2, len(special) // 2 + 1), complex)))
    writer.finish()
    for s in (0, 1):
        want = "".join(",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in u[s]]) + "\n"
                       for t, u in profiles)
        assert (tmp_path / f"spacetime_{s}.csv").read_bytes() == want.encode()


def test_index_reads_back_every_snapshot_of_an_unfinished_run(tmp_path):
    # a run killed before finish: its index and its space-time rows already
    # list what it wrote, and a new writer drops the index and the rows an
    # earlier run left in the directory
    _small_run(tmp_path)
    finished = (tmp_path / "spacetime_0.csv").read_bytes()
    grid = make_grid(64, 20.0, 1)
    writer = RunWriter(tmp_path, grid, "fisher1d", 1)
    handed = []

    def sink(state):
        handed.append((state.t, np.array(state.u)))
        writer(state)
    integrate("fisher1d", grid, scheme="rk4", dt=0.05, t_final=0.2,
              snap_every=0.1, sink=sink)
    assert len(handed) == 3
    rows = read_index(tmp_path)
    assert [(k, t, offset) for k, t, offset, _ in rows] == [
        (k, t, k * 64 * 8) for k, (t, _) in enumerate(handed)]
    assert (tmp_path / "snapshots.bin").stat().st_size == 3 * 64 * 8
    loaded = list(iter_snapshots(tmp_path))
    assert len(loaded) == 3
    for (t, fields), (t_handed, u) in zip(loaded, handed):
        assert t == t_handed and np.array_equal(fields, u)
    assert (tmp_path / "snapshots.csv").read_text() == "index,time,offset,crc32\n" + "".join(
        f"{k},{t:.17g},{offset},{crc}\n" for k, t, offset, crc in rows)
    # one row per indexed snapshot, the first 3 rows of the finished 6-snapshot run
    assert (tmp_path / "spacetime_0.csv").read_bytes() == b"".join(
        finished.splitlines(keepends=True)[:3])


@pytest.mark.parametrize("species, n", [(2, 64), (1, 32)])
def test_fields_of_another_shape_are_refused_before_a_byte_is_written(tmp_path,
                                                                      species, n):
    from rdspectral.grid import State
    writer = RunWriter(tmp_path, make_grid(n, 20.0, 1), "gray1d", species)
    state = State(t=0.0, u=np.zeros((1, 64)), uhat=np.zeros((1, 33), complex))
    with pytest.raises(ValueError, match=rf"shape \(1, 64\).*\({species}, {n}\)"):
        writer(state)
    writer.finish()
    assert read_index(tmp_path) == []
    for name in ["snapshots.bin"] + [f"spacetime_{s}.csv" for s in range(species)]:
        assert (tmp_path / name).read_bytes() == b"", name


def test_writer_without_a_config_drops_an_older_runs_config(tmp_path):
    # a gray1d run written with its config, then a fisher1d run in the same
    # directory by a caller that passes none: no config.txt is left to
    # describe the gray1d run
    grid = make_grid(64, 50.0, 1)
    config = RunConfig(model="gray1d", n=64, half_length=50.0, dt=0.1, t_final=0.2)
    writer = RunWriter(tmp_path, grid, "gray1d", 2, config=config)
    writer.finish(integrate("gray1d", grid, scheme="rk4", dt=0.1, t_final=0.2, sink=writer))
    assert load_config(tmp_path / "config.txt") == config
    writer = RunWriter(tmp_path, grid, "fisher1d", 1)
    writer.finish(integrate("fisher1d", grid, scheme="rk4", dt=0.1, t_final=0.2, sink=writer))
    assert not (tmp_path / "config.txt").exists()
    assert read_header(tmp_path)["model"] == "fisher1d"


# ------------------------------------------------------- %.17g as arrays

def _per_value_text(block):
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in block.tolist()).encode()


def _assert_formats_like_per_value(values, cols):
    values = np.asarray(values, dtype=float).ravel()
    block = np.concatenate([values, np.ones(-values.size % cols)]).reshape(-1, cols)
    assert _format_rows(block).tobytes() == _per_value_text(block)


def test_format_rows_matches_per_value_on_random_bit_patterns():
    # every exponent, both signs, and NaNs with the sign bit set ("nan")
    bits = np.random.default_rng(11).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert np.isnan(values[np.signbit(values)]).any()
    _assert_formats_like_per_value(values, 1000)


def test_format_rows_matches_per_value_next_to_powers_of_ten():
    # the notation switches at 1e-5/1e-4 and 1e16/1e17, and carries such as
    # 9.99999999999999999e-5 -> 0.0001
    tens = np.array([float(f"1e{j}") for j in range(-300, 301)])
    near = [tens]
    below, above = tens, tens
    for _ in range(4):
        below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
        near += [below, above]
    near = np.concatenate(near)
    _assert_formats_like_per_value(np.concatenate([near, -near]), 601)


def test_format_rows_matches_per_value_on_exact_ties():
    # 18 significant digits ending in 5 round half to even at 17
    rng = np.random.default_rng(12)
    ties = [1234567890123456.75, 1234567890123456.25]
    for digits in (2, 3, 4):   # n + odd / 2**digits, n with 18 - digits digits
        n = rng.integers(10 ** (17 - digits), 10 ** (18 - digits), 2000)
        n = n[n < 2 ** (53 - digits)]
        odd = 2 * rng.integers(0, 2 ** (digits - 1), n.size) + 1
        ties += (n + odd / 2 ** digits).tolist()
    ties = np.array(ties)
    assert _per_value_text(ties[None, :2]) == b"1234567890123456.8,1234567890123456.2\n"
    _assert_formats_like_per_value(np.concatenate([ties, -ties]), 97)


def test_format_rows_matches_per_value_on_a_front_run():
    grid = make_grid(2048, 150.0, 1)
    rows = []
    integrate("fisher1d", grid, scheme="rk4", dt=0.1, t_final=25.0, snap_every=0.1,
              sink=lambda s: rows.append(np.concatenate([[s.t], s.u[0]])))
    block = np.array(rows)
    assert block.shape == (251, 2049)
    assert _format_rows(block).tobytes() == _per_value_text(block)


def test_format_rows_special_values():
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
               1e-283, 1e290, 1.7976931348623157e308, 1e-5, 1e-4, 1e16, 1e17, 1.0, -1.0, 0.1]
    assert _format_rows(np.array([special])).tobytes() == _per_value_text(np.array([special]))
    assert _format_rows(np.array([[1e16, -1e17], [0.0001, -0.30000000000000004]])).tobytes() \
        == b"10000000000000000,-1e+17\n0.0001,-0.30000000000000004\n"


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
