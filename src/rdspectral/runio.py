"""Run configuration files and on-disk run artifacts.

A run directory is a self-describing bundle:

* ``config.txt``     the flat key=value configuration that produced it
* ``header.txt``     grid/species/payload description
* ``snap_XXXXX.bin`` one snapshot per file: all species concatenated,
                     64-bit little-endian floats, row-major with x
                     fastest (exactly the in-memory layout)
* ``snapshots.csv``  index, time, file name, CRC-32 of the payload
* ``summary.txt``    step counts, costs, and exit status
* ``spacetime_<s>.csv``  for 1D runs, one row per snapshot: t then the
                     profile of species s, 17 significant digits

Config values are plain text: ``key = value`` lines, ``#`` comments,
``param.<name>`` lines for model parameter overrides.  ``_SETTINGS`` is
the one list of run settings: per RunConfig field, its config key, the
parser of its text and the help of its CLI flag ``--key`` (``_`` as
``-``).  The parser, ``config_to_text`` and the CLI flags all read it;
flags override the file.  Parsing and validation report all problems
at once, never just the first.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grid import GridSpec, State, _broken_bound, make_grid
from .models import MODELS, default_timestep, get_model
from .steppers import SCHEMES, RunSummary, _scheme_problems
__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_text",
    "load_config",
    "config_to_text",
    "RunWriter",
    "read_header",
    "read_index",
    "load_snapshot",
    "iter_snapshots",
]

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low not in _TRUE | _FALSE:
        raise ValueError(f"expected a boolean, got {text!r}")
    return low in _TRUE


# RunConfig field: (config key, parser of its text, help of its flag), in config.txt order
_SETTINGS = {
    "model": ("model", str, "registered model name"),
    "scheme": ("scheme", str, " | ".join(SCHEMES)),
    "n": ("n", int, "modes per direction"),
    "half_length": ("L", float, "domain half-length"),
    "dt": ("dt", float, "fixed step (initial step for ck45)"),
    "rel_tol": ("tol", float, "relative tolerance for ck45"),
    "t_final": ("t_final", float, None),
    "snap_every": ("snap_every", float, "snapshot cadence in model time"),
    "out": ("out", str, "output directory"),
    "dealias": ("dealias", _parse_bool, "2/3-rule dealiasing of the reaction term"),
}
_BY_KEY = {key: (name, parse) for name, (key, parse, _) in _SETTINGS.items()}


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists every failure found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(
            f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run.  Unset fields fall back
    to the model registry defaults when the run is launched."""

    model: str
    scheme: str = "rk4"
    n: int | None = None
    half_length: float | None = None
    dt: float | None = None
    rel_tol: float | None = None
    t_final: float | None = None
    snap_every: float | None = None
    out: str | None = None
    dealias: bool = False
    params: dict = dc_field(default_factory=dict)

    def validate(self) -> list[str]:
        """All problems with this config, in field order; empty if fine."""
        problems = []
        if self.model not in MODELS:
            problems.append(
                f"unknown model {self.model!r}; valid models: {', '.join(sorted(MODELS))}")
        if self.scheme not in SCHEMES:
            problems.append(
                f"unknown scheme {self.scheme!r}; valid schemes: {', '.join(SCHEMES)}")
        bad_n = self.n is not None and (self.n < 2 or self.n % 2)
        if bad_n:
            problems.append(f"n must be even and >= 2, got {self.n}")
        bad_l = self.half_length is not None and _broken_bound(self.half_length)
        if bad_l:
            problems.append(f"L must be {bad_l}, got {self.half_length}")
        for key, value in (("dt", self.dt), ("tol", self.rel_tol)):
            if value is not None and (bound := _broken_bound(value)):
                problems.append(f"{key} must be {bound}, got {value}")
        if self.rel_tol is not None and self.scheme in SCHEMES and self.scheme != "ck45":
            problems.append(f"tol is read only by scheme ck45, not by {self.scheme}")
        if self.t_final is None:
            problems.append("t_final is required")
        elif bound := _broken_bound(self.t_final, nonnegative=True):
            problems.append(f"t_final must be {bound}, got {self.t_final}")
        if self.snap_every is not None and not self.snap_every > 0:
            problems.append(f"snap_every must be positive, got {self.snap_every}")
        # config.txt cuts comments at '#', splits lines and strips values
        if self.out and ("#" in self.out or self.out.strip().splitlines() != [self.out]):
            problems.append("out cannot hold '#', a line break or leading or "
                            f"trailing whitespace, got {self.out!r}")
        spec = get_model(self.model) if self.model in MODELS else None
        grid = None if spec is None or bad_n or bad_l else self.grid()  # None: the default
        problems.extend(_scheme_problems(self.scheme, spec, grid, self.dealias))
        if spec is not None and self.params:
            try:
                spec.params(self.params)
            except ValueError as err:
                problems.append(str(err))
        return problems

    def grid(self) -> GridSpec:
        """The concrete grid this config runs on."""
        spec = get_model(self.model)
        n0, L0, dims = spec.default_grid_args
        return make_grid(self.n if self.n is not None else n0,
                         self.half_length if self.half_length is not None else L0,
                         dims)

    def resolved_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        return default_timestep(get_model(self.model), self.params)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse the flat key=value format; raises ConfigError listing every
    malformed line or unknown key."""
    values: dict = {"params": {}}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{source}:{lineno}: expected key = value, got {raw.strip()!r}")
            continue
        key, _, value = (s.strip() for s in line.partition("="))
        try:
            if key.startswith("param."):
                values["params"][key[len("param."):]] = float(value)
            elif key in _BY_KEY:
                name, parse = _BY_KEY[key]
                values[name] = parse(value)
            else:
                problems.append(
                    f"{source}:{lineno}: unknown key {key!r}; valid keys: "
                    f"{', '.join(_BY_KEY)}, param.<name>")
        except ValueError as err:
            problems.append(f"{source}:{lineno}: bad value for {key}: {err}")
    if "model" not in values:
        problems.append(f"{source}: model is required")
    if problems:
        raise ConfigError(problems)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))


def config_to_text(config: RunConfig) -> str:
    lines = []
    for name, (key, parse, _) in _SETTINGS.items():
        value = getattr(config, name)
        if parse is _parse_bool:
            lines.append(f"{key} = {'true' if value else 'false'}")
        elif value is not None:
            # repr gives the shortest string that parses back to the same double
            lines.append(f"{key} = {value!r}" if isinstance(value, float)
                         else f"{key} = {value}")
    for name in sorted(config.params):
        lines.append(f"param.{name} = {config.params[name]!r}")
    return "\n".join(lines) + "\n"


def _header_text(grid: GridSpec, model: str, species: int,
                 snap_every: float | None) -> str:
    lines = [
        f"model = {model}",
        f"species = {species}",
        f"dims = {grid.dims}",
        "n = " + ",".join(str(v) for v in grid.n),
        "L = " + ",".join(f"{v:.17g}" for v in grid.half_length),
        "payload = float64 little-endian, row-major, x fastest, species concatenated",
        f"snap_every = {'none' if snap_every is None else f'{snap_every:.17g}'}",
    ]
    return "\n".join(lines) + "\n"


class RunWriter:
    """Snapshot sink for integrate()/adi_integrate(): writes the run
    directory incrementally, then ``finish`` seals index and summary."""

    def __init__(self, out_dir, grid: GridSpec, model: str, species: int,
                 config: RunConfig | None = None, snap_every: float | None = None):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.grid = grid
        self.rows: list[tuple[int, float, str, int]] = []
        self._profiles: list[tuple[float, np.ndarray]] = []  # 1D space-time matrix
        (self.dir / "header.txt").write_text(_header_text(grid, model, species, snap_every))
        if config is not None:
            (self.dir / "config.txt").write_text(config_to_text(config))

    def __call__(self, state: State) -> None:
        k = len(self.rows)
        name = f"snap_{k:05d}.bin"
        payload = np.ascontiguousarray(state.u, dtype="<f8").tobytes()
        (self.dir / name).write_bytes(payload)
        self.rows.append((k, state.t, name, zlib.crc32(payload)))
        if self.grid.dims == 1:
            self._profiles.append((state.t, np.array(state.u)))

    def finish(self, summary: RunSummary | None = None,
               status: str = "ok", detail: str = "") -> None:
        index = ["index,time,file,crc32"]
        index += [f"{k},{t:.17g},{name},{crc}" for k, t, name, crc in self.rows]
        (self.dir / "snapshots.csv").write_text("\n".join(index) + "\n")
        for s in range(self._species_count()):
            # one %-format per row; its %.17g writes what f"{v:.17g}" writes
            row = ",".join(["%.17g"] * (1 + self.grid.n[0]))
            lines = [row % ((t,) + tuple(u[s].tolist())) for t, u in self._profiles]
            if lines:
                (self.dir / f"spacetime_{s}.csv").write_text("\n".join(lines) + "\n")
        lines = [f"status = {status}"]
        if detail:
            lines.append(f"detail = {detail}")
        if summary is not None:
            lines += [
                f"model = {summary.model}",
                f"scheme = {summary.scheme}",
                f"t_end = {summary.t_end:.17g}",
                f"steps = {summary.steps}",
                f"accepted = {summary.accepted}",
                f"rejected = {summary.rejected}",
                f"reaction_evals = {summary.reaction_evals}",
                f"wall_time = {summary.wall_time:.6g}",
                f"dense_time = {summary.dense_time:.6g}",
                f"snapshots = {len(self.rows)}",
            ]
        (self.dir / "summary.txt").write_text("\n".join(lines) + "\n")

    def _species_count(self) -> int:
        return self._profiles[0][1].shape[0] if self._profiles else 0


def _parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_header(run_dir) -> dict:
    """Parsed header.txt: model, species, dims, n tuple, L tuple, cadence."""
    raw = _parse_kv((Path(run_dir) / "header.txt").read_text())
    return {
        "model": raw["model"],
        "species": int(raw["species"]),
        "dims": int(raw["dims"]),
        "n": tuple(int(v) for v in raw["n"].split(",")),
        "L": tuple(float(v) for v in raw["L"].split(",")),
        "snap_every": None if raw.get("snap_every", "none") == "none"
                      else float(raw["snap_every"]),
    }


def read_index(run_dir) -> list[tuple[int, float, str, int]]:
    lines = (Path(run_dir) / "snapshots.csv").read_text().splitlines()
    rows = []
    for line in lines[1:]:
        k, t, name, crc = line.split(",")
        rows.append((int(k), float(t), name, int(crc)))
    return rows


def _fields_shape(run_dir: Path) -> tuple[int, ...]:
    header = read_header(run_dir)
    return (header["species"],) + tuple(reversed(header["n"]))


def _read_fields(run_dir: Path, name: str, crc: int, shape) -> np.ndarray:
    payload = (run_dir / name).read_bytes()
    if zlib.crc32(payload) != crc:
        raise ValueError(f"checksum mismatch for {name} in {run_dir}")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).astype(float)


def load_snapshot(run_dir, index: int) -> tuple[float, np.ndarray]:
    """One snapshot as (t, fields (S, *shape)); payload CRC is verified."""
    run_dir = Path(run_dir)
    shape = _fields_shape(run_dir)
    rows = {k: (t, name, crc) for k, t, name, crc in read_index(run_dir)}
    if index not in rows:
        raise ValueError(f"no snapshot {index} in {run_dir}")
    t, name, crc = rows[index]
    return t, _read_fields(run_dir, name, crc, shape)


def iter_snapshots(run_dir):
    """Yield (t, fields) for every indexed snapshot, in order, reading
    the header and the index once; each payload's CRC is verified."""
    run_dir = Path(run_dir)
    shape = _fields_shape(run_dir)
    for _, t, name, crc in read_index(run_dir):
        yield t, _read_fields(run_dir, name, crc, shape)
