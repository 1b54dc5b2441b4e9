"""Run configuration files and on-disk run artifacts.

A run directory is a self-describing bundle:

* ``config.txt``     the flat key=value configuration that produced it
* ``header.txt``     grid/species/payload description
* ``snapshots.bin``  every payload, in order: all species concatenated,
                     64-bit little-endian floats, row-major with x
                     fastest (exactly the in-memory layout)
* ``snapshots.csv``  index, time, byte offset in snapshots.bin, CRC-32
* ``summary.txt``    step counts, costs, and exit status
* ``spacetime_<s>.csv``  for 1D runs, one row per snapshot: t then the
                     profile of species s, each value as ``"%.17g"``
                     writes it

``RunWriter`` writes ``header.txt``, ``config.txt`` and the index header when
made, each snapshot's payload, space-time rows and index row, in that order,
as it arrives, and ``summary.txt`` in ``finish``: a run killed after k snapshots
keeps k of each.  Bytes past the last indexed payload are ignored.

Config values are plain text: ``key = value`` lines, ``#`` comments,
``param.<name>`` lines for model parameter overrides.  ``_SETTINGS`` is
the one list of run settings: per RunConfig field, its config key, the
parser of its text and the help of its CLI flag ``--key`` (``_`` as
``-``).  The parser, ``config_to_text`` and the CLI flags all read it;
flags override the file.  Parsing and validation report all problems
at once, never just the first.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grid import GridSpec, State, _broken_bound, _grid_problems, make_grid
from .models import MODELS, default_timestep, get_model
from .steppers import SCHEMES, RunSummary, _run_problems
__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "RunWriter",
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
        """All problems with this config; empty if fine.  The grid and the
        run are checked as ``make_grid`` and ``integrate`` check them, a
        missing ``t_final`` among them; only ``tol`` and ``out`` are checked here."""
        problems = _grid_problems([self.n], [self.half_length])
        # only ADI's checks read the grid, its default one when n or L is invalid
        adi = self.scheme == "adi" and self.model in MODELS and not problems
        grid = self.grid() if adi else None
        if self.rel_tol is not None and (bound := _broken_bound(self.rel_tol)):
            problems.append(f"tol must be {bound}, got {self.rel_tol}")
        if self.rel_tol is not None and self.scheme in SCHEMES and self.scheme != "ck45":
            problems.append(f"tol is read only by scheme ck45, not by {self.scheme}")
        # config.txt cuts comments at '#', splits lines and strips values
        if self.out and ("#" in self.out or self.out.strip().splitlines() != [self.out]):
            problems.append("out cannot hold '#', a line break or leading or "
                            f"trailing whitespace, got {self.out!r}")
        return problems + _run_problems(
            self.scheme, self.model, grid, dt=self.dt, t_final=self.t_final,
            snap_every=self.snap_every, control=None, dealias=self.dealias,
            params=self.params)

    def grid(self) -> GridSpec:
        """The concrete grid this config runs on."""
        n0, L0, dims = get_model(self.model).default_grid_args
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
            # parse gives n = 64.0 back as 64 and any float as one whose str reads back exactly
            lines.append(f"{key} = {parse(value)}")
    for name in sorted(config.params):
        lines.append(f"param.{name} = {float(config.params[name])}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ %.17g as arrays
#
# _format_rows writes the bytes "%.17g" writes, whole arrays at a time.
# A value with 1e-283 <= |x| <= 1e290 is y * 10**(e - 16), with
# e = floor(log10 |x|) and y = |x| * 10**(16 - e) in [1e16, 1e17); its 17
# digits are d = round(y).  10**(16 - e) is a double-double (hi + lo to
# about 2**-106) and |x| * hi an exact Dekker two-product, so y = y_hi +
# y_lo with an error near 1e-14, and y_hi >= 2**53 is an integer.  d =
# 1e17 is a carry: d = 1e16 with e + 1.  A value whose y is within 2**-30
# of a rounding tie, or whose d = 1e16 comes from a y not 2**-30 above
# 1e16 (below it the digits belong to e - 1), or whose d is outside
# [1e16, 1e17] (log10 missed by more than a carry), and every zero, inf,
# nan or value outside the window, is formatted by "%.17g" itself (Gay's
# correctly rounded dtoa).  The window keeps 10**(16 - e) <= 1e300, so
# its split cannot overflow.  Dekker, Numer. Math. 18 (1971) 224-242.
#
# Each value is assembled in a 48-byte row that holds every character a
# "%.17g" text can use, in text order:
#
#   0 "-"   1-5 "0.000"   6, 8, .., 38 digits d0..d16   7, 9, .., 39 "."
#   40-44 "e", exponent sign, three exponent digits   45 separator
#
# and the keep mask of its layout (sign, form, digits left once trailing
# zeros are stripped) picks the bytes of its text.  Form 0-20 is fixed
# notation with e = form - 4; 21 and 22 are scientific notation (e < -4
# or e >= 17) with a two- and a three-digit exponent.

_E_MIN, _E_MAX = -284, 291      # exponents of the window, 291 after a carry
_TIE = 2.0 ** -30


def _pow10(k: int) -> tuple[float, float]:
    """(hi, lo): hi is 10**k rounded, and lo is 10**k - hi rounded."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den              # int / int is correctly rounded
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _words(texts) -> np.ndarray:
    """Each 8-byte text as one uint64 word."""
    return np.frombuffer(b"".join(texts), dtype=np.uint8).view(np.uint64)


def _group_words() -> np.ndarray:
    """For g in 0..9999, its four digits, each followed by ".", as one word."""
    g = np.arange(10000, dtype=np.uint16)
    text = np.full((10000, 8), ord("."), dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        text[:, 2 * j] = g // place % 10 + ord("0")
    return text.view(np.uint64).ravel()


def _keep_mask(negative: bool, form: int, m: int) -> np.ndarray:
    """The bytes of the 48-byte row that make one layout's text."""
    def digit(i):
        return 6 + 2 * i
    keep = [0] if negative else []
    if form >= 21:                                     # d.ddde-XX
        keep += [digit(0)] + ([digit(0) + 1] if m > 1 else [])
        keep += [digit(i) for i in range(1, m)]
        keep += [40, 41] + ([42] if form == 22 else []) + [43, 44]
    elif form < 4:                                     # 0.000ddd
        keep += [1, 2] + [3, 4, 5][:3 - form] + [digit(i) for i in range(m)]
    else:                                              # ddd.ddd, ddd000
        whole = form - 3
        keep += [digit(i) for i in range(whole)]
        if m > whole:
            keep += [digit(whole - 1) + 1] + [digit(i) for i in range(whole, m)]
    mask = np.zeros(48, dtype=bool)
    mask[keep + [45]] = True
    return mask


# layouts: code = (negative * 23 + form) * 17 + m - 1; then a fallback text
# of length L keeps its first L bytes, code _FALLBACK + L
_FALLBACK = 2 * 23 * 17


class _Tables:
    """The lookup tables of _format_rows.  Built on its first call, so a
    run that writes no space-time CSV never builds them."""

    def __init__(self):
        exponents = range(_E_MIN, _E_MAX + 1)
        self.p10_hi, self.p10_lo = np.array([_pow10(16 - e) for e in exponents]).T.copy()
        self.lead = _words(b"-0.000%d." % i for i in range(10))
        self.tail = _words(b"e%+04d,  " % e for e in exponents)
        self.digits = _group_words()
        self.trailing_zeros = sum(np.arange(10000) % 10 ** j == 0 for j in range(1, 5))
        self.keep = np.array(
            [_keep_mask(neg, form, m)
             for neg in (False, True) for form in range(23) for m in range(1, 18)]
            + [np.isin(np.arange(48), list(range(n)) + [45]) for n in range(25)])


_tables = functools.cache(_Tables)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == a, each with at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * a                                # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _digits17(x: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, d, e): where ``ok``, "%.17g" writes |x| with the digits of d,
    10**16 <= d < 10**17, and the decimal exponent e; elsewhere d = 10**16
    and e = 0, and the value is left to "%.17g" itself."""
    a = np.abs(x)
    ok = (a >= 1e-283) & (a <= 1e290)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p_hi = t.p10_hi.take(e - _E_MIN)
    y_hi = a * p_hi
    a1, a2 = _split(a)
    p1, p2 = _split(p_hi)
    y_lo = ((a1 * p1 - y_hi) + a1 * p2 + a2 * p1) + a2 * p2 + a * t.p10_lo.take(e - _E_MIN)
    whole = np.floor(y_lo)
    frac = y_lo - whole
    d = y_hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) > _TIE) & ((d != 10**16) | ((y_hi - 1e16) + y_lo > _TIE))
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    ok &= (d >= 10**16) & (d < 10**17)
    d[~ok] = 10**16
    e[~ok] = 0
    return ok, d, e


def _format_rows(block: np.ndarray) -> np.ndarray:
    """The text of a 2D float64 block, as uint8: each value as "%.17g"
    writes it, values joined by "," and every row ended by a newline."""
    rows, cols = block.shape
    x = block.ravel()
    t = _tables()
    ok, d, e = _digits17(x, t)
    lead, rest = np.divmod(d, 10**16)
    high, low = (v.astype(np.int32) for v in np.divmod(rest, 10**8))
    groups = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))
    text = np.empty((x.size, 6), dtype=np.uint64)
    text[:, 0] = t.lead.take(lead)
    for j, g in enumerate(groups, start=1):
        text[:, j] = t.digits.take(g)
    text[:, 5] = t.tail.take(e - _E_MIN)
    text = text.view(np.uint8).reshape(rows, cols, 48)
    text[:, -1, 45] = ord("\n")
    text = text.reshape(x.size, 48)

    zeros = np.zeros(x.size, dtype=np.intp)          # trailing zeros of d
    trailing = np.ones(x.size, dtype=bool)
    for g in reversed(groups):
        zeros += trailing * t.trailing_zeros.take(g)
        trailing &= g == 0
    form = np.where((e < -4) | (e >= 17), 21 + (np.abs(e) >= 100), e + 4)
    code = ((x < 0) * 23 + form) * 17 + 16 - zeros
    slow = np.flatnonzero(~ok)
    if slow.size:
        texts = [b"%.17g" % v for v in x[slow].tolist()]
        text[slow, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
        code[slow] = _FALLBACK + np.array([len(s) for s in texts])
    return text.ravel().compress(t.keep.take(code, axis=0).ravel())


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
    """Snapshot sink for integrate()/adi_integrate().  Making it deletes an
    older run's ``snap_*.bin`` (older rdspectral's payloads), ``spacetime_*.csv``
    and ``summary.txt`` in ``out_dir`` (nothing else), writes ``header.txt``
    and ``config.txt`` (deleting an older one when given no config), and opens
    ``snapshots.bin``, ``snapshots.csv`` and, in 1D, one ``spacetime_<s>.csv`` a
    species afresh, until ``finish`` closes them and writes ``summary.txt``.  A
    call refuses fields not ``(species, *grid.shape)``, then flushes the payload,
    the rows and the index row, so a killed run keeps each snapshot it indexed."""

    def __init__(self, out_dir, grid: GridSpec, model: str, species: int,
                 config: RunConfig | None = None, snap_every: float | None = None):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        for pattern in ("snap_*.bin", "spacetime_*.csv", "summary.txt"):
            for stale in self.dir.glob(pattern):
                stale.unlink()
        self._shape = (species, *grid.shape)
        self.snapshots = 0
        (self.dir / "header.txt").write_text(_header_text(grid, model, species, snap_every))
        if config is not None:
            (self.dir / "config.txt").write_text(config_to_text(config))
        else:  # an older run's config would describe another run
            (self.dir / "config.txt").unlink(missing_ok=True)
        self._payloads = open(self.dir / "snapshots.bin", "wb")
        self._spacetime = [open(self.dir / f"spacetime_{s}.csv", "wb")
                           for s in (range(species) if grid.dims == 1 else ())]
        self._index = open(self.dir / "snapshots.csv", "w")
        print("index,time,offset,crc32", file=self._index, flush=True)

    def __call__(self, state: State) -> None:
        if state.u.shape != self._shape:
            raise ValueError(f"fields of shape {state.u.shape}, not the run's {self._shape}")
        payload = np.ascontiguousarray(state.u, dtype="<f8")
        crc = zlib.crc32(payload)
        offset = self._payloads.tell()
        self._payloads.write(payload)
        self._payloads.flush()   # the payload and the rows are on file before the index row
        for profile, out in zip(state.u, self._spacetime):
            out.write(_format_rows(np.concatenate(([state.t], profile))[np.newaxis]))
            out.flush()
        print(f"{self.snapshots},{state.t:.17g},{offset},{crc}", file=self._index, flush=True)
        self.snapshots += 1

    def finish(self, summary: RunSummary | None = None,
               status: str = "ok", detail: str = "") -> None:
        for handle in (self._payloads, *self._spacetime, self._index):
            handle.close()
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
                f"snapshots = {self.snapshots}",
            ]
        (self.dir / "summary.txt").write_text("\n".join(lines) + "\n")


def _parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_header(run_dir) -> dict:
    """Parsed header.txt: model, species, dims, n tuple, L tuple, cadence;
    a missing key or a malformed value raises ValueError naming the file."""
    path = Path(run_dir) / "header.txt"
    raw = _parse_kv(path.read_text())
    try:
        return {
            "model": raw["model"],
            "species": int(raw["species"]),
            "dims": int(raw["dims"]),
            "n": tuple(int(v) for v in raw["n"].split(",")),
            "L": tuple(float(v) for v in raw["L"].split(",")),
            "snap_every": None if raw.get("snap_every", "none") == "none"
                          else float(raw["snap_every"]),
        }
    except KeyError as err:
        raise ValueError(f"{path} has no {err.args[0]!r} key") from None
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def read_index(run_dir) -> list[tuple[int, float, int, int]]:
    """Rows of snapshots.csv as (index, t, offset in snapshots.bin, CRC-32).
    A malformed row raises ValueError naming the file, the line and its
    text; an older rdspectral's index, of one file per snapshot, asks for a re-run."""
    path = Path(run_dir) / "snapshots.csv"
    lines = path.read_text().splitlines()
    if lines[:1] == ["index,time,file,crc32"]:
        raise ValueError(f"{run_dir} holds one file per snapshot (older rdspectral); run it again")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            k, t, offset, crc = line.split(",")
            rows.append((int(k), float(t), int(offset), int(crc)))
        except ValueError:
            raise ValueError(f"{path} line {number} is not an index row: {line!r}") from None
    return rows


def _read_payloads(run_dir: Path, rows):
    """Yield (t, fields) of each index row, read at its offset in snapshots.bin."""
    header = read_header(run_dir)
    shape = (header["species"],) + tuple(reversed(header["n"]))
    with open(run_dir / "snapshots.bin", "rb") as payloads:
        for k, t, offset, crc in rows:
            fields = np.empty(shape, dtype="<f8")
            payloads.seek(offset)
            if payloads.readinto(fields) < fields.nbytes:
                raise ValueError(f"{run_dir / 'snapshots.bin'} ends inside snapshot {k}")
            if zlib.crc32(fields) != crc:
                raise ValueError(f"checksum mismatch for snapshot {k} in {run_dir}")
            yield t, fields.astype(float, copy=False)


def load_snapshot(run_dir, index: int) -> tuple[float, np.ndarray]:
    """One snapshot as (t, fields (S, *shape)); payload CRC is verified."""
    rows = {row[0]: row for row in read_index(run_dir)}
    if index not in rows:
        raise ValueError(f"no snapshot {index} in {run_dir}")
    return list(_read_payloads(Path(run_dir), [rows[index]]))[0]


def iter_snapshots(run_dir):
    """Yield (t, fields) for every indexed snapshot, in order, reading the
    header and the index once; each payload's CRC is verified."""
    return _read_payloads(Path(run_dir), read_index(run_dir))
