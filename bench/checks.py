"""Output checks for the benchmark workloads.

Each check returns a list of problems, empty when the output is right.
A check compares against an independent computation or a property the
exact solution has (a symmetry, a bound, an analytic speed), never
against a stored copy of an earlier run's output.
"""

from __future__ import annotations

import numpy as np

REFERENCE_TOL = 1e-9   # package against the reference loops (measured <= 3e-15)
# labyrinthe2d ck45 at rel_tol=1e-4 against a fine-step reference near t=5:
# measured 1e-7; a controller loosened to rel_tol=1e-2 gives 2.5e-5
ADAPTIVE_TOL = 1e-5
SYMMETRY_TOL = 1e-10   # mirror and swap symmetries (measured <= 6e-14)
REST_TOL = 1e-4        # labyrinthe2d at t=50: the ck45 rel_tol, as |rest| < 1 (measured 8.7e-6)
SPEED_REL_TOL = 0.02   # fitted front speed against the analytic speed
NOISE_FLOOR = -1e-5    # lowest u the fisher1d leg may reach (a tenth of the 1e-4 tracking threshold)
BOUND_TOL = 1e-12      # fisher2d: 0 <= u <= 1 up to rounding


def mirror_index(n: int, center: int) -> np.ndarray:
    """Index map of the reflection i -> 2 c - i on a periodic axis."""
    return (2 * center - np.arange(n)) % n


def _close(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, reference {want.shape}"]
    diff = float(np.max(np.abs(got - want)))
    if not diff <= tol:
        return [f"{label}: max |package - reference| = {diff:.3g} > {tol:g}"]
    return []


def matches_reference(label: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    """A fixed-step run equals the reference loop of the same scheme and dt."""
    return _close(label, got, want, REFERENCE_TOL)


def within_adaptive_accuracy(label: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    """An adaptive run is as close to a fine-step reference as its rel_tol buys."""
    return _close(label, got, want, ADAPTIVE_TOL)


def mirror_symmetric(label: str, u: np.ndarray, centers: tuple[int, ...]) -> list[str]:
    """u (species, ..., x) is even about ``centers`` (one per grid axis, x first)."""
    problems = []
    for axis, c in zip(range(u.ndim - 1, 0, -1), centers):
        flipped = np.take(u, mirror_index(u.shape[axis], c), axis=axis)
        err = float(np.max(np.abs(u - flipped)))
        if not err <= SYMMETRY_TOL:
            problems.append(f"{label}: mirror asymmetry {err:.3g} on axis {axis} > {SYMMETRY_TOL:g}")
    return problems


def swap_symmetric(label: str, u: np.ndarray) -> list[str]:
    """u (species, y, x) is unchanged by x <-> y."""
    err = float(np.max(np.abs(u - np.swapaxes(u, -1, -2))))
    if not err <= SYMMETRY_TOL:
        return [f"{label}: x<->y asymmetry {err:.3g} > {SYMMETRY_TOL:g}"]
    return []


def count_peaks(v: np.ndarray, floor: float) -> int:
    """Strict local maxima above floor, periodic neighbours, by a plain loop."""
    n = len(v)
    return sum(1 for i in range(n)
               if v[i] > floor and v[i] > v[i - 1] and v[i] > v[(i + 1) % n])


def pulse_count_matches(label: str, v: np.ndarray, floor: float, got: int) -> list[str]:
    want = count_peaks(v, floor)
    if got != want:
        return [f"{label}: pulse_count {got}, a direct count gives {want}"]
    return []


def at_rest(label: str, u: np.ndarray, rest: tuple[float, float]) -> list[str]:
    problems = []
    for s, value in enumerate(rest):
        err = float(np.max(np.abs(u[s] - value)))
        if not err <= REST_TOL:
            problems.append(
                f"{label}: species {s} is {err:.3g} from rest value {value:.9g} > {REST_TOL:g}")
    return problems


def front_speed_close(label: str, speed: float, expected: float) -> list[str]:
    if not abs(speed - expected) <= SPEED_REL_TOL * expected:
        return [f"{label}: front speed {speed:.5g}, analytic {expected:g} "
                f"(tolerance {SPEED_REL_TOL:.0%})"]
    return []


def above_noise_floor(label: str, lowest: float) -> list[str]:
    if not lowest >= NOISE_FLOOR:
        return [f"{label}: min u {lowest:.3g} < {NOISE_FLOOR:g}"]
    return []


def within_unit_interval(label: str, u: np.ndarray) -> list[str]:
    lo, hi = float(np.min(u)), float(np.max(u))
    if not (lo >= -BOUND_TOL and hi <= 1.0 + BOUND_TOL):
        return [f"{label}: u spans [{lo:.17g}, {hi:.17g}], outside [0, 1]"]
    return []


def reached(label: str, t_end: float, t_final: float) -> list[str]:
    if not abs(t_end - t_final) <= 1e-9 * max(1.0, t_final):
        return [f"{label}: ended at t={t_end!r}, asked for {t_final!r}"]
    return []


def read_back_identical(label: str, written: list, read: list) -> list[str]:
    """Every (t, fields) read back equals what was handed to the writer, bit for bit."""
    if len(written) != len(read):
        return [f"{label}: {len(written)} snapshots written, {len(read)} read back"]
    for k, ((tw, uw), (tr, ur)) in enumerate(zip(written, read)):
        if tw != tr:
            return [f"{label}: snapshot {k} time {tr!r} read back, {tw!r} written"]
        if uw.shape != ur.shape or uw.astype("<f8").tobytes() != ur.astype("<f8").tobytes():
            return [f"{label}: snapshot {k} fields differ from those written"]
    return []


def spacetime_rows_identical(label: str, path, written: list) -> list[str]:
    """The species-0 space-time CSV has one row per snapshot, and its first
    and last rows (t, then the profile) parse back to the written values exactly."""
    try:
        rows = open(path).read().splitlines()
    except OSError as err:
        return [f"{label}: cannot read {path}: {err}"]
    if len(rows) != len(written):
        return [f"{label}: {len(rows)} space-time rows for {len(written)} snapshots"]
    for k in (0, len(rows) - 1):
        got = np.array([float(v) for v in rows[k].split(",")])
        t, u = written[k]
        want = np.concatenate([[t], u[0]])
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            return [f"{label}: space-time row {k} differs from the written profile"]
    return []
