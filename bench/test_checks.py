"""The workload checks reject wrong results.

Run from the repository root:  python3 -m pytest bench/test_checks.py

Each workload runs one real round; every check must pass on it, and
then each tampered copy (a perturbed field, a wrong speed or count, a
flipped byte) must be rejected by the same ``check`` the benchmark uses.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import rdspectral as rd  # noqa: E402


@pytest.fixture(scope="module", params=list(WORKLOADS))
def finished_round(request, tmp_path_factory):
    workload = WORKLOADS[request.param](
        7, tracing.NullTracer(), tmp_path_factory.mktemp(request.param))
    ops = workload.run_round()
    yield workload, ops
    workload.cleanup()


def _flip_byte(u: np.ndarray) -> np.ndarray:
    raw = bytearray(u.astype("<f8").tobytes())
    raw[len(raw) // 2] ^= 0x01
    return np.frombuffer(bytes(raw), dtype="<f8").reshape(u.shape)


def _nudged(u: np.ndarray, amount: float = 1e-6) -> np.ndarray:
    """u with one off-centre node of the first species moved by ``amount``."""
    out = np.array(u)
    index = (0,) + tuple(s // 3 for s in u.shape[1:])
    out[index] += amount
    return out


def _swap_broken(u: np.ndarray, amount: float = 1e-6) -> np.ndarray:
    """u nudged at an off-diagonal node (i, j) and at its mirror images in
    x and in y: both mirror symmetries still hold, x <-> y does not."""
    out = np.array(u)
    n = u.shape[-1]
    i, j = n // 5, n // 3
    for y in (i, -i):
        for x in (j, -j):
            out[0, y % n, x % n] += amount
    return out


def _short(out: dict) -> None:
    out["t_end"] -= 0.1


def _tampers(workload):
    """(description, function that corrupts an op list in place, the
    words the problem it causes must contain)."""
    name = workload.name
    if name == "gray2d-rk4":
        def prefix(ops):
            ops[0].out["prefix"][0] = _nudged(ops[0].out["prefix"][0])

        def final(ops):
            ops[0].out["u"] = _nudged(ops[0].out["u"])

        def swapped(ops):
            ops[0].out["u"] = _swap_broken(ops[0].out["u"])
        return [("perturbed prefix field", prefix, "reference"),
                ("perturbed final field on the diagonal", final, "mirror asymmetry"),
                ("final field off the x<->y symmetry", swapped, "x<->y asymmetry"),
                ("short run", lambda ops: _short(ops[0].out), "ended at")]
    if name == "gray1d-sweep":
        def referenced(ops):
            ops[0].out["u"] = ops[0].out["u"] + 1e-6   # keeps the mirror symmetry

        def asymmetric(ops):
            ops[-1].out["u"] = _nudged(ops[-1].out["u"])

        def pulses(ops):
            ops[1].out["pulses"] += 1
        return [("member off the Krogstad reference", referenced, "Krogstad"),
                ("asymmetric member", asymmetric, "asymmetry"),
                ("wrong pulse count", pulses, "pulse_count"),
                ("short member run", lambda ops: _short(ops[2].out), "ended at")]
    if name == "labyrinthe2d-ck45":
        def off_rest(ops):
            ops[0].out["u"] = _nudged(ops[0].out["u"], 1e-3)

        def inaccurate(ops):
            t, u = ops[0].out["mid"][0]
            ops[0].out["mid"][0] = (t, _nudged(u, 3e-5))

        def no_mid(ops):
            ops[0].out["mid"].clear()
        return [("field away from the rest state", off_rest, "rest value"),
                ("mid-run field off the fine-step reference", inaccurate, "reference"),
                ("no mid-run snapshot", no_mid, "no snapshot"),
                ("short run", lambda ops: _short(ops[0].out), "ended at")]

    def flipped_1d(ops):
        run = ops[0].out["runs"][1]
        t, u = run["read"][-1]
        run["read"][-1] = (t, _flip_byte(u))

    def flipped_2d(ops):
        t, u = ops[1].out["read"][3]
        ops[1].out["read"][3] = (t, _flip_byte(u))

    def slow_front(ops):
        ops[0].out["runs"][0]["speed"] = 2.05

    def undershoot(ops):
        t, u = ops[0].out["runs"][2]["read"][-1]
        u = np.array(u)
        u[0, 0] = -2e-5
        ops[0].out["runs"][2]["read"][-1] = (t, u)
        ops[0].out["runs"][2]["handed"][-1] = (t, u)

    def overshoot(ops):
        t, u = ops[1].out["read"][-1]
        u = np.array(u)
        u[0, 0, 0] = 1.0 + 1e-9
        ops[1].out["read"][-1] = (t, u)
        ops[1].out["handed"][-1] = (t, u)

    def asymmetric_2d(ops):
        t, u = ops[1].out["read"][-1]
        u = np.array(u)
        cx, cy = workload.shift2
        n = u.shape[-1]
        u[0, (cy + 9) % n, (cx + 5) % n] += 1e-6
        ops[1].out["read"][-1] = (t, u)
        ops[1].out["handed"][-1] = (t, u)

    def csv_row(ops):
        path = ops[0].out["runs"][0]["dir"] / "spacetime_0.csv"
        rows = path.read_text().splitlines()
        values = rows[-1].split(",")
        values[5] = repr(float(np.nextafter(float(values[5]), np.inf)))
        rows[-1] = ",".join(values)
        path.write_text("\n".join(rows) + "\n")
    return [("1D snapshot with a flipped byte", flipped_1d, "differ from those written"),
            ("2D snapshot with a flipped byte", flipped_2d, "differ from those written"),
            ("wrong front speed", slow_front, "front speed"),
            ("undershoot below the noise floor", undershoot, "min u"),
            ("2D field above 1", overshoot, "outside [0, 1]"),
            ("space-time CSV row changed", csv_row, "space-time row"),
            ("2D field off its mirror symmetry", asymmetric_2d, "mirror asymmetry"),
            ("short 1D run", lambda ops: _short(ops[0].out["runs"][1]), "ended at"),
            ("short 2D run", lambda ops: _short(ops[1].out), "ended at")]


def test_checks_pass_then_reject_each_tamper(finished_round):
    workload, ops = finished_round
    clean = copy.deepcopy(ops)
    workload.check(clean)
    assert [op.error for op in clean] == [None] * len(clean)
    assert [p for op in clean for p in op.problems] == []
    for description, tamper, expected in _tampers(workload):
        bad = copy.deepcopy(ops)
        tamper(bad)
        workload.check(bad)
        problems = [p for op in bad for p in op.problems]
        assert any(expected in p for p in problems), \
            f"{workload.name}: {description} gave {problems}"


def test_loosened_controller_is_rejected(tmp_path):
    workload = WORKLOADS["labyrinthe2d-ck45"](7, tracing.NullTracer(), tmp_path)
    workload.REL_TOL = 1e-2
    ops = workload.run_round()
    workload.check(ops)
    problems = [p for op in ops for p in op.problems]
    assert any("reference" in p for p in problems), problems


def test_reference_loops_match_closed_forms():
    # phi_k series and closed forms agree where both are accurate
    z = np.array([-0.999, -1.001, -0.5, -3.0])
    p1, p2, p3 = reference.phi_functions(z)
    assert np.allclose(p1, np.expm1(z) / z, rtol=1e-13, atol=0)
    assert np.allclose(p2, (np.expm1(z) - z) / z ** 2, rtol=1e-12, atol=0)
    assert np.allclose(p3, (np.expm1(z) - z - z * z / 2) / z ** 3, rtol=1e-10, atol=0)
    u, v = reference.rest_state(-0.1, 2.0)
    assert abs(2.0 * u ** 3 - u + 0.1) < 1e-14 and abs(u - rd.cubic_root_u_minus(-0.1, 2.0)) < 1e-12
    assert v == (u + 0.1) / 2.0


def test_mirror_check_uses_the_shifted_centre():
    x = np.arange(16)
    u = np.cos(2 * np.pi * (x - 5) / 16)[None, :]
    assert checks.mirror_symmetric("shifted", u, (5,)) == []
    assert checks.mirror_symmetric("unshifted", u, (0,)) != []
