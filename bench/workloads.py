"""The four benchmark workloads.

A workload turns the seed into its inputs once, then offers three things
to the runner: ``setup`` (one set-up: everything before the first step),
``run_round`` (one round of operations, timed as a whole) and ``check``
(the untimed comparison of each operation's outputs with an independent
computation or an exact property).  Every round repeats the same
operations on the same inputs, so counts per round repeat exactly.
"""

from __future__ import annotations

import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rdspectral as rd

import checks
import reference


@dataclass
class Op:
    """One operation: an integration, a sweep member or a round-trip leg."""

    label: str
    out: dict = field(default_factory=dict)
    error: str | None = None            # the program raised
    problems: list[str] = field(default_factory=list)   # the output was wrong

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def _attempt(op: Op, tracer, body) -> Op:
    tracer.next_run()
    try:
        with tracer.span("op"):
            body(op)
    except Exception:  # the benchmark keeps running and reports the failure
        op.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    return op


def _integrate(tracer, *args, **kwargs):
    with tracer.span("steppers.integrate"):
        summary = rd.integrate(*args, **kwargs)
    tracer.count("steppers.steps_attempted", summary.steps)
    tracer.count("steppers.steps_accepted", summary.accepted)
    return summary


def _shifted_state(spec, grid, params, shift) -> rd.State:
    """The model's initial state rolled by whole grid cells (axes x first)."""
    u0 = rd.initial_condition(spec, grid, params).u
    axes = tuple(range(-1, -grid.dims - 1, -1))
    return rd.state_from_physical(grid, list(np.roll(u0, shift, axis=axes)))


class Workload:
    name = ""

    def __init__(self, seed: int, tracer, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.out_dir = out_dir

    def warmup(self) -> None:
        """A short run of the same code, so that lazy set-up in numpy is done."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class Gray2dRk4(Workload):
    """gray2d, n=256, IF-RK4 at dt=0.1 to t=5 (50 steps); seed picks (a, b)."""

    name = "gray2d-rk4"
    N, L, DT, T_FINAL, T_PREFIX = 256, 25.0, 0.1, 5.0, 1.0

    def __init__(self, seed, tracer, out_dir):
        super().__init__(seed, tracer, out_dir)
        self.params = {"a": float(self.rng.uniform(8.5, 9.5)),
                       "b": float(self.rng.uniform(0.35, 0.45)), "asym": 0.0}
        self.spec = tracer.model(rd.get_model("gray2d"))
        self._reference = None

    def setup(self) -> None:
        grid = rd.make_grid(self.N, self.L, 2)
        _integrate(self.tracer, self.spec, grid, scheme="rk4", dt=self.DT,
                   t_final=0.0, params=self.params)

    def warmup(self) -> None:
        grid = rd.make_grid(self.N, self.L, 2)
        rd.integrate(self.spec, grid, scheme="rk4", dt=self.DT, t_final=2 * self.DT,
                     params=self.params)

    def _run(self, op: Op) -> None:
        grid = rd.make_grid(self.N, self.L, 2)
        prefix = []

        def sink(state):
            if abs(state.t - self.T_PREFIX) < 1e-9:
                prefix.append(state.u)
        summary = _integrate(self.tracer, self.spec, grid, scheme="rk4", dt=self.DT,
                             t_final=self.T_FINAL, params=self.params,
                             snap_every=self.T_PREFIX, sink=sink)
        op.out = {"t_end": summary.t_end, "u": summary.final_state.u, "prefix": prefix}

    def run_round(self) -> list[Op]:
        return [_attempt(Op("gray2d rk4 run"), self.tracer, self._run)]

    def reference_prefix(self) -> np.ndarray:
        if self._reference is None:
            p = self.spec.params(self.params)
            A, B = reference.gray_groups(p["a"], p["b"], p["eps"])
            steps = round(self.T_PREFIX / self.DT)
            self._reference = reference.if_rk4_2d(
                reference.gray2d_initial(self.N, self.L), self.L, self.DT, steps,
                (1.0, p["eps"]), lambda u: reference.gray_rates(u, A, B))
        return self._reference

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.error:
                continue
            o = op.out
            op.problems += checks.reached(op.label, o["t_end"], self.T_FINAL)
            if len(o["prefix"]) != 1:
                op.problems.append(f"{op.label}: {len(o['prefix'])} states at t={self.T_PREFIX}")
                continue
            op.problems += checks.matches_reference(
                f"{op.label} at t={self.T_PREFIX:g}", o["prefix"][0], self.reference_prefix())
            op.problems += checks.mirror_symmetric(op.label, o["u"], (0, 0))
            op.problems += checks.swap_symmetric(op.label, o["u"])


class Gray1dSweep(Workload):
    """Six gray1d members, n=512, etdrk4b at dt=0.1 to t=100, seeded (a, b)."""

    name = "gray1d-sweep"
    N, L, DT, T_FINAL, MEMBERS, PULSE_FLOOR = 512, 50.0, 0.1, 100.0, 6, 0.1

    def __init__(self, seed, tracer, out_dir):
        super().__init__(seed, tracer, out_dir)
        self.members = [{"a": float(self.rng.uniform(8.0, 10.0)),
                         "b": float(self.rng.uniform(0.3, 0.5))}
                        for _ in range(self.MEMBERS)]
        self.spec = tracer.model(rd.get_model("gray1d"))
        self._reference = None

    def setup(self) -> None:
        for params in self.members:
            grid = rd.make_grid(self.N, self.L, 1)
            _integrate(self.tracer, self.spec, grid, scheme="etdrk4b", dt=self.DT,
                       t_final=0.0, params=params)

    def warmup(self) -> None:
        grid = rd.make_grid(self.N, self.L, 1)
        rd.integrate(self.spec, grid, scheme="etdrk4b", dt=self.DT, t_final=1.0,
                     params=self.members[0])

    def _member(self, params):
        def body(op: Op) -> None:
            grid = rd.make_grid(self.N, self.L, 1)
            summary = _integrate(self.tracer, self.spec, grid, scheme="etdrk4b",
                                 dt=self.DT, t_final=self.T_FINAL, params=params)
            u = summary.final_state.u
            with self.tracer.span("postprocess"):
                pulses = rd.pulse_count(u[1], self.PULSE_FLOOR)
            op.out = {"t_end": summary.t_end, "u": u, "pulses": pulses}
        return body

    def run_round(self) -> list[Op]:
        return [_attempt(Op(f"gray1d member a={p['a']:.4f} b={p['b']:.4f}"),
                         self.tracer, self._member(p))
                for p in self.members]

    def reference_final(self) -> np.ndarray:
        if self._reference is None:
            p = self.spec.params(self.members[0])
            A, B = reference.gray_groups(p["a"], p["b"], p["eps"])
            self._reference = reference.krogstad_etdrk4_1d(
                reference.gray1d_initial(self.N, self.L), self.L, self.DT,
                round(self.T_FINAL / self.DT), p["eps"], A, B)
        return self._reference

    def check(self, ops: list[Op]) -> None:
        for k, op in enumerate(ops):
            if op.error:
                continue
            o = op.out
            op.problems += checks.reached(op.label, o["t_end"], self.T_FINAL)
            op.problems += checks.mirror_symmetric(op.label, o["u"], (0,))
            op.problems += checks.pulse_count_matches(
                op.label, o["u"][1], self.PULSE_FLOOR, o["pulses"])
            if k == 0:
                op.problems += checks.matches_reference(
                    f"{op.label} against Krogstad ETDRK4", o["u"], self.reference_final())


class Labyrinthe2dCk45(Workload):
    """labyrinthe2d, n=128, adaptive Cash-Karp at rel_tol=1e-4 to t=50.

    The run is checked twice: at the first accepted step past t=5, while
    the seed's pattern is still there, against a fine-step IF-RK4
    reference at that exact time, and at t=50 against the rest state.
    The seed rolls the initial condition by whole quarter periods (32
    cells per axis).  The controller's accept/reject path depends on
    rounding: rolls by other amounts changed the attempt count from 234
    to anywhere in 227-238, a spread in work that is not the program's.
    A quarter-period roll leaves numpy's FFT rounding, and so the work,
    exactly as for the unrolled start.
    """

    name = "labyrinthe2d-ck45"
    N, L, REL_TOL, T_FINAL, T_MID, REF_DT = 128, 100.0, 1e-4, 50.0, 5.0, 0.025

    def __init__(self, seed, tracer, out_dir):
        super().__init__(seed, tracer, out_dir)
        self.shift = tuple(int(s) for s in (self.N // 4) * self.rng.integers(0, 4, size=2))
        self.spec = tracer.model(rd.get_model("labyrinthe2d"))
        p = self.spec.params()
        self.rest = reference.rest_state(p["a0"], p["a1"])
        self._reference = None   # (t, fields) of the reference at the mid-run snapshot

    def _start(self):
        grid = rd.make_grid(self.N, self.L, 2)
        return grid, _shifted_state(self.spec, grid, None, self.shift)

    def setup(self) -> None:
        grid, state = self._start()
        _integrate(self.tracer, self.spec, grid, scheme="ck45", t_final=0.0,
                   control=rd.StepControl(rel_tol=self.REL_TOL), initial_state=state)

    def warmup(self) -> None:
        grid, state = self._start()
        rd.integrate(self.spec, grid, scheme="ck45", t_final=1.0,
                     control=rd.StepControl(rel_tol=self.REL_TOL), initial_state=state)

    def _run(self, op: Op) -> None:
        grid, state = self._start()
        mid = []

        def sink(state):
            if not mid and state.t >= self.T_MID:
                mid.append((state.t, state.u))
        summary = _integrate(self.tracer, self.spec, grid, scheme="ck45",
                             t_final=self.T_FINAL,
                             control=rd.StepControl(rel_tol=self.REL_TOL),
                             initial_state=state, snap_every=self.T_MID, sink=sink)
        op.out = {"t_end": summary.t_end, "u": summary.final_state.u, "mid": mid}

    def run_round(self) -> list[Op]:
        return [_attempt(Op("labyrinthe2d ck45 run"), self.tracer, self._run)]

    def reference_mid(self, t: float) -> np.ndarray:
        """IF-RK4 from the model's formulas to time t, at steps of at most REF_DT."""
        if self._reference is None or self._reference[0] != t:
            p = self.spec.params()
            steps = math.ceil(t / self.REF_DT)
            u = reference.if_rk4_2d(
                reference.labyrinthe2d_initial(self.N, self.L, p["a0"], p["a1"]),
                self.L, t / steps, steps, (1.0, p["eps"]),
                lambda u: reference.labyrinthine_rates(u, p["a0"], p["a1"], p["delta"]))
            self._reference = (t, np.roll(u, self.shift, axis=(-1, -2)))
        return self._reference[1]

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.error:
                continue
            o = op.out
            op.problems += checks.reached(op.label, o["t_end"], self.T_FINAL)
            if len(o["mid"]) != 1:
                op.problems.append(f"{op.label}: no snapshot at or after t={self.T_MID:g}")
            else:
                t, u = o["mid"][0]
                op.problems += checks.within_adaptive_accuracy(
                    f"{op.label} at t={t:.6g}", u, self.reference_mid(t))
            op.problems += checks.at_rest(op.label, o["u"], self.rest)


class RundirRoundtrip(Workload):
    """The ``rdspectral run`` path and a read-back, in two legs.

    1D: fisher1d, rk4, n=2048 on [-150, 150), dt=0.1, delta in {2, 0.5, 1}
    to t=25 with a snapshot every step (binary snapshots and space-time CSV).
    2D: fisher2d, ADI, n=256, dt=0.1 to t=10, a snapshot every 0.5.
    The seed rolls each initial condition by whole cells.
    """

    name = "rundir-roundtrip"
    FRONT_CASES = ((2.0, 2.0), (0.5, 2.5), (1.0, 2.0))   # (delta, analytic speed)
    THRESHOLD = 1e-4

    def __init__(self, seed, tracer, out_dir):
        super().__init__(seed, tracer, out_dir)
        self.shift1 = (int(self.rng.integers(-100, 101)),)
        self.shift2 = tuple(int(s) for s in self.rng.integers(-16, 17, size=2))
        self.cfg1 = [rd.RunConfig(model="fisher1d", scheme="rk4", n=2048, half_length=150.0,
                                  dt=0.1, t_final=25.0, snap_every=0.1,
                                  params={"delta": delta})
                     for delta, _ in self.FRONT_CASES]
        self.cfg2 = rd.RunConfig(model="fisher2d", scheme="adi", n=256, half_length=25.0,
                                 dt=0.1, t_final=10.0, snap_every=0.5)
        for cfg in self.cfg1 + [self.cfg2]:
            problems = cfg.validate()
            if problems:
                raise ValueError(f"invalid benchmark config: {problems}")
        self.spec1 = tracer.model(rd.get_model("fisher1d"))
        self.spec2 = tracer.model(rd.get_model("fisher2d"))
        self._dirs = 0

    def _new_dir(self) -> Path:
        self._dirs += 1
        return self.out_dir / f"leg-{self._dirs:04d}"

    def setup(self) -> None:
        for cfg in self.cfg1:
            grid = cfg.grid()
            state = _shifted_state(self.spec1, grid, cfg.params, self.shift1)
            _integrate(self.tracer, self.spec1, grid, scheme=cfg.scheme, t_final=0.0,
                       dt=cfg.resolved_dt(), params=cfg.params, initial_state=state)
        grid = self.cfg2.grid()
        state = _shifted_state(self.spec2, grid, None, self.shift2)
        with self.tracer.span("adi.integrate"):
            rd.adi_integrate(self.spec2, grid, dt=self.cfg2.resolved_dt(), t_final=0.0,
                             initial_state=state)

    def warmup(self) -> None:
        grid = self.cfg2.grid()
        rd.adi_integrate(self.spec2, grid, dt=self.cfg2.resolved_dt(), t_final=1.0)
        cfg = self.cfg1[0]
        rd.integrate(self.spec1, cfg.grid(), scheme="rk4", dt=cfg.resolved_dt(),
                     t_final=1.0, params=cfg.params)

    def _write_and_read(self, cfg, spec, grid, out: Path, run):
        """RunConfig -> RunWriter sink -> integrator -> finish -> iter_snapshots."""
        writer = rd.RunWriter(out, grid, cfg.model, spec.species, config=cfg,
                              snap_every=cfg.snap_every)
        handed = []

        def sink(state):
            handed.append((state.t, state.u))
            writer(state)
        summary = run(sink)
        writer.finish(summary)
        with self.tracer.reading("runio.read", "runio.bytes_read"):
            read = list(rd.iter_snapshots(out))
        return summary, handed, read

    def _leg_1d(self, op: Op) -> None:
        results = []
        for cfg in self.cfg1:
            grid = cfg.grid()
            out = self._new_dir()
            state = _shifted_state(self.spec1, grid, cfg.params, self.shift1)

            def run(sink, cfg=cfg, grid=grid, state=state):
                return _integrate(self.tracer, self.spec1, grid, scheme=cfg.scheme,
                                  t_final=cfg.t_final, dt=cfg.resolved_dt(),
                                  params=cfg.params, snap_every=cfg.snap_every,
                                  sink=sink, initial_state=state)
            summary, handed, read = self._write_and_read(cfg, self.spec1, grid, out, run)
            with self.tracer.span("postprocess"):
                snaps = [rd.State(t=t, u=u, uhat=None) for t, u in read]
                trace = rd.trace_front(snaps, grid, threshold=self.THRESHOLD,
                                       direction="right")
                speed = rd.front_speed(trace)
            results.append({"t_end": summary.t_end, "handed": handed, "read": read,
                            "speed": speed, "dir": out})
        op.out = {"runs": results}

    def _leg_2d(self, op: Op) -> None:
        cfg = self.cfg2
        grid = cfg.grid()
        out = self._new_dir()
        state = _shifted_state(self.spec2, grid, None, self.shift2)

        def run(sink):
            with self.tracer.span("adi.integrate"):
                return rd.adi_integrate(self.spec2, grid, dt=cfg.resolved_dt(),
                                        t_final=cfg.t_final, snap_every=cfg.snap_every,
                                        sink=sink, params=cfg.params, initial_state=state)
        summary, handed, read = self._write_and_read(cfg, self.spec2, grid, out, run)
        op.out = {"t_end": summary.t_end, "handed": handed, "read": read, "dir": out}

    def run_round(self) -> list[Op]:
        return [_attempt(Op("rundir 1D fisher1d rk4 leg"), self.tracer, self._leg_1d),
                _attempt(Op("rundir 2D fisher2d adi leg"), self.tracer, self._leg_2d)]

    def _count_written(self, out: Path) -> None:
        if self.tracer.enabled:
            self.tracer.count("runio.bytes_written",
                              sum(p.stat().st_size for p in out.iterdir()))

    def check(self, ops: list[Op]) -> None:
        leg1, leg2 = ops
        if not leg1.error:
            for (delta, expected), cfg, r in zip(self.FRONT_CASES, self.cfg1, leg1.out["runs"]):
                label = f"{leg1.label} delta={delta:g}"
                leg1.problems += checks.reached(label, r["t_end"], cfg.t_final)
                leg1.problems += checks.read_back_identical(label, r["handed"], r["read"])
                leg1.problems += checks.spacetime_rows_identical(
                    label, r["dir"] / "spacetime_0.csv", r["handed"])
                leg1.problems += checks.front_speed_close(label, r["speed"], expected)
                leg1.problems += checks.above_noise_floor(
                    label, min(float(u.min()) for _, u in r["read"]))
                self._count_written(r["dir"])
        if not leg2.error:
            o = leg2.out
            leg2.problems += checks.reached(leg2.label, o["t_end"], self.cfg2.t_final)
            leg2.problems += checks.read_back_identical(leg2.label, o["handed"], o["read"])
            final = o["read"][-1][1] if o["read"] else np.zeros((1, 1, 1))
            leg2.problems += checks.mirror_symmetric(leg2.label, final, self.shift2)
            leg2.problems += checks.within_unit_interval(
                leg2.label, np.array([u for _, u in o["read"]]))
            self._count_written(o["dir"])

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Gray2dRk4, Gray1dSweep, Labyrinthe2dCk45, RundirRoundtrip)}
