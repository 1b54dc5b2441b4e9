"""Command-line harness.

Subcommands:

* ``run``          integrate one model and write a run directory
* ``compare``      convergence study of several schemes against a gold run
* ``upsample``     spectrally refine a stored snapshot
* ``list-models``  registered model names
* ``describe``     one model's equations, parameters, defaults

Configuration can come from a ``--config`` file (see runio); every flag
overrides the corresponding file key.  Exit codes: 0 success, 1 invalid
configuration or arguments, 2 numerical abort (blow-up or step failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .grid import _broken_bound, _grid_problems, make_grid, state_from_physical
from .harness import convergence_study
from .models import MODELS, default_timestep, get_model
from .postprocess import fourier_upsample_1d, fourier_upsample_2d
from .runio import (_SETTINGS, ConfigError, RunConfig, RunWriter, _parse_bool,
                    load_config, load_snapshot, read_header, read_index)
from .steppers import BlowUpError, StepControl, StepSizeError, integrate

__all__ = ["main"]


def _parse_params(pairs, problems) -> dict:
    out = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            problems.append(f"--param expects key=value, got {pair!r}")
            continue
        try:
            out[key.strip()] = float(value)
        except ValueError:
            problems.append(f"--param {key.strip()}: not a number: {value!r}")
    return out


def _given(obj, names) -> dict:
    """The attributes among ``names`` that are set (not None), by name."""
    return {name: getattr(obj, name) for name in names if getattr(obj, name) is not None}


def _merge_config(args, problems) -> RunConfig | None:
    """File config overlaid with whatever flags were given."""
    base = None
    if args.config:
        try:
            base = load_config(args.config)
        except ConfigError as err:
            problems.extend(err.problems)
            return None
        except OSError as err:
            problems.append(f"cannot read config: {err}")
            return None

    params = dict(base.params) if base else {}
    params.update(_parse_params(args.param, problems))
    given = _given(args, _SETTINGS)
    if base:
        return dataclasses.replace(base, **given, params=params)
    if "model" not in given:
        problems.append("model is required (--model or a config file)")
        return None
    return RunConfig(**given, params=params)


def _fail(problems) -> int:
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1


def _cmd_run(args) -> int:
    problems: list[str] = []
    cfg = _merge_config(args, problems)
    if cfg is not None:
        problems.extend(cfg.validate())
    if problems:
        return _fail(problems)

    spec = get_model(cfg.model)
    grid = cfg.grid()
    out = Path(cfg.out) if cfg.out else Path("runs") / cfg.model
    writer = RunWriter(out, grid, cfg.model, spec.species,
                       config=cfg, snap_every=cfg.snap_every)
    control = None if cfg.rel_tol is None else StepControl(rel_tol=cfg.rel_tol)
    try:
        summary = integrate(spec, grid, scheme=cfg.scheme, t_final=cfg.t_final,
                            dt=cfg.dt, control=control, params=cfg.params,
                            dealias=cfg.dealias, snap_every=cfg.snap_every, sink=writer)
    except (BlowUpError, StepSizeError) as err:
        status = "blowup" if isinstance(err, BlowUpError) else "stepfail"
        writer.finish(None, status=status, detail=str(err))
        print(f"error: integration aborted: {err}", file=sys.stderr)
        print(f"partial artifacts in {out}", file=sys.stderr)
        return 2
    writer.finish(summary)
    print(f"{cfg.model} [{cfg.scheme}] -> {out}: {len(writer.rows)} snapshots, "
          f"{summary.steps} steps ({summary.accepted} accepted, "
          f"{summary.rejected} rejected), t_end = {summary.t_end:g}, "
          f"wall = {summary.wall_time:.3g} s")
    return 0


def _cmd_compare(args) -> int:
    problems: list[str] = []
    params = _parse_params(args.param, problems)
    schemes = tuple(args.scheme) if args.scheme else ("rk4", "etdrk4", "etdrk4b")
    gold = _given(args, ("gold_scheme", "gold_dt"))
    if not args.dt:
        problems.append("at least one --dt is required")
    if args.gold_dt is not None and (bound := _broken_bound(args.gold_dt)):
        problems.append(f"--gold-dt must be {bound}, got {args.gold_dt:g}")
    # every other check is that of a run of each scheme at each dt; the
    # gold run's dt is --gold-dt, checked above
    shared = _given(args, ("n", "half_length", "dealias"))
    runs = [(scheme, dt) for scheme in schemes for dt in args.dt or (None,)]
    runs += [(args.gold_scheme, None)] if args.gold_scheme is not None else []
    for scheme, dt in dict.fromkeys(runs):
        cfg = RunConfig(model=args.model, scheme=scheme, dt=dt, t_final=args.t_final,
                        params=params, **shared)
        problems.extend(p for p in cfg.validate() if p not in problems)
    if problems:
        return _fail(problems)

    try:
        study = convergence_study(args.model, schemes=schemes, dts=args.dt,
                                  t_final=args.t_final, grid=cfg.grid(), params=params,
                                  dealias=cfg.dealias, **gold)
    except (BlowUpError, StepSizeError) as err:
        print(f"error: gold run aborted, study cancelled: {err}", file=sys.stderr)
        return 2
    csv = study.to_csv()
    out = Path(args.out) if args.out else Path(f"compare_{args.model}.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(csv)
    sys.stdout.write(csv)
    print(f"written to {out}")
    return 0


def _parse_sizes(text, dims, problems):
    try:
        sizes = tuple(int(v) for v in text.split(","))
    except ValueError:
        problems.append(f"--n expects an integer or comma pair, got {text!r}")
        return None
    if len(sizes) == 1 and dims == 2:
        sizes = sizes * 2
    if len(sizes) != dims:
        problems.append(f"--n gave {len(sizes)} sizes for a {dims}D snapshot")
        return None
    if size_problems := _grid_problems(sizes, ()):
        problems.extend(size_problems)
        return None
    return sizes


def _cmd_upsample(args) -> int:
    problems: list[str] = []
    run_dir = Path(args.run_dir)
    try:
        header = read_header(run_dir)
        rows = read_index(run_dir)
    except (OSError, ValueError) as err:
        return _fail([f"not a run directory: {err}"])
    if not rows:
        return _fail(["run directory has no snapshots"])
    index = args.index if args.index is not None else rows[-1][0]
    sizes = _parse_sizes(args.n, header["dims"], problems)
    if sizes is not None and any(new < old for new, old in zip(sizes, header["n"])):
        problems.append(f"shrink rejected: requested {sizes}, stored {header['n']}")
    if problems:
        return _fail(problems)
    try:
        t, fields = load_snapshot(run_dir, index)
    except (OSError, ValueError) as err:  # a missing or damaged payload
        return _fail([str(err)])

    if header["dims"] == 1:
        up = np.stack([fourier_upsample_1d(f, sizes[0]) for f in fields])
    else:
        nx, ny = sizes
        up = np.stack([fourier_upsample_2d(f, nx, ny) for f in fields])
    out = run_dir / ("up" + "x".join(str(v) for v in sizes))
    grid = make_grid(sizes, header["L"], header["dims"])
    writer = RunWriter(out, grid, header["model"], header["species"])
    writer(state_from_physical(grid, list(up), t=t))
    writer.finish(None, status="ok",
                  detail=f"snapshot {index} of {run_dir} upsampled to {sizes}")
    print(f"upsampled snapshot {index} ({header['n']} -> {sizes}) -> {out}")
    return 0


def _cmd_list_models(_args) -> int:
    for name in MODELS:
        print(name)
    return 0


def _cmd_describe(args) -> int:
    try:
        spec = get_model(args.model)
    except ValueError as err:
        return _fail([str(err)])
    n, L, dims = spec.default_grid_args
    print(spec.name)
    print(f"  species: {spec.species}")
    print(f"  equations: {spec.equations}")
    print(f"  default grid: n = {n}, L = {L:g}, {dims}D")
    print(f"  default dt: {default_timestep(spec):g}")
    if spec.default_params:
        print("  parameters:")
        for key in sorted(spec.default_params):
            doc = spec.param_doc.get(key, "")
            suffix = f"  ({doc})" if doc else ""
            print(f"    {key} = {spec.default_params[key]:g}{suffix}")
    else:
        print("  parameters: none")
    return 0


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """One flag per run setting, --key (``_`` as ``-``), stored in its RunConfig field."""
    for name in names:
        key, parse, doc = _SETTINGS[name]
        kind = (dict(action=argparse.BooleanOptionalAction) if parse is _parse_bool
                else dict(type=parse, metavar=key.upper()))
        p.add_argument("--" + key.replace("_", "-"), dest=name, help=doc, **kind)


def _add_param_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="model parameter override (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdspectral",
        description="Pseudospectral reaction-diffusion solver harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a model, write artifacts")
    p_run.add_argument("--config", help="key=value config file; flags override it")
    _add_flags(p_run, *_SETTINGS)
    _add_param_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    gold = convergence_study.__kwdefaults__
    p_cmp = sub.add_parser("compare", help="convergence study against a gold run")
    p_cmp.add_argument("--model", required=True)
    p_cmp.add_argument("--scheme", action="append",
                       help="scheme to sweep (repeatable; default the three 4th-order ones)")
    p_cmp.add_argument("--dt", type=float, action="append",
                       help="step size in the sweep (repeatable)")
    _add_flags(p_cmp, "t_final", "n", "half_length")
    p_cmp.add_argument("--gold-scheme", help=f"gold scheme (default {gold['gold_scheme']})")
    p_cmp.add_argument("--gold-dt", type=float,
                       help=f"gold step (default {gold['gold_dt']:g}, a desk-scale reference)")
    p_cmp.add_argument("--out", help="CSV path (default compare_<model>.csv)")
    _add_flags(p_cmp, "dealias")
    _add_param_flag(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_up = sub.add_parser("upsample", help="spectrally refine a stored snapshot")
    p_up.add_argument("run_dir", help="run directory holding the snapshot")
    p_up.add_argument("--index", type=int, help="snapshot index (default: last)")
    p_up.add_argument("--n", required=True,
                      help="new size, or nx,ny for an anisotropic 2D target")
    p_up.set_defaults(func=_cmd_upsample)

    p_ls = sub.add_parser("list-models", help="print registered model names")
    p_ls.set_defaults(func=_cmd_list_models)

    p_desc = sub.add_parser("describe", help="print one model's registry entry")
    p_desc.add_argument("model")
    p_desc.set_defaults(func=_cmd_describe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code in (0, None) else 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
