"""Command-line front end.

Subcommands: spectrum, check-controllability, check-stabilizability,
check-observability, synthesize, simulate.  Exit codes: 0 on success or a
passing verdict, 2 when a checked condition definitely fails, 1 on
operational errors (bad files, invalid parameters, solver failures).
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import analysis, spectrum, svg, synthesis
from .simulate import (
    History,
    HistoryGridMismatch,
    StepNotUnitDivisor,
    simulate,
    simulate_closed_loop,
    trajectory_to_csv,
)
from .spectrum import SpectrumError, SpectrumRegion
from .synthesis import Condition2Violated
from .system import (
    DimensionError,
    NoOutputError,
    SystemFormatError,
    load_system,
    parse_feedback,
    transpose_dual,
)

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_CONDITION_FAILED = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neutralctl",
        description="Spectrum, controllability and stabilization analysis of "
        "neutral delay systems with unit delay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--system", required=True, help="system definition file (JSON)")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--tol-rank", type=float, default=1e-9, help="relative rank tolerance")
        p.add_argument("--tol-root", type=float, default=1e-9, help="root residual tolerance")

    def add_region(p):
        p.add_argument("--re-min", type=float, default=None)
        p.add_argument("--re-max", type=float, default=None)
        p.add_argument("--im-max", type=float, default=None)

    p = sub.add_parser("spectrum", help="locate eigenvalues in a rectangle")
    add_common(p)
    add_region(p)

    for name in ("check-controllability", "check-stabilizability", "check-observability"):
        p = sub.add_parser(name, help=f"run the {name.split('-', 1)[1]} verdict")
        add_common(p)
        add_region(p)

    p = sub.add_parser("synthesize", help="stage-1 gain for a target decay rate")
    add_common(p)
    add_region(p)
    p.add_argument("--omega", type=float, required=True, help="target decay rate (> 0)")

    p = sub.add_parser("simulate", help="integrate the equation by the method of steps")
    add_common(p)
    p.add_argument("--step", type=float, default=0.01, help="grid step, must be 1/q, q >= 10")
    p.add_argument("--horizon", type=float, default=5.0, help="final time, multiple of step")
    p.add_argument("--history", default=None, help="history file (JSON with z and optional dz)")
    p.add_argument("--feedback", default=None, help="feedback-law file (JSON gains)")
    return parser


def _resolve_region(args, sysm):
    base = spectrum.default_region(sysm)
    re_min = args.re_min if args.re_min is not None else base.re_min
    re_max = args.re_max if args.re_max is not None else base.re_max
    im_max = args.im_max if args.im_max is not None else base.im_max
    return SpectrumRegion(re_min, re_max, -im_max, im_max)


def _write(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text, encoding="utf-8")
    return path


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_spectrum(args) -> int:
    sysm = load_system(args.system)
    region = _resolve_region(args, sysm)
    roots = spectrum.find_roots(sysm, region, tol=args.tol_root)
    chains = spectrum.predict_chains(sysm)
    outdir = Path(args.out)
    _write(outdir, "roots.csv", spectrum.roots_to_csv(roots))
    _write(
        outdir,
        "chains.json",
        _json_dump(
            {
                "chains": [
                    {
                        "mu_re": c.mu.real,
                        "mu_im": c.mu.imag,
                        "abscissa": c.abscissa,
                        "phase": c.phase,
                        "multiplicity": c.multiplicity,
                    }
                    for c in chains
                ]
            }
        ),
    )
    kmax = int(region.symmetrized().im_max / (2 * math.pi)) + 2
    _write(outdir, "spectrum.svg", svg.spectrum_svg(roots, chains, region.symmetrized(),
                                                    chain_indices=range(-kmax, kmax + 1)))
    print(f"{len(roots)} distinct roots, {sum(r.multiplicity for r in roots)} with multiplicity")
    for r in roots:
        print(f"  lambda = {r.lam.real:+.6f} {r.lam.imag:+.6f}i  multiplicity {r.multiplicity}")
    return EXIT_OK


_CHECKS = {
    "check-controllability": ("null_controllability", analysis.check_null_controllability),
    "check-stabilizability": ("stabilizability", analysis.check_stabilizability),
    "check-observability": ("final_observability", analysis.check_final_observability),
}


def _cmd_check(args) -> int:
    kind, fn = _CHECKS[args.command]
    sysm = load_system(args.system)
    # observability searches the transposed system's spectrum
    basis = transpose_dual(sysm) if kind == "final_observability" else sysm
    region = _resolve_region(args, basis)
    verdict = fn(sysm, region, tol_rank=args.tol_rank, tol_root=args.tol_root)
    payload = analysis.verdict_to_dict(verdict, kind, args.tol_rank, args.tol_root)
    _write(Path(args.out), "verdict.json", _json_dump(payload))
    print(f"{kind}: {'PASS' if verdict.overall else 'FAIL'} ({verdict.status})")
    print(f"  criterion: {payload['criterion']}")
    print(
        f"  condition 1 (spectral rank, {verdict.condition1.scope}): "
        f"{'ok' if verdict.condition1.passed else 'violated'}"
    )
    print(
        f"  condition 2 (neutral-coefficient rank, {verdict.condition2.scope}): "
        f"{'ok' if verdict.condition2.passed else 'violated'}"
    )
    for w in verdict.condition1.witnesses + verdict.condition2.witnesses:
        print(f"  witness at lambda = {w.lam:+.6f}, rank {w.rank_found}")
    if verdict.conjecture_note:
        print(f"  note: {verdict.conjecture_note}")
    return EXIT_OK if verdict.overall else EXIT_CONDITION_FAILED


def _cmd_synthesize(args) -> int:
    sysm = load_system(args.system)
    if args.omega <= 0:
        raise ValueError("--omega must be positive")
    region = None
    if not (args.re_min is None and args.re_max is None and args.im_max is None):
        region = _resolve_region(args, sysm)
    plan = synthesis.synthesize_stage1(
        sysm, args.omega, region, tol_rank=args.tol_rank, tol_root=args.tol_root
    )
    _write(Path(args.out), "plan.json", _json_dump(synthesis.plan_to_dict(plan)))
    print(f"stage-1 gain for omega = {plan.omega}: F_minus1 = {plan.F_minus1.tolist()}")
    print(f"  chains after feedback: {len(plan.chains_after)}")
    print(
        f"  residual eigenvalues with Re >= {-plan.omega}: "
        f"{sum(r.multiplicity for r in plan.residual_roots)}"
    )
    print(f"  stage1_ok: {plan.stage1_ok}  stage2_required: {plan.stage2_required}")
    return EXIT_OK


def _load_history(args, sysm, q: int) -> History:
    if args.history is None:
        return History.constant(np.ones(sysm.n), q)
    with open(args.history, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "z" not in obj:
        raise SystemFormatError("history file must be an object with a 'z' array")
    return History.from_samples(obj["z"], q, obj.get("dz"))


def _cmd_simulate(args) -> int:
    sysm = load_system(args.system)
    q = round(1.0 / args.step)
    history = _load_history(args, sysm, q)
    if args.feedback is not None:
        with open(args.feedback, "r", encoding="utf-8") as fh:
            law = parse_feedback(fh.read(), sysm.m, sysm.n)
        traj = simulate_closed_loop(sysm, law, history, horizon=args.horizon, step=args.step)
    else:
        traj = simulate(sysm, history, control=None, horizon=args.horizon, step=args.step)
    outdir = Path(args.out)
    _write(outdir, "trajectory.csv", trajectory_to_csv(traj))
    _write(outdir, "trajectory.svg", svg.trajectory_svg(traj))
    final = ", ".join(f"{x:.6g}" for x in traj.z[-1])
    print(f"integrated to t = {traj.t[-1]:g} with step {traj.h:g}; z(T) = ({final})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "spectrum": _cmd_spectrum,
        "check-controllability": _cmd_check,
        "check-stabilizability": _cmd_check,
        "check-observability": _cmd_check,
        "synthesize": _cmd_synthesize,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except Condition2Violated as e:
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return EXIT_CONDITION_FAILED
    except (
        SystemFormatError,
        DimensionError,
        NoOutputError,
        StepNotUnitDivisor,
        HistoryGridMismatch,
        SpectrumError,
        FileNotFoundError,
        ValueError,
    ) as e:
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    raise SystemExit(main())
