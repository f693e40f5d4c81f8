"""Command-line front door.

Subcommands: basis, groundstate, evolve-exact, evolve-hf, compare, validate.
Exit codes: 0 success, 1 validation/computation failure, 2 usage error.
All floats are serialized with 17 significant digits and LF line endings so
identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import astuple, fields, replace

import numpy as np

from . import __version__
from .analysis import CSV_HEADER, ComparisonRecord, Problem, run_comparison
from .basis import GRAM_TOL, basis_report
from .config import (INTEGRATORS, SimulationConfig, load_config,
                     quantization_ulps)
from .errors import (InvalidValue, IoFailure, LandauHFError,
                     SupportViolation, TooLarge)
from .hartree_fock import integrate_hf, time_grid


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# what a run may stop on and still end with an `error:` line, exit 1 and a
# manifest: the package's own errors, and an allocation numpy or Python
# could not make (a prediction under a byte cap can still exceed the
# memory the process may take)
FAILURES = (LandauHFError, MemoryError)


def failure_message(exc: BaseException) -> str:
    """The one-line message of a failure in FAILURES."""
    if isinstance(exc, MemoryError):
        return f"out of memory: {exc}" if str(exc) else "out of memory"
    return str(exc)


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write_json(path: str, payload: dict):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_timeseries(records: list[ComparisonRecord], path: str):
    """Deterministic CSV of comparison records."""
    if not records:
        raise ValueError("no records to write")
    times = [r.t for r in records]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("record times must be strictly increasing")
    write_csv(path, CSV_HEADER, (astuple(r) for r in records))


def write_csv(path: str, header: str, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


class Manifest:
    """Record of one run: config echo, timings, counters, outputs, validations.

    dispatch opens the one Manifest of every compute subcommand on the run's
    one Problem, and the Manifest creates the out dir: one it cannot create
    raises IoFailure, and no manifest is written.  Each output file is
    written inside a `with manifest.output(name) as path:` block and listed
    only once that block ends without an error.  On leaving, the Manifest
    writes manifest.json with the counters of what the Problem built
    (Problem.counters), also when a LandauHFError or a MemoryError stops
    the run: then with ok false and the message (failure_message) as a
    failed validation, defect_support for a SupportViolation and error
    otherwise.
    """

    def __init__(self, command: str, args, problem: Problem):
        self.out_dir = args.out_dir
        self.problem = problem
        self.data = {
            "command": command,
            "config_path": args.config,
            "config": _config_echo(problem.config),
            "version": __version__,
            "timings": {},
            "outputs": [],
            "validations": {},
            "ok": True,
        }
        self._t0 = time.perf_counter()
        self._phase_start = self._t0
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot create out dir {self.out_dir}: {exc}") from exc

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, FAILURES):
            name = "defect_support" if isinstance(exc, SupportViolation) else "error"
            self.validation(name, False, failure_message(exc))
        if exc is None or isinstance(exc, FAILURES):
            self.write()

    def phase(self, name: str):
        now = time.perf_counter()
        self.data["timings"][name] = now - self._phase_start
        self._phase_start = now

    @contextlib.contextmanager
    def output(self, name: str):
        """Path of the output name in the out dir; name is listed once the
        with block that writes it ends without an error, and an OSError
        there becomes an IoFailure."""
        path = os.path.join(self.out_dir, name)
        try:
            yield path
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        self.data["outputs"].append(name)

    def validation(self, name: str, ok: bool, detail=None):
        self.data["validations"][name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            self.data["ok"] = False

    def write(self):
        self.data["timings"]["total"] = time.perf_counter() - self._t0
        self.data["counters"] = self.problem.counters()
        for name in self.data["outputs"]:
            full = os.path.join(self.out_dir, name)
            if not (os.path.exists(full) and os.path.getsize(full) > 0):
                raise IoFailure(f"declared output {name} missing or empty")
        _write_json(os.path.join(self.out_dir, "manifest.json"), self.data)


def _config_echo(config: SimulationConfig) -> dict:
    """Every config key's resolved value, plus the derived field B."""
    echo = {f.name: getattr(config, f.name) for f in fields(config) if f.init}
    echo["B"] = config.constants.B
    return echo


def cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except LandauHFError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    checks = {}
    ulps = quantization_ulps(config.domain, config.constants)
    checks["flux_quantization_ulps"] = {"ok": ulps <= 4.0, "detail": ulps}
    try:
        dev = config.potential.check_symmetry(config.tensor_grid)
        checks["potential_symmetric"] = {"ok": True, "detail": dev}
    except LandauHFError as exc:
        checks["potential_symmetric"] = {"ok": False, "detail": str(exc)}
    try:
        checks["time_steps"] = {"ok": True, "detail": time_grid(config.dt, config.t_final)[1]}
    except TooLarge as exc:
        checks["time_steps"] = {"ok": False, "detail": str(exc)}
    ok = all(c["ok"] for c in checks.values())
    print(json.dumps({"ok": ok, "checks": checks}, indent=2, sort_keys=True))
    return 0 if ok else 1


def cmd_basis(args, problem: Problem, manifest: Manifest) -> int:
    oset = problem.grid_orbitals
    manifest.phase("build_basis")
    X1, X2 = problem.config.grid.mesh()
    for orb in oset.orbitals:
        rows = zip(X1.ravel(), X2.ravel(),
                   orb.values.real.ravel(), orb.values.imag.ravel())
        with manifest.output(f"orbital_n{orb.n}_m{orb.m}.csv") as path:
            write_csv(path, "x1,x2,Re,Im", rows)
    report = basis_report(oset, problem.config.constants)
    manifest.phase("validate")
    with manifest.output("basis_report.json") as path:
        _write_json(path, report)
    gram = report["gram_max_dev"]
    manifest.validation("gram", gram <= GRAM_TOL, gram)
    print(json.dumps({"gram_max_dev": gram}, sort_keys=True))
    return 0 if gram <= GRAM_TOL else 1


def cmd_groundstate(args, problem: Problem, manifest: Manifest) -> int:
    filling, energy, sets = problem.ground_state
    payload = {
        "E0": energy,
        "nu": filling.nu,
        "r": filling.remainder,
        "degeneracy": filling.degeneracy,
        "occupations": [list(s) for s in sets],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    with manifest.output("groundstate.json") as path:
        _write_text(path, text + "\n")
    manifest.phase("groundstate")
    return 0


def cmd_evolve_exact(args, problem: Problem, manifest: Manifest) -> int:
    problem.H  # assembled here, so that the "assemble" phase times it
    manifest.phase("assemble")
    rows = [(t, energy, float(np.linalg.norm(psi)))
            for t, psi, energy in problem.exact_samples()]
    with manifest.output("exact_timeseries.csv") as path:
        write_csv(path, "t,energy,norm", rows)
    manifest.phase("evolve")
    return 0


def cmd_evolve_hf(args, problem: Problem, manifest: Manifest) -> int:
    config = problem.config
    orbitals = None
    if args.initial != "nigs-ground":
        # OSError/ValueError: unreadable or not numpy data; EOFError: empty;
        # KeyError: an .npz without 'orbitals'; IndexError: a bare .npy array
        try:
            with open(args.initial, "rb") as fh:
                orbitals = np.asarray(np.load(fh)["orbitals"], dtype=np.complex128)
        except (OSError, EOFError, ValueError, KeyError, IndexError) as exc:
            raise IoFailure(f"cannot read orbitals from {args.initial}: {exc}") from exc
    hf0 = problem.initial_state(orbitals)
    tensor = problem.tensor
    manifest.phase("setup")
    traj = integrate_hf(hf0, config.dt, config.t_final, config.integrator,
                        tensor, problem.energies, config.constants,
                        sample_stride=config.sample_stride)
    rows = [(t, s.a.real, s.a.imag, e, n, g) for t, s, e, n, g in zip(
        traj.times, traj.states, traj.energies, traj.norms, traj.gram_devs)]
    with manifest.output("hf_timeseries.csv") as path:
        write_csv(path, "t,re_a,im_a,energy,norm,orth_drift", rows)
    if args.snapshots:
        arrays = {f"orbitals_{i}": s.orbitals for i, s in enumerate(traj.states)}
        arrays["times"] = traj.times
        with manifest.output("hf_orbitals.npz") as path:
            np.savez(path, **arrays)
    manifest.phase("evolve")
    return 0


def cmd_compare(args, problem: Problem, manifest: Manifest) -> int:
    result = run_comparison(problem)
    manifest.phase("compare")
    with manifest.output("compare_timeseries.csv") as path:
        write_timeseries(result.records, path)
    with manifest.output("compare_summary.json") as path:
        _write_json(path, result.summary)
    violations = result.summary["bound_violations"]
    manifest.validation("bound_violations", violations == 0, violations)
    print(json.dumps({"max_error": result.summary["max_error"],
                      "bound_violations": violations}, sort_keys=True))
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landau-hf",
        description="Magnetic-fermion dynamics in the truncated level basis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config without computing")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)
    for name, func, text in (
            ("basis", cmd_basis, "build and validate the orbital basis"),
            ("groundstate", cmd_groundstate, "noninteracting ground-state data"),
            ("evolve-exact", cmd_evolve_exact, "propagate the full dynamics"),
            ("evolve-hf", cmd_evolve_hf, "propagate the effective dynamics"),
            ("compare", cmd_compare, "exact-vs-effective error analysis")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--out-dir", default="./out", help="output directory")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="must be at least 1; changes no work")
        p.set_defaults(func=func, dt=None, t_final=None, scheme=None)

    p = sub.choices["evolve-hf"]
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--scheme", choices=INTEGRATORS)
    p.add_argument("--initial", default="nigs-ground",
                   help="'nigs-ground' or a .npz file with an 'orbitals' array")
    p.add_argument("--snapshots", action="store_true",
                   help="also write orbital snapshots")
    return parser


def dispatch(argv) -> int:
    """The one run path of the compute subcommands: check --threads, load
    the config, apply --dt, --t-final and --scheme over it (revalidated by
    dataclasses.replace), build the run's one Problem, open the Manifest on
    it and call args.func(args, problem, manifest).  validate loads its own
    config.  A LandauHFError or a MemoryError exits 1 with an `error:`
    line."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        if args.func is cmd_validate:
            return cmd_validate(args)
        if args.threads < 1:
            raise InvalidValue("threads", "must be >= 1")
        config = load_config(args.config)
        flags = {"dt": args.dt, "t_final": args.t_final, "integrator": args.scheme}
        flags = {key: value for key, value in flags.items() if value is not None}
        if flags:
            config = replace(config, **flags)
        problem = Problem(config)
        with Manifest(args.command, args, problem) as manifest:
            return args.func(args, problem, manifest)
    except FAILURES as exc:
        print(f"error: {failure_message(exc)}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
