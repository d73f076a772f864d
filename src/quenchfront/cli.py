"""Command-line surface: solve, branch, spectrum, evolve, compare-tanh,
validate.

A command reads the settings its flags name; an optional key=value text
file may set only those (flags win), and the settings the command read are
echoed into the header of every output file, so that any result can be
reproduced from the file alone.
CSV files are comma-separated with '#'-prefixed header lines and 17
significant digits; rows are formatted and written CSV_BLOCK_ROWS at a
time, so no file is ever held whole in memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bvp, continuation, diagnostics
from . import evolve as evolve_mod
from . import newton, spectrum
from .bvp import FrontProfile
from .grid import Grid, make_grid

SCHEMA_VERSION = 1
CSV_BLOCK_ROWS = 1024   # rows formatted per write
_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(
    ("0", "false", "no", "off"), False)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass
class RunConfig:
    """A run's settings: the defaults, then the config file's values, then
    the flags' (flags win). A command reads exactly its flags' settings."""

    c: float = 0.0
    cmin: float = -1.0
    cmax: float = 1.0
    dc: float = 0.25
    eps: float = 1e-3
    delta: float = 0.1
    xmin: float | None = None
    xmax: float | None = None
    h: float = bvp.DEFAULT_H
    tol: float = newton.DEFAULT_TOL
    out: str | None = None
    spectrum: bool = False
    seed_file: str | None = None
    k: int = 5
    dt: float = 0.01
    t_end: float = 30.0
    ramp: str = "linear"
    criteria: str | None = None

    def __post_init__(self):
        # keys set by the config file or a flag rather than by default, and
        # the settings the run reads
        self.given: set[str] = set()
        self.read: set[str] = set()

    def load(self, path: str | Path, flags: dict[str, argparse.Action]) -> None:
        """Set the settings of a key=value file as ``flags`` convert them; a
        setting that none of them names is only marked given, for ``main``
        to refuse."""
        fields = {f.name for f in dataclasses.fields(self)}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            try:
                if key not in fields:
                    raise ValueError(f"unknown config key {key!r}")
                if key in flags:
                    setattr(self, key, _convert(flags[key], value))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
            self.given.add(key)

    def echo(self) -> list[str]:
        # the settings read, which shape the values written; the output path
        # does not, and including it would break byte-level reproducibility
        return [f"{f.name}={_fmt(getattr(self, f.name))}" for f in dataclasses.fields(self)
                if f.name in self.read - {"out"} and getattr(self, f.name) is not None]


def _convert(flag: argparse.Action, value: str):
    """A config file's value as ``flag`` reads it; a flag that takes no
    value (``--spectrum``) reads a boolean word."""
    if flag.nargs == 0:
        if value.lower() not in _BOOLEANS:
            raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {value!r}")
        return _BOOLEANS[value.lower()]
    value = (flag.type or str)(value)
    if flag.choices and value not in flag.choices:
        raise ValueError(f"expected one of {', '.join(flag.choices)}, got {value!r}")
    return value


def write_csv(path: str | Path, kind: str, header: dict, columns: dict,
              cfg: RunConfig, trailing_comments: list[str] | None = None) -> None:
    names = list(columns)
    cols = [np.atleast_1d(np.asarray(columns[n], dtype=float)) for n in names]
    if len({len(col) for col in cols}) > 1:
        raise ValueError("CSV columns differ in length: " + ", ".join(
            f"{n}={len(col)}" for n, col in zip(names, cols)))
    lines = [f"# schema_version={SCHEMA_VERSION}",
             f"# kind={kind}",
             f"# generated_by=quenchfront {__version__}"]
    lines += [f"# {k}={_fmt(v)}" for k, v in header.items()]
    lines.append("# config: " + " ".join(cfg.echo()))
    lines.append(",".join(names))
    # "%.17g" prints a float exactly as _fmt does, one row per template
    row = ",".join(["%.17g"] * len(names)) + "\n"
    with Path(path).open("w") as f:
        f.writelines(line + "\n" for line in lines)
        for i in range(0, len(cols[0]) if cols else 0, CSV_BLOCK_ROWS):
            block = zip(*(col[i:i + CSV_BLOCK_ROWS].tolist() for col in cols))
            f.write("".join(row % cells for cells in block))
        f.writelines(line + "\n" for line in trailing_comments or [])


def read_csv(path: str | Path) -> tuple[dict, dict]:
    """Read one of our CSV files; returns (header dict, column dict).
    Rejects files with a missing or unsupported schema version."""
    header: dict[str, str] = {}
    names: list[str] | None = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and not body.startswith("config:"):
                k, _, v = body.partition("=")
                header[k.strip()] = v.strip()
            continue
        if names is None:
            names = [t.strip() for t in line.split(",")]
            continue
        cells = line.split(",")
        try:
            if len(cells) != len(names):
                raise ValueError(f"{len(cells)} cells for {len(names)} columns")
            rows.append([float(t) for t in cells])
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    if header.get("schema_version") != str(SCHEMA_VERSION):
        raise ValueError(f"{path}: missing or unsupported schema_version "
                         f"(want {SCHEMA_VERSION}, got {header.get('schema_version')!r})")
    if names is None:
        raise ValueError(f"{path}: no column header found")
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    return header, {n: data[:, j] for j, n in enumerate(names)}


def load_profile(path: str | Path) -> FrontProfile:
    """A profile CSV's c and u as a front on the uniform grid from its first
    to its last x; what is missing, off that grid, not a number or not finite
    is a ValueError naming the file."""
    header, cols = read_csv(path)
    if header.get("kind") != "profile":
        raise ValueError(f"{path}: not a profile file")
    for key, table, what in (("c", header, "'# c=' header line"),
                             ("x", cols, "'x' column"), ("u", cols, "'u' column")):
        if key not in table:
            raise ValueError(f"{path}: no {what}")
    x = cols["x"]
    try:
        g = Grid(x_min=float(x[0]), x_max=float(x[-1]), n=len(x))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: x column gives no grid: {exc}") from None
    # the written nodes and the rebuilt ones differ by roundoff at most; a nan is off
    off = np.flatnonzero(~(np.abs(x - g.nodes()) <= 1e-9 * g.h))
    if off.size:
        raise ValueError(f"{path}: x leaves the uniform increasing grid at data "
                         f"row {off[0] + 1}: x={x[off[0]]:.17g}")
    try:
        c = float(header["c"])
    except ValueError:
        c = np.nan
    if not np.isfinite(c):
        raise ValueError(f"{path}: '# c=' header line gives c={header['c']}")
    u = cols["u"]
    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        raise ValueError(f"{path}: u is not finite at data row {bad[0] + 1}: u={u[bad[0]]}")
    return FrontProfile(c=c, grid=g, u=u.copy(), converged=True)


class MarginError(ValueError):
    pass


def _grid_for(cfg: RunConfig, c: float) -> Grid:
    """c's default domain with the given edges, on the grid that is solved."""
    lo, hi = bvp.default_domain(c)
    g = make_grid(lo if cfg.xmin is None else cfg.xmin, hi if cfg.xmax is None else cfg.xmax,
                  cfg.h)
    if not bvp.domain_ok(g, c):
        need_lo, need_hi = bvp.required_bounds(c)
        raise MarginError(
            f"domain [{g.x_min:g}, {g.x_max:g}] too small for c={c}: front interface needs "
            f"[{need_lo:.2f}, {need_hi:.2f}] with {bvp.FRONT_MARGIN:g}-unit margins")
    return g


def _solve(cfg: RunConfig) -> FrontProfile:
    g = _grid_for(cfg, cfg.c)
    if cfg.seed_file:
        # into the frame of c's delayed interface, as continuation predicts
        seed = load_profile(cfg.seed_file)
        u = continuation.predict(seed, np.zeros(seed.grid.n), cfg.c, g)
        return continuation.admissible_solve(FrontProfile(c=cfg.c, grid=g, u=u), cfg.tol)[0]
    return continuation.solve_front(cfg.c, grid=g, tol=cfg.tol)


def _grid_header(g: Grid) -> dict:
    """The grid a front was solved on, as echoed in every front's header."""
    return {"h": g.h, "xmin": g.x_min, "xmax": g.x_max, "n": g.n}


def _profile_header(cfg: RunConfig, p: FrontProfile) -> dict:
    fit = bvp.fit_tail_coefficients(p)
    roots = diagnostics.crossings(p)
    header = {
        "c": p.c, **_grid_header(p.grid), "residual_norm": p.residual_norm,
        "log_k": fit.log_k, "log_k_spread": fit.log_k_spread,
        "x_delta": diagnostics.front_position(p, cfg.delta),
        "delta": cfg.delta,
        "u_at_zero": diagnostics.u_at_zero(p),
        "crossing_count": len(roots),
        "crossing_points": ";".join(_fmt(r) for r in roots) or "none",
        "admissible": not diagnostics.admissibility(p),
    }
    if cfg.spectrum:
        rep = spectrum.leading_eigenvalues(p, k=1)
        header["lambda0"] = float(rep.eigenvalues[0])
        header["lambda0_residual"] = rep.residual
    return header


def cmd_solve(cfg: RunConfig) -> int:
    p = _solve(cfg)
    header = _profile_header(cfg, p)
    out = cfg.out or f"profile_c{cfg.c:g}.csv"
    write_csv(out, "profile", header,
              {"x": p.grid.nodes(), "u": p.u, "residual": bvp.stationary_residual(p, p.u)},
              cfg)
    print(f"wrote {out}: c={p.c:g} residual={p.residual_norm:.3e} "
          f"u(0)={header['u_at_zero']:.6g} x_delta={header['x_delta']:.6g}")
    return 0


def cmd_branch(cfg: RunConfig) -> int:
    if not cfg.cmin < cfg.cmax:
        raise ValueError(f"need cmin < cmax, got [{cfg.cmin}, {cfg.cmax}]")
    anchor = continuation.solve_front(0.0, tol=cfg.tol, h=cfg.h)
    # each side's branch starts at the c = 0 anchor and keeps only its own side
    points = [(0.0, anchor)]
    failures: list[tuple[float, str]] = []
    for side, target in ((-1.0, cfg.cmin), (1.0, cfg.cmax)):
        if side * target > 0:
            br = continuation.continue_branch(anchor, target, cfg.dc, cfg.tol, cfg.h)
            points += [(c, p) for c, p in br.points if side * c > 0]
            failures += br.failures
    points = [(c, p) for c, p in points if cfg.cmin - 1e-12 <= c <= cfg.cmax + 1e-12]
    points.sort(key=lambda t: t[0])

    names = ("c", "u_at_zero", "x_delta", "crossing_count", "lambda0", "log_k", "log_k_spread")
    rows = [(c, diagnostics.u_at_zero(p), diagnostics.front_position(p, cfg.delta),
             len(diagnostics.crossings(p)),
             float(spectrum.leading_eigenvalues(p, 1).eigenvalues[0]),
             *bvp.fit_tail_coefficients(p)) for c, p in points]
    out = cfg.out or f"branch_{cfg.cmin:g}_{cfg.cmax:g}.csv"
    header = {"cmin": cfg.cmin, "cmax": cfg.cmax, "delta": cfg.delta,
              "points": len(rows), "failures": len(failures)}
    write_csv(out, "branch", header, {n: [r[j] for r in rows] for j, n in enumerate(names)},
              cfg,
              trailing_comments=[f"# failure: c={_fmt(c)} {msg}" for c, msg in failures])
    print(f"wrote {out}: {len(rows)} branch points on [{cfg.cmin:g}, {cfg.cmax:g}], "
          f"{len(failures)} failures")
    return 0 if points else 2


def cmd_spectrum(cfg: RunConfig) -> int:
    p = _solve(cfg)
    rep = spectrum.leading_eigenvalues(p, k=cfg.k)
    V = spectrum.build_potential(p)
    out = cfg.out or f"spectrum_c{cfg.c:g}.csv"
    header = {"c": cfg.c, "k": cfg.k, "potential_min": float(V.min()),
              "eigenvalues": ";".join(_fmt(float(v)) for v in rep.eigenvalues),
              "lambda0": float(rep.eigenvalues[0]),
              "lambda0_residual": rep.residual}
    write_csv(out, "spectrum", header,
              {"x": p.grid.nodes(), "ground_state": rep.ground_state, "potential": V}, cfg)
    print(f"wrote {out}: lambda0={rep.eigenvalues[0]:.6g}")
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    p = evolve_mod.solve_tanh_front(cfg.eps, cfg.c) if cfg.ramp == "tanh" else _solve(cfg)
    x = p.grid.nodes()
    bump = 1e-3 * np.exp(-(x - diagnostics.front_position(p, cfg.delta)) ** 2)
    result = evolve_mod.evolve(p, p.u + bump, cfg.dt, cfg.t_end)
    lambda0 = float(spectrum.leading_eigenvalues(p, 1).eigenvalues[0])
    out = cfg.out or f"evolve_c{cfg.c:g}.csv"
    header = {"c": cfg.c, **_grid_header(p.grid), "dt": cfg.dt,
              "t_end": cfg.t_end, "scheme": evolve_mod.SCHEME,
              "measured_rate": result.measured_rate,
              "rate_samples": result.rate_samples, "lambda0": lambda0,
              "rate_rel_gap": abs(result.measured_rate - lambda0) / abs(lambda0),
              "final_deviation": result.deviation_history[-1][1],
              "peak_growth": result.peak_growth, "steps": result.steps,
              "step_s": result.step_s, "factor_s": result.factor_s}
    write_csv(out, "evolve", header,
              {"t": [t for t, _ in result.deviation_history],
               "deviation": [d for _, d in result.deviation_history]}, cfg)
    print(f"wrote {out}: measured decay rate {result.measured_rate:.4g}")
    return 0


def cmd_compare_tanh(cfg: RunConfig) -> int:
    if not 0.0 < cfg.eps <= 0.1:
        raise ValueError(f"eps must lie in (0, 0.1], got {cfg.eps}")
    rep = evolve_mod.compare_inner_scaling(cfg.eps, cfg.c, delta=cfg.delta)
    out = cfg.out or f"compare_tanh_eps{cfg.eps:g}_c{cfg.c:g}.csv"
    header = {"eps": cfg.eps, "c": cfg.c, **_grid_header(rep.grid),
              "c_scaled": rep.c_scaled,
              "delta": cfg.delta, "sup_gap": rep.sup_gap,
              "x_delta_tanh": rep.x_delta_tanh,
              "x_delta_inner_scaled": rep.x_delta_inner_scaled,
              "interface_gap": rep.interface_gap}
    write_csv(out, "compare_tanh", header,
              {"x": rep.xs, "u_tanh": rep.u_tanh,
               "u_inner_scaled": rep.u_inner_scaled,
               "gap": rep.u_tanh - rep.u_inner_scaled}, cfg)
    print(f"wrote {out}: sup_gap={rep.sup_gap:.4g} interface_gap={rep.interface_gap:.4g}")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    from . import acceptance   # here, so that no other command pays to load the suite
    only = None
    if cfg.criteria:
        try:
            only = {int(t) for t in cfg.criteria.split(",")}
        except ValueError as exc:   # int's message quotes the bad entry
            raise ValueError(f"criteria takes comma-separated criterion numbers, got "
                             f"{cfg.criteria!r}: {exc}") from None
    results = acceptance.run_all(only=only)
    lines = [acceptance.format_result(r) for r in results]
    print("\n".join(lines))
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    if cfg.out:
        Path(cfg.out).write_text("\n".join(lines) + "\n")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """The commands and their flags: a command reads exactly the settings its
    flags name, and a config file may set only those."""
    parser = argparse.ArgumentParser(
        prog="quenchfront",
        description="Monotone fronts of u'' + c u' - x u - u^3 = 0: "
                    "solve, continue in c, and validate")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_, flags, **kwargs):
        p = sub.add_parser(name, help=help_, **kwargs)
        actions = {}
        for flag, kw in flags.items():
            action = p.add_argument(flag, **kw)
            default = getattr(RunConfig, action.dest, None)
            if default is not None:
                action.help += f" (default {default})"
            actions[action.dest] = action
        p.set_defaults(run=run, flags=actions)

    out = dict(help="output path")
    delta = dict(type=float, help="front-interface level")
    eps = dict(type=float, help="the tanh ramp's eps")
    front = {"--c": dict(type=float, help="drift speed"),
             "--xmin": dict(type=float, help="left end of the domain (default set by c)"),
             "--xmax": dict(type=float, help="right end of the domain (default set by c)"),
             "--seed-file": dict(help="profile CSV to seed the solve"),
             "--h": dict(type=float, help="grid spacing"),
             "--tol": dict(type=float, help="Newton residual tolerance"), "--out": out}
    add("solve", cmd_solve, "solve one front, write profile CSV", {
        **front, "--delta": delta,
        "--spectrum": dict(action="store_true", default=None,
                           help="also report lambda0 in the header")})
    add("branch", cmd_branch, "continuation sweep, write branch CSV", {
        "--cmin": dict(type=float, help="lower end of the c range"),
        "--cmax": dict(type=float, help="upper end of the c range"),
        "--dc": dict(type=float, help="initial continuation step"),
        "--h": front["--h"], "--tol": front["--tol"], "--out": out, "--delta": delta})
    add("spectrum", cmd_spectrum, "leading eigenvalues of the linearization", {
        **front, "--k": dict(type=int, help="how many eigenvalues")})
    # which of these evolve reads depends on its ramp (see _RAMP_UNREAD)
    add("evolve", cmd_evolve, "time-integrate a perturbed front, write deviation history", {
        **front, "--delta": delta, "--dt": dict(type=float, help="time step"),
        "--t-end": dict(type=float, help="end time"),
        "--scheme": dict(choices=[evolve_mod.SCHEME], help="time-stepping scheme"),
        "--ramp": dict(choices=["linear", "tanh"], help="r(x) = x or tanh(eps x)"),
        "--eps": eps})
    # the fronts compared have fixed grids and tolerances: no --h, no --tol
    # (and no abbreviations, or --h would be read as --help)
    add("compare-tanh", cmd_compare_tanh, "overlay tanh-ramp front with rescaled inner front",
        {"--eps": eps, "--c": front["--c"], "--out": out, "--delta": delta},
        allow_abbrev=False)
    add("validate", cmd_validate, "run the acceptance suite", {
        "--criteria": dict(help="comma-separated subset, e.g. 1,5,11"), "--out": out})
    return parser


# what evolve does not read on each ramp: the tanh front is solved at
# h = evolve.TANH_H on [-TANH_DOMAIN_HALF, TANH_DOMAIN_HALF] with the default tolerance
_RAMP_UNREAD = {"linear": {"eps"}, "tanh": {"h", "tol", "xmin", "xmax", "seed_file"}}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig()
        if args.config:
            cfg.load(args.config, args.flags)
        fields = [f.name for f in dataclasses.fields(cfg)]
        # --scheme names no setting: argparse's choices check it, and the
        # one scheme runs always
        cfg.read = args.flags.keys() & fields
        for key in cfg.read:
            if getattr(args, key) is not None:
                setattr(cfg, key, getattr(args, key))
                cfg.given.add(key)
        command = args.command
        if command == "evolve":
            command += f" --ramp {cfg.ramp}"
            cfg.read -= _RAMP_UNREAD[cfg.ramp]
        unread = [key for key in fields if key in cfg.given - cfg.read]
        if unread:
            read = ", ".join(key for key in fields if key in cfg.read)
            raise ValueError(f"{command} reads only {read}; "
                             f"it does not use the given {', '.join(unread)}")
        return args.run(cfg)
    except (ValueError, newton.SolverError, evolve_mod.BlowUpError,
            bvp.TailFitError, spectrum.EigenIterationError, OSError) as exc:
        print(f"error kind={type(exc).__name__} detail={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
