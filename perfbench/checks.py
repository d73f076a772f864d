"""Output checks for the benchmark's operations.

Every check tests an independent constant or a property of the method,
never a stored copy of an earlier output.  Each returns a list of problems;
an empty list means the operation's output is correct.  The files are read
with a parser of this module's own, so the benchmark's parent process never
imports the program.
"""

from __future__ import annotations

import math

import numpy as np

# q(0) of the Hastings-McLeod solution of Painleve II (Hastings & McLeod,
# ARMA 73, 1980); at c = 0 the front is u(x) = sqrt(2) q(x), so
# u(0; 0) = sqrt(2) q(0).
HM_Q0 = 0.3670615515480784
HM_U0 = math.sqrt(2.0) * HM_Q0
AMPLITUDE_SLOPE = math.pi ** -0.25   # u(0; c) ~ (-c)^{1/4} pi^{-1/4}, c -> -inf
RESIDUAL_TOL = 1e-10                 # the CLI's default Newton tolerance


def read_csv(path) -> tuple[dict, dict]:
    """Header ``# key=value`` lines and the numeric columns of a CLI file."""
    header: dict[str, str] = {}
    names = None
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body and not body.startswith("config:"):
                    key, _, value = body.partition("=")
                    header[key.strip()] = value.strip()
            elif names is None:
                names = [t.strip() for t in line.split(",")]
            else:
                rows.append([float(t) for t in line.split(",")])
    if names is None:
        raise ValueError(f"{path}: no column header")
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return header, {n: data[:, j] for j, n in enumerate(names)}


def branch(header, cols) -> list[str]:
    problems = []
    c, u0, xd = cols["c"], cols["u_at_zero"], cols["x_delta"]
    if header.get("failures") != "0":
        problems.append(f"header failures={header.get('failures')}")
    at0 = np.nonzero(c == 0.0)[0]
    if len(at0) != 1:
        problems.append("no single branch point at c = 0")
    elif abs(u0[at0[0]] - HM_U0) > 1e-9:
        problems.append(f"u(0; 0) = {u0[at0[0]]!r}, Hastings-McLeod {HM_U0!r}")
    if not np.all(np.diff(c) > 0):
        problems.append("c not strictly increasing")
    if not np.all(np.diff(u0) < 0):
        problems.append("u_at_zero not strictly decreasing in c")
    if not np.all(np.diff(xd) <= 0):
        problems.append("x_delta increases with c")
    if not np.all(cols["lambda0"] < 0):
        problems.append("lambda0 >= 0 at some point")
    if not np.all(cols["crossing_count"][c >= 0] == 1):
        problems.append("crossing_count != 1 at some c >= 0")
    far = (c >= -200.0) & (c <= -50.0)
    if far.sum() < 2:
        problems.append("fewer than two branch points on [-200, -50]")
    else:
        slope = np.polyfit((-c[far]) ** 0.25, u0[far], 1)[0]
        if abs(slope - AMPLITUDE_SLOPE) > 0.01:
            problems.append(f"amplitude slope {slope:.6g}, expected {AMPLITUDE_SLOPE:.6g}")
    return problems


def front(header, cols, c: float) -> list[str]:
    """A ``solve --spectrum`` profile at drift speed ``c``."""
    problems = []
    if header.get("admissible") != "True":
        problems.append(f"admissible={header.get('admissible')}")
    if not float(header["residual_norm"]) <= RESIDUAL_TOL:
        problems.append(f"residual_norm={header['residual_norm']} > {RESIDUAL_TOL}")
    if not float(header["lambda0"]) < 0:
        problems.append(f"lambda0={header['lambda0']} >= 0")
    if c >= 0 and header.get("crossing_count") != "1":
        problems.append(f"crossing_count={header.get('crossing_count')} at c={c}")
    if c <= -50:
        law = (-c) ** 0.25 * AMPLITUDE_SLOPE
        if abs(float(header["u_at_zero"]) - law) > 1e-2:
            problems.append(f"u(0)={header['u_at_zero']} vs (-c/pi)^(1/4)={law:.6g}")
    return problems


def ladder(u0_coarse: float, u0_fine: float) -> list[str]:
    """Fourth order at c = 0: halving h shrinks the Hastings-McLeod error
    at least 12x (16x in the limit)."""
    e_coarse, e_fine = abs(u0_coarse - HM_U0), abs(u0_fine - HM_U0)
    if not e_fine * 12.0 <= e_coarse:
        return [f"u(0) error {e_fine:.3e} after halving h, from {e_coarse:.3e}"]
    return []


def spectrum(header, cols) -> list[str]:
    vals = np.array([float(t) for t in header["eigenvalues"].split(";")])
    problems = []
    if not np.all(vals < 0):
        problems.append("non-negative eigenvalue")
    if not np.all(np.diff(vals) < 0):
        problems.append("eigenvalues not strictly descending")
    return problems


def evolve(header, cols, lambda0: float) -> list[str]:
    """Perturbation decay: the measured rate matches the ground-state
    eigenvalue within 20%, and the deviation shrinks."""
    problems = []
    rate = float(header["measured_rate"])
    if not abs(rate - lambda0) <= 0.2 * abs(lambda0):
        problems.append(f"measured_rate={rate:.6g}, lambda0={lambda0:.6g}")
    dev = cols["deviation"]
    if not float(header["final_deviation"]) < dev[0]:
        problems.append(f"final deviation {header['final_deviation']} >= initial {dev[0]:.6g}")
    return problems


def compare_tanh(header, cols, eps: float) -> list[str]:
    """The tanh-ramp front matches the rescaled inner front."""
    problems = []
    sup_gap = float(header["sup_gap"])
    if not sup_gap <= 0.05 * eps ** (1.0 / 3.0):
        problems.append(f"sup_gap={sup_gap:.4g} > 0.05 eps^(1/3)")
    gap = float(header["interface_gap"])
    if not gap <= 0.5:
        problems.append(f"interface_gap={gap:.4g} > 0.5")
    return problems
