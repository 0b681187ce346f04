"""Independent numpy references for the benchmark's output checks.

Nothing here imports ``simnet``: the network and certificate files are read
as plain JSON and every quantity is recomputed from the definitions.

  * per-node gains  rho_int = 3 max |sqrt(M_s2) D_s|^2 and
                    rho_ext = 3 max |sqrt(M_s2) (B_s R_s - P Bhat_s)|^2
                    over the admissible ordered mode pairs;
  * small gain      the radius of Psi = Lambda^-1 Gamma by dense eigenvalues
                    up to 1000 nodes and by a Collatz-Wielandt bracket above;
                    lambda_inf feasible (radius below one) and maximal within
                    the bisection width; mu recomputed by a dense solve;
  * trajectories    a dense stacked closed loop (concrete and abstract states
                    in one vector, interface refinement folded in) stepped
                    under synchronised switching; along it the composed
                    V = sum_p mu_p e_p' M_p[s] e_p with e_p = x_p - P_p xhat_p,
                    and from V the envelope margin and one-step decrease
                    slack that ``simulate`` reports.

Comparisons use tolerances, never bytes: a batched engine may change
rounding at the 1e-15 level.
"""

from __future__ import annotations

import json

import numpy as np

GAIN_RTOL = 1e-9
TRAJ_RTOL = 1e-9
# the program's radius is a power-iteration estimate (successive estimates
# within 1e-8), so it is compared more loosely than closed-form quantities
RADIUS_RTOL = 1e-6
# construct_mu's feasibility margin and bisection width
MU_MARGIN = 1e-6
MU_RTOL = 1e-6
DENSE_LIMIT = 1000


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _close(what, got, want, rtol, scale=None):
    scale = max(abs(want), 1.0) if scale is None else scale
    if not abs(float(got) - float(want)) <= rtol * scale:
        raise CheckFailed(f"{what}: got {float(got)!r}, reference {float(want)!r} (rtol {rtol:g})")


def _require(what, ok):
    if not ok:
        raise CheckFailed(what)


def _blocks(raw):
    return {int(k): (int(v[0]), int(v[1])) for k, v in raw.items()}


def _matrix(rows):
    a = np.array(rows, dtype=float)
    return a.reshape(len(rows), 0) if a.ndim == 1 else a


def _modes(entry):
    modes = []
    for m in entry["modes"]:
        modes.append({
            **{k: _matrix(m[k]) for k in "ABCD"},
            "out": _blocks(m.get("out_blocks", entry.get("out_blocks"))),
            "in": _blocks(m.get("in_blocks", entry.get("in_blocks"))),
        })
    return modes


class Model:
    """A network file and its certificate file, as plain arrays."""

    def __init__(self, net_path, certs_path):
        with open(net_path, encoding="utf-8") as fh:
            net = json.load(fh)
        with open(certs_path, encoding="utf-8") as fh:
            certs = {int(c["id"]): c for c in json.load(fh)["certificates"]}
        self.ids = [int(e["id"]) for e in net["subsystems"]]
        self.pos = {i: p for p, i in enumerate(self.ids)}
        self.concrete = [_modes(e) for e in net["subsystems"]]
        self.abstract = [_modes(e) for e in net["abstract_subsystems"]]
        self.certs = []
        for i in self.ids:
            c = certs[i]
            keys = sorted(c["M"], key=int)
            r = len(keys)
            pairs = c.get("transitions") or [(s, s2) for s in range(r) for s2 in range(r)]
            self.certs.append({
                **{f: [np.array(c[f][k], dtype=float) for k in keys] for f in "MKQRT"},
                "P": np.array(c["P"], dtype=float),
                "kappa": float(c["kappa"]),
                "pairs": [tuple(p) for p in pairs],
            })
        self.n = len(self.ids)
        self.edges = sorted(
            {(j, i) for i, modes in zip(self.ids, self.concrete)
             for m in modes for j, (lo, hi) in m["in"].items() if hi > lo}
        )
        self._gains = None

    def gains(self):
        """Per-node (rho_int, rho_ext, lambda) from the certificate definitions."""
        if self._gains is None:
            rho_int, rho_ext = np.zeros(self.n), np.zeros(self.n)
            cache = {}
            for p in range(self.n):
                cert, conc, abst = self.certs[p], self.concrete[p], self.abstract[p]
                for s, s2 in cert["pairs"]:
                    m = cert["M"][s2]
                    key = m.tobytes()  # M is square, so its bytes fix its shape
                    if key not in cache:
                        w, v = np.linalg.eigh(0.5 * (m + m.T))
                        cache[key] = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
                    sq = cache[key]
                    mismatch = conc[s]["B"] @ cert["R"][s] - cert["P"] @ abst[s]["B"]
                    rho_int[p] = max(rho_int[p], 3.0 * _norm2(sq @ conc[s]["D"]) ** 2)
                    rho_ext[p] = max(rho_ext[p], 3.0 * _norm2(sq @ mismatch) ** 2)
            lam = np.array([c["kappa"] for c in self.certs])
            self._gains = (rho_int, rho_ext, lam)
        return self._gains

    def gain_edges(self):
        """Mode-robust coupling gains gamma[i, j] = rho_int_i * |in_s(i)| (alpha = 1),
        maximised over modes, as (rows, cols, values) position arrays."""
        rho_int, _, _ = self.gains()
        gamma = {}
        for p, modes in enumerate(self.concrete):
            for m in modes:
                fan_in = [j for j, (lo, hi) in m["in"].items() if hi > lo]
                for j in fan_in:
                    key = (p, self.pos[j])
                    gamma[key] = max(gamma.get(key, 0.0), rho_int[p] * len(fan_in))
        keys = sorted(gamma)
        rows = np.array([k[0] for k in keys], dtype=np.intp)
        cols = np.array([k[1] for k in keys], dtype=np.intp)
        return rows, cols, np.array([gamma[k] for k in keys])


def _norm2(a):
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def collatz_wielandt(rows, cols, vals, n, width=1e-12, max_iter=200_000):
    """Bracket (lo, hi) with lo <= rho(A) <= hi for the nonnegative A given by
    its entries; iterates on A + I from the all-ones vector, so the bracket
    also closes on periodic graphs."""
    v = np.ones(n)
    for _ in range(max_iter):
        w = np.bincount(rows, vals * v[cols], minlength=n) + v
        ratio = w / v
        lo, hi = float(ratio.min()) - 1.0, float(ratio.max()) - 1.0
        if hi - lo <= width * (1.0 + hi):
            break
        v = w / w.max()
    return lo, hi


def spectral_radius(rows, cols, vals, n):
    """(lo, hi) bracket on the radius: exact (lo == hi) by dense eigenvalues up
    to DENSE_LIMIT nodes, Collatz-Wielandt above."""
    if n <= DENSE_LIMIT:
        dense = np.zeros((n, n))
        dense[rows, cols] = vals
        r = float(np.abs(np.linalg.eigvals(dense)).max())
        return r, r
    return collatz_wielandt(rows, cols, vals, n)


def check_validate(report, model):
    _require("validate: valid", report.get("valid") is True)
    _require("validate: node count", report.get("nodes") == model.n)
    _require("validate: abstraction flag", report.get("has_abstraction") is True)
    got = [tuple(e) for e in report.get("edges", [])]
    _require("validate: edge list differs from the block wiring", got == model.edges)


def check_verify(report, model):
    _require("verify: ok", report.get("ok") is True)
    rows = report.get("nodes", [])
    _require("verify: one row per node", [r["id"] for r in rows] == model.ids)
    rho_int, rho_ext, lam = model.gains()
    for p, row in enumerate(rows):
        node = f"verify: node {row['id']}"
        _require(f"{node} failed {row['failures']}", not row["failures"])
        _require(f"{node} obligations", row["output_dominance"] and row["decay"] and row["structure"])
        g = row["gains"]
        _close(f"{node} alpha", g["alpha"], 1.0, GAIN_RTOL)
        _close(f"{node} lambda", g["lambda"], lam[p], GAIN_RTOL)
        _close(f"{node} rho_int", g["rho_int"], rho_int[p], GAIN_RTOL)
        _close(f"{node} rho_ext", g["rho_ext"], rho_ext[p], GAIN_RTOL)


def check_compose(report, model):
    """Radius, loading statistic, lambda_inf and mu-derived fields of compose.

    Returns (mu, lambda_inf): mu recomputed by a dense solve at the reported
    lambda_inf, which the checks above have shown feasible and maximal.
    """
    _require("compose: satisfied", report.get("satisfied") is True)
    rows, cols, gamma = model.gain_edges()
    _, rho_ext, lam = model.gains()
    n = model.n
    lo, hi = spectral_radius(rows, cols, gamma / lam[rows], n)
    got = report["radius_or_bound"]
    _require(
        f"compose: radius {got!r} outside reference [{lo!r}, {hi!r}] (rtol {RADIUS_RTOL:g})",
        lo * (1 - RADIUS_RTOL) <= got <= hi * (1 + RADIUS_RTOL),
    )
    colsum = np.bincount(cols, gamma, minlength=n).max()
    _close("compose: assumption4_stat", report["assumption4_stat"], colsum, GAIN_RTOL)

    lam_inf = report["lambda_inf"]
    _require("compose: lambda_inf in (0, min lambda)", 0.0 < lam_inf < lam.min())

    def radius_at(x):
        return collatz_wielandt(rows, cols, gamma / (lam[cols] - x), n, width=1e-10)

    _require("compose: lambda_inf infeasible (weighted radius >= 1)", radius_at(lam_inf)[1] < 1.0)
    above = lam_inf + 3 * MU_MARGIN
    if above < lam.min():
        _require(
            "compose: lambda_inf not maximal within the bisection width",
            radius_at(above)[0] > 1.0 - MU_MARGIN,
        )
    t_mat = np.zeros((n, n))
    t_mat[rows, cols] = gamma / (lam[cols] - lam_inf)
    mu = np.linalg.solve(np.eye(n) - t_mat.T, np.ones(n))
    _close("compose: mu_min", report["mu_min"], mu.min(), MU_RTOL)
    _close("compose: mu_max", report["mu_max"], mu.max(), MU_RTOL)
    _close("compose: alpha_total", report["alpha_total"], mu.min(), MU_RTOL)
    _close("compose: rho_ext_coeff", report["rho_ext_coeff"], mu.max() * rho_ext.max(), MU_RTOL)
    return mu, lam_inf


def _stacked_loops(model, r):
    """One dense closed-loop matrix per synchronised mode over z = [x; xhat],
    with the abstract controller uhat = 0 of ``simnet simulate``."""
    nx = [c[0]["A"].shape[0] for c in model.concrete]
    nh = [a[0]["A"].shape[0] for a in model.abstract]
    ox = np.concatenate(([0], np.cumsum(nx))).astype(int)
    oh = np.concatenate(([ox[-1]], ox[-1] + np.cumsum(nh))).astype(int)
    size = int(oh[-1])
    loops = []
    for s in range(r):
        z = np.zeros((size, size))
        for p in range(model.n):
            cm, am, cert = model.concrete[p][s], model.abstract[p][s], model.certs[p]
            xs, hs = slice(ox[p], ox[p + 1]), slice(oh[p], oh[p + 1])
            b, k, pm = cm["B"], cert["K"][s], cert["P"]
            z[xs, xs] += cm["A"] + b @ k
            z[xs, hs] += b @ (cert["Q"][s] - k @ pm)
            z[hs, hs] += am["A"]
            for j, (lo, hi) in cm["in"].items():
                if hi <= lo:
                    continue
                q = model.pos[j]
                r0, r1 = model.concrete[q][s]["out"][model.ids[p]]
                xq, hq = slice(ox[q], ox[q + 1]), slice(oh[q], oh[q + 1])
                z[xs, xq] += cm["D"][:, lo:hi] @ model.concrete[q][s]["C"][r0:r1]
                c_hat = model.abstract[q][s]["C"][r0:r1]
                z[xs, hq] += b @ cert["T"][s][:, lo:hi] @ c_hat
                z[hs, hq] += am["D"][:, lo:hi] @ c_hat
        loops.append(z)
    return loops, ox, oh


def reference_run(model, seed, horizon, period, mu):
    """Per-step (error_norm, V, external outputs) of the lockstep run.

    Initial states are drawn as the program documents them: one uniform
    [-1, 1] vector per concrete node, then one per abstract node, from
    numpy's default_rng(seed).  All nodes switch together through modes
    0..r-1, one every ``period`` steps.
    """
    r = len(model.concrete[0])
    loops, ox, oh = _stacked_loops(model, r)
    rng = np.random.default_rng(seed)
    x0 = [rng.uniform(-1, 1, c[0]["A"].shape[0]) for c in model.concrete]
    h0 = [rng.uniform(-1, 1, a[0]["A"].shape[0]) for a in model.abstract]
    z = np.concatenate(x0 + h0)
    errors, values, outputs = [], [], []
    for k in range(horizon + 1):
        s = (k // period) % r
        err_sq, v, y = 0.0, 0.0, []
        for p in range(model.n):
            x, xh = z[ox[p]:ox[p + 1]], z[oh[p]:oh[p + 1]]
            lo, hi = model.concrete[p][s]["out"][model.ids[p]]
            yc = model.concrete[p][s]["C"][lo:hi] @ x
            ya = model.abstract[p][s]["C"][lo:hi] @ xh
            err_sq += float(np.sum((yc - ya) ** 2))
            e = x - model.certs[p]["P"] @ xh
            v += mu[p] * max(float(e @ model.certs[p]["M"][s] @ e), 0.0)
            y.extend(yc)
        errors.append(np.sqrt(err_sq))
        values.append(v)
        outputs.append(y)
        z = loops[s] @ z
    return np.array(errors), np.array(values), np.array(outputs)


def check_run(csv_text, report, model, seed, horizon, period, composed):
    """The run CSV and the report's error, V and check fields against the
    stacked loop; ``composed`` is the (mu, lambda_inf) from check_compose."""
    _require(f"{report.get('command')}: ok", report.get("ok") is True)
    _require("simulate: bound_ok", report.get("bound_ok") is True)
    _require("simulate: v_decrease_ok", report.get("v_decrease_ok") is True)
    mu, lam_inf = composed
    lines = csv_text.strip().split("\n")
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    _require("run CSV: one row per step", table.shape[0] == horizon + 1)
    errors, values, outputs = reference_run(model, seed, horizon, period, mu)
    _require("run CSV: output columns", table.shape[1] == 4 + outputs.shape[1])
    scale = max(1.0, float(errors.max()))
    # mu comes from a dense solve, not the program's own, so each V carries
    # mu's MU_RTOL agreement, plus the trajectory's TRAJ_RTOL of the run's
    # peak: the states decay by dozens of orders, down to rounding level
    v_scale = max(1.0, float(values.max()))
    for k in range(horizon + 1):
        _close(f"run CSV: error_norm at step {k}", table[k, 1], errors[k], TRAJ_RTOL, scale)
        _close(f"run CSV: V at step {k}", table[k, 2], values[k], MU_RTOL,
               values[k] + TRAJ_RTOL / MU_RTOL * v_scale)
        _require(f"run CSV: u_hat_norm at step {k}", table[k, 3] == 0.0)
    y_scale = max(1.0, float(np.abs(outputs).max()))
    worst = float(np.abs(table[:, 4:] - outputs).max()) if outputs.size else 0.0
    _require(f"run CSV: external outputs off by {worst:.3e}", worst <= TRAJ_RTOL * y_scale)
    _close("report: error_initial", report["error_initial"], errors[0], TRAJ_RTOL, scale)
    _close("report: error_final", report["error_final"], errors[-1], TRAJ_RTOL, scale)
    # with uhat = 0 the envelope is alpha^(-1/2) (1 - lambda_inf)^(k/2) sqrt(V0),
    # alpha = mu_min (every node's alpha is 1), plus simulate's 1e-9 slack
    steps = np.arange(horizon + 1)
    envelope = (mu.min() ** -0.5 * (1.0 - lam_inf) ** (steps / 2) * np.sqrt(values[0]) + 1e-9)
    _close("report: worst_bound_margin", report["worst_bound_margin"],
           (envelope - errors).min(), MU_RTOL, max(1.0, float(envelope.max())))
    slack = values[1:] - values[:-1] + lam_inf * values[:-1] - 1e-9 * (1.0 + values[:-1])
    _close("report: worst_decrease_slack", report["worst_decrease_slack"],
           slack.max(), MU_RTOL, v_scale)
