"""Experiment runner: frequency selection, pipeline, verification, and measure scans.

Subcommands
-----------
period     print the reference period T0 for a nonlinearity exponent n
dc-scan    scan the action box for the best Diophantine point, export margins
pipeline   run the whole chain and export diagnostics plus the torus file
verify     check an exported torus against the integrated network
measure    estimate excluded-frequency fractions for a sequence of gammas

``DEFAULT_CONFIG`` holds every default setting of the package; the library
functions take these settings as arguments.  Configuration is a JSON file
merged over it, and command-line flags override file values; a key that
``DEFAULT_CONFIG`` does not declare is rejected.  Exit codes: 0 success,
2 Diophantine failure, 3 contraction failure, 4 escape, 1 anything else.
"""

import argparse
import copy
import json
import os
import sys

import numpy as np

from .diophantine import DiophantineParams, excluded_measure, find_dc_point, margin_map_csv
from .duffing import (DuffingNetwork, ScaledSystem, chart_orbit, integrate,
                      rotation_vector, stability_metrics, to_hamiltonian_spec)
from .errors import ContractionError, EscapeError, SmallDivisorError
from .fourier import FourierField
from .kam import KamParams, TorusEmbedding, extract_torus, invariance_defect, kam_iterate
from .normal_form import (NormalFormParams, locate_expansion_point, run_normal_form,
                          taylor_split, time_average_transform)
from .oscillator import ActionAngleMap, compute_period
from .util import config_hash, fmt_float, write_csv

DEFAULT_CONFIG = {
    "seed": 0,
    "system": {
        "m": 2,
        "n": 1,
        "amplitude": 10.0,
        "terms": [
            {"alpha": [1, 1], "modes": [{"l": -1, "re": 2.5e-05, "im": 0.0},
                                        {"l": 1, "re": 2.5e-05, "im": 0.0}]},
            {"alpha": [2, 0], "modes": [{"l": 0, "re": 5.0e-05, "im": 0.0}]},
            {"alpha": [2, 1], "modes": [{"l": -2, "re": 2.5e-05, "im": 0.0},
                                        {"l": 2, "re": 2.5e-05, "im": 0.0}]},
        ],
    },
    "action_box": [[1.0, 1.0], [1.5, 1.5]],
    "dc": {"gamma": 2.0e-3, "K_split": 28, "K_check": 120, "scan_grid": 21},
    "normal_form": {"m0": 3, "s0": 0.35, "tau0": 2.0e-3, "K0": 8, "K_cap": 16,
                    "n_nodes": 5, "base_grid": 64},
    "kam": {"tol": 1.0e-12, "max_steps": 8, "K_cap": 16, "n_nodes": 5, "r0": 0.0},
    "torus": {"n_phi": 24, "n_t": 16},
    "verify": {"T_check": 100.0, "h_check": 2.5e-3, "n_samples": 8,
               "T_long": 1.0e4, "h_long": 2.5e-2, "sample_every": 8,
               "escape": 1.0e8},
    "measure": {"box": [[1.0, 1.0], [2.0, 2.0]], "gamma0": 4.0e-3, "halvings": 2,
                "n_samples": 10000, "eps": 1.0, "a": 1.0,
                "K_split": 40, "K_check": 80},
}
# Exit code of each typed failure; any other exception exits 1.
EXIT_CODES = {SmallDivisorError: 2, ContractionError: 3, EscapeError: 4}


def merge_config(base, override):
    """Recursively merge ``override`` into a deep copy of ``base``."""
    out = copy.deepcopy(base)
    for key, val in (override or {}).items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _check_keys(cfg, ref, prefix):
    """Raise ValueError naming the first dotted key of ``cfg`` that ``ref`` does not declare.

    A key that ``ref`` declares as an object must be an object too.  Only
    dicts are walked; a list such as ``system.terms`` is one value.  The one
    optional key, ``system.network_file``, replaces the inline network.
    """
    for key, val in cfg.items():
        name = prefix + key
        if key not in ref and name != "system.network_file":
            raise ValueError(f"unknown config key {name}")
        if isinstance(ref.get(key), dict):
            if not isinstance(val, dict):
                raise ValueError(f"config key {name} must be an object, got {val!r}")
            _check_keys(val, ref[key], name + ".")


def load_config(path=None, overrides=None):
    """Resolve the experiment configuration.

    Parameters
    ----------
    path : str, optional
        JSON file merged over the defaults.  The top-level ``config_hash``
        that ``run_pipeline`` writes into config.json is dropped, so a
        written config reloads to the same hash.
    overrides : dict, optional
        Final layer, typically from command-line flags.
    """
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        loaded.pop("config_hash", None)
        cfg = merge_config(cfg, loaded)
    if overrides:
        cfg = merge_config(cfg, overrides)
    _check_keys(cfg, DEFAULT_CONFIG, "")
    if cfg["system"]["amplitude"] <= 1:
        raise ValueError("amplitude must exceed 1")
    if cfg["dc"]["gamma"] <= 0:
        raise ValueError("gamma must be positive")
    if cfg["kam"]["K_cap"] < cfg["normal_form"]["K_cap"]:
        # the KAM grid must resolve every mode of the averaged remainder
        raise ValueError("kam.K_cap must be at least normal_form.K_cap")
    if cfg["kam"]["n_nodes"] < 4:
        # fewer nodes per axis cannot hold the cubic terms of the KAM step's tail
        raise ValueError("kam.n_nodes must be at least 4")
    vc = cfg["verify"]
    for key in ("T_check", "h_check", "T_long", "h_long", "escape"):
        if not vc[key] > 0:
            raise ValueError(f"verify.{key} must be positive, got {vc[key]!r}")
    for key in ("n_samples", "sample_every"):
        if not vc[key] >= 1:
            raise ValueError(f"verify.{key} must be at least 1, got {vc[key]!r}")
    return cfg


def network_from_config(cfg):
    sysc = cfg["system"]
    if sysc.get("network_file"):
        net = DuffingNetwork.load(sysc["network_file"])
    else:
        net = DuffingNetwork.from_json_dict(
            {"m": sysc["m"], "n": sysc["n"], "terms": sysc["terms"]})
    return net, ScaledSystem(net, float(sysc["amplitude"]))


def _dc_params(cfg, d, eps, a):
    dcc = cfg["dc"]
    return DiophantineParams(d=d, gamma=float(dcc["gamma"]), eps=eps, a=a,
                             K_split=int(dcc["K_split"]), K_check=int(dcc["K_check"]))


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def save_torus(torus, path):
    _json_dump({
        "omega": [fmt_float(w) for w in torus.omega],
        "theta_dev": torus.theta_dev.to_json_dict(),
        "action": torus.action.to_json_dict(),
    }, path)


def load_torus(path):
    with open(path) as fh:
        obj = json.load(fh)
    return TorusEmbedding(
        theta_dev=FourierField.from_json_dict(obj["theta_dev"]),
        action=FourierField.from_json_dict(obj["action"]),
        omega=np.array([float(w) for w in obj["omega"]]))


def run_dc_scan(cfg, aa, out_dir=None, log=None):
    """Scan the action box for the best DC point; optionally export artifacts.

    ``aa`` is the network's action-angle chart.  Returns (point, omega,
    report, records).  Raises SmallDivisorError when no point in the scan
    satisfies the condition.
    """
    log = log or (lambda *_: None)
    net, sys_ = network_from_config(cfg)
    dcp = _dc_params(cfg, net.m, sys_.eps, float(sys_.a))
    box = cfg["action_box"]
    point, omega, report, records = find_dc_point(
        aa.omega, box, dcp, grid=int(cfg["dc"]["scan_grid"]))
    chash = config_hash(cfg)
    log(f"dc-scan: best point {point} margin {report.margin:.4g} "
        f"(checked {report.n_checked} modes)")
    if out_dir is not None:
        margin_map_csv(os.path.join(out_dir, "dc_margins.csv"), records,
                       net.m, dcp.d, comment=f"config {chash}")
        lo = np.minimum(omega, aa.omega(np.asarray(box[0], dtype=float)[None, :])[0])
        hi = np.maximum(omega, aa.omega(np.asarray(box[1], dtype=float)[None, :])[0])
        frac, half = excluded_measure(dcp, (lo, hi), n_samples=4000,
                                      seed=int(cfg["seed"]))
        _json_dump({
            "point": [fmt_float(x) for x in point],
            "omega": [fmt_float(w) for w in omega],
            "margin": fmt_float(report.margin),
            "worst_mode": list(report.worst_mode),
            "n_checked": report.n_checked,
            "ok": report.ok,
            "excluded_fraction": fmt_float(frac),
            "excluded_half_width": fmt_float(half),
        }, os.path.join(out_dir, "dc_point.json"))
    if not report.ok:
        raise SmallDivisorError(
            f"no Diophantine point in the box: best margin {report.margin:.4g} < 1",
            mode=report.worst_mode)
    return point, omega, report, records


def run_pipeline(cfg, out_dir=None, log=None):
    """Run the full construction and return the intermediate objects.

    Writes (when ``out_dir`` is given): config.json, dc_margins.csv,
    dc_point.json, nf_diagnostics.csv, kam_diagnostics.csv, torus.json,
    summary.json.
    """
    log = log or (lambda *_: None)
    chash = config_hash(cfg)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _json_dump(merge_config(cfg, {"config_hash": chash}),
                   os.path.join(out_dir, "config.json"))
    net, sys_ = network_from_config(cfg)
    aa = ActionAngleMap(net.n, net.m)
    I0, omega0, report, _ = run_dc_scan(cfg, aa, out_dir=out_dir, log=log)

    nfc = cfg["normal_form"]
    spec = to_hamiltonian_spec(sys_, aa, I0, float(nfc["tau0"]),
                               n_nodes=int(nfc["n_nodes"]), s0=float(nfc["s0"]),
                               K0=int(nfc["K_cap"]), base_grid=int(nfc["base_grid"]))
    dcp = _dc_params(cfg, net.m, sys_.eps, float(sys_.a))
    nfp = NormalFormParams(dc=dcp, m0=int(nfc["m0"]), K0=int(nfc["K0"]),
                           K_cap=int(nfc["K_cap"]))
    nf = run_normal_form(spec, nfp)
    log(f"pipeline: normal form done, angle norm {nf.angle_norm():.4g}")

    avg = time_average_transform(nf, spec, nfp)
    I_star, residual = locate_expansion_point(avg, spec)
    drift = float(np.abs(I_star - I0).max())
    r0 = float(cfg["kam"]["r0"])
    if r0 <= 0:
        tau = nf.grid.tau
        r0 = min(spec.eps ** (2 * spec.b), tau / 4, 0.5 * (tau - drift))
    kam0 = taylor_split(avg, spec, I_star, r0, kam_nodes=int(cfg["kam"]["n_nodes"]))
    log(f"pipeline: expansion point {I_star} (moved {drift:.3g}, ball {r0:.3g})")

    kp = KamParams(dc=dcp, tol=float(cfg["kam"]["tol"]),
                   max_steps=int(cfg["kam"]["max_steps"]),
                   K_cap=int(cfg["kam"]["K_cap"]))
    kam = kam_iterate(kam0, kp)
    log(f"pipeline: kam stopped after {kam.m} steps, low norm {kam.low_norm():.4g}")

    torus = extract_torus(kam, n_phi=int(cfg["torus"]["n_phi"]), n_t=int(cfg["torus"]["n_t"]))
    log(f"pipeline: torus extracted ({torus.theta_dev.n_modes} angle modes)")

    if out_dir is not None:
        rows, factors = [], []
        prev = None
        for row in nf.diagnostics:
            cur = row["R_angle_norm"]
            factors.append("" if (prev is None or prev == 0) else fmt_float(cur / prev))
            prev = cur
            rows.append(list(row.values()))
        cols = list(nf.diagnostics[0].keys()) + ["decay_factor"]
        write_csv(os.path.join(out_dir, "nf_diagnostics.csv"), cols,
                  [r + [f] for r, f in zip(rows, factors)], comment=f"config {chash}")
        write_csv(os.path.join(out_dir, "kam_diagnostics.csv"),
                  list(kam.diagnostics[0].keys()),
                  [list(r.values()) for r in kam.diagnostics],
                  comment=f"config {chash}")
        save_torus(torus, os.path.join(out_dir, "torus.json"))
        _json_dump({
            "config_hash": chash,
            "I0": [fmt_float(x) for x in I0],
            "omega0": [fmt_float(w) for w in omega0],
            "dc_margin": fmt_float(report.margin),
            "I_star": [fmt_float(x) for x in I_star],
            "newton_residual": fmt_float(float(np.abs(residual).max())),
            "r0": fmt_float(r0),
            "nf_steps": len(nf.changes),
            "nf_angle_norm": fmt_float(nf.angle_norm()),
            "kam_steps": kam.m,
            "kam_low_norm": fmt_float(kam.low_norm()),
            "torus_modes": {"theta_dev": torus.theta_dev.n_modes,
                            "action": torus.action.n_modes},
        }, os.path.join(out_dir, "summary.json"))
    return {
        "net": net, "system": sys_, "chart": aa, "dc": dcp, "I0": I0,
        "omega0": omega0, "dc_report": report, "spec": spec, "nf": nf,
        "avg": avg, "I_star": I_star, "r0": r0, "kam0": kam0, "kam": kam,
        "torus": torus,
    }


def make_chart(aa):
    """Map (theta, I) batches to scaled phase-space states (x_1..x_m, y_1..y_m)."""
    def chart(theta, I):
        x, y = aa.to_cartesian(theta, I)
        return np.concatenate([np.atleast_2d(x), np.atleast_2d(y)], axis=-1)
    return chart


def make_flow(sys_, h, escape):
    """Return flow(states, t0, T) integrating the original network in scaled coordinates."""
    net = sys_.net
    m = net.m

    def flow(z, t0, T):
        z = np.atleast_2d(z)
        X, V = sys_.to_original(z[..., :m], z[..., m:])
        nsteps = max(1, int(np.ceil(float(T) / h)))
        traj = integrate(net, X, V, np.asarray(t0, dtype=float), float(T),
                         float(T) / nsteps, sample_every=nsteps, escape=escape)
        x1, y1 = sys_.to_scaled(traj.x[-1], traj.v[-1])
        return np.concatenate([x1, y1], axis=-1)

    return flow


def run_verify(cfg, out_dir, torus_path=None, log=None):
    """Check a stored torus: invariance defect, long-orbit stability, rotation.

    Writes verify.json and orbit.csv into ``out_dir``, which it creates;
    raises EscapeError if the long orbit leaves the configured bound.  A
    sample spacing too coarse to track the rotation raises ValueError before
    anything is integrated.
    """
    log = log or (lambda *_: None)
    os.makedirs(out_dir, exist_ok=True)
    vc = cfg["verify"]
    chash = config_hash(cfg)
    torus = load_torus(torus_path or os.path.join(out_dir, "torus.json"))
    h = float(vc["h_long"])
    every = int(vc["sample_every"])
    if h * every * float(np.abs(torus.omega).max()) >= np.pi:
        raise ValueError("sample spacing too coarse to track the rotation; "
                         "lower verify.h_long * verify.sample_every")
    net, sys_ = network_from_config(cfg)
    aa = ActionAngleMap(net.n, net.m)
    m = net.m

    defect = invariance_defect(
        torus, make_flow(sys_, float(vc["h_check"]), escape=float(vc["escape"])),
        make_chart(aa), float(vc["T_check"]),
        n_samples=int(vc["n_samples"]), seed=int(cfg["seed"]))
    log(f"verify: invariance defect {defect:.4g} over T={vc['T_check']}")
    if not np.isfinite(defect):
        raise EscapeError("a sampled torus orbit escaped during the invariance check")

    th0 = torus.angles(np.zeros((1, m)), np.zeros(1))[0]
    I0 = torus.actions(np.zeros((1, m)), np.zeros(1))[0]
    x0, y0 = aa.to_cartesian(th0, I0)
    X0, V0 = sys_.to_original(x0, y0)
    traj = integrate(net, X0, V0, 0.0, float(vc["T_long"]), h,
                     sample_every=every, escape=float(vc["escape"]))
    theta, actions = chart_orbit(traj, sys_, aa)
    metrics = stability_metrics(traj, actions)
    rot = rotation_vector(traj, theta)
    rel = float(np.abs(rot - torus.omega).max() / np.abs(torus.omega).max())
    log(f"verify: action variation {metrics['action_variation']:.4g} over "
        f"T={vc['T_long']}, rotation error {rel:.3g} relative")

    traj.to_csv(os.path.join(out_dir, "orbit.csv"), comment=f"config {chash}")
    result = {
        "defect": fmt_float(defect),
        "T_check": fmt_float(vc["T_check"]),
        "n_samples": int(vc["n_samples"]),
        "T_long": fmt_float(vc["T_long"]),
        "sup_norm": fmt_float(metrics["sup_norm"]),
        "action_variation": fmt_float(metrics["action_variation"]),
        "rotation": [fmt_float(w) for w in rot],
        "rotation_target": [fmt_float(w) for w in torus.omega],
        "rotation_rel_err": fmt_float(rel),
        # integrate raises EscapeError, so a written orbit never escaped
        "escaped": False,
    }
    _json_dump(result, os.path.join(out_dir, "verify.json"))
    return result


def run_measure(cfg, out_dir=None, log=None):
    """Excluded-frequency fractions for gamma0 * 2^-i, i = 0..halvings.

    Writes measure.csv into ``out_dir``, when given, which it creates first.
    """
    log = log or (lambda *_: None)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    mc = cfg["measure"]
    chash = config_hash(cfg)
    rows = []
    prev = None
    for i in range(int(mc["halvings"]) + 1):
        gamma = float(mc["gamma0"]) * 0.5**i
        p = DiophantineParams(d=2, gamma=gamma, eps=float(mc["eps"]),
                              a=float(mc["a"]), K_split=int(mc["K_split"]),
                              K_check=int(mc["K_check"]))
        frac, half = excluded_measure(p, mc["box"], n_samples=int(mc["n_samples"]),
                                      seed=int(cfg["seed"]))
        factor = "" if (prev is None or prev == 0) else fmt_float(frac / prev)
        rows.append([gamma, frac, half, int(mc["n_samples"]), factor])
        log(f"measure: gamma {gamma:.5g} excludes {frac:.4f} +- {half:.4f}"
            + (f" (factor {float(factor):.3f})" if factor else ""))
        prev = frac
    if out_dir is not None:
        write_csv(os.path.join(out_dir, "measure.csv"),
                  ["gamma", "fraction", "half_width", "n_samples", "factor_vs_prev"],
                  rows, comment=f"config {chash}")
    return rows


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")
    common.add_argument("--seed", type=int, metavar="N", help="override the seed")
    scale = common.add_mutually_exclusive_group()
    scale.add_argument("--eps", type=float, metavar="X",
                       help="perturbation scale (sets amplitude = 1/eps)")
    scale.add_argument("--amplitude", type=float, metavar="A",
                       help="amplitude scale A > 1")
    common.add_argument("--gamma", type=float, metavar="G",
                        help="Diophantine constant override")
    common.add_argument("--horizon", type=float, metavar="T",
                        help="long-orbit horizon override (verify.T_long)")
    parser = argparse.ArgumentParser(
        prog="kamforge",
        description="Invariant tori for networks of forced Duffing oscillators.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_period = sub.add_parser("period", parents=[common],
                              help="print the reference period T0")
    p_period.add_argument("--n", type=int, default=None,
                          help="nonlinearity exponent (default: system.n)")
    sub.add_parser("dc-scan", parents=[common],
                   help="scan the action box for a Diophantine point")
    sub.add_parser("pipeline", parents=[common],
                   help="run the full torus construction")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="verify an exported torus")
    p_verify.add_argument("--torus", metavar="PATH",
                          help="torus file (default: OUT/torus.json)")
    p_verify.add_argument("--t-check", type=float, metavar="T",
                          help="invariance-check horizon override")
    sub.add_parser("measure", parents=[common],
                   help="excluded-measure scan over gamma halvings")
    return parser


def _overrides_from_args(args):
    over = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.eps is not None:
        if not 0 < args.eps < 1:
            raise ValueError(f"--eps must lie in (0, 1), got {args.eps:g}")
        over.setdefault("system", {})["amplitude"] = 1.0 / args.eps
    if args.amplitude is not None:
        over.setdefault("system", {})["amplitude"] = args.amplitude
    if args.gamma is not None:
        over.setdefault("dc", {})["gamma"] = args.gamma
    if args.horizon is not None:
        over.setdefault("verify", {})["T_long"] = args.horizon
    if getattr(args, "t_check", None) is not None:
        over.setdefault("verify", {})["T_check"] = args.t_check
    return over


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        if args.command == "period":
            n = cfg["system"]["n"] if args.n is None else args.n
            print(fmt_float(compute_period(n)))
            return 0
        os.makedirs(args.out, exist_ok=True)
        if args.command == "dc-scan":
            net, _ = network_from_config(cfg)
            run_dc_scan(cfg, ActionAngleMap(net.n, net.m), out_dir=args.out, log=print)
        elif args.command == "pipeline":
            run_pipeline(cfg, out_dir=args.out, log=print)
        elif args.command == "verify":
            run_verify(cfg, args.out, torus_path=args.torus, log=print)
        elif args.command == "measure":
            run_measure(cfg, out_dir=args.out, log=print)
        return 0
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
