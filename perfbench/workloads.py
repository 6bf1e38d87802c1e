"""Workload definitions: reduced configs of the shipped network, observables, checks.

Each workload is one call into a library entry point that the CLI uses
(``cli.run_pipeline`` or ``cli.run_verify``) on a config merged over
``cli.DEFAULT_CONFIG``.  The benchmark seed goes into config ``seed``; in these
entry points it only drives sampling (the excluded-measure Monte Carlo in the
dc-scan and the invariance-defect start points in verify).

This module is imported by the worker (with kamforge importable) and by the
runner (without it); only ``config``, ``config_hash``, ``prepare`` and ``observe``
touch kamforge.
"""

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
FIXTURE_DIR = os.path.join(HERE, "fixtures")
CERTIFY_TORUS = os.path.join(FIXTURE_DIR, "kam_active_torus.json")
CERTIFY_META = os.path.join(FIXTURE_DIR, "kam_active_torus.meta.json")

# Invariant: kam.K_cap >= normal_form.K_cap (kam_step raises an aliasing
# ValueError otherwise).
CONSTRUCT = {
    "dc": {"scan_grid": 11, "K_check": 50},
    "normal_form": {"m0": 2, "K0": 5, "K_cap": 5, "base_grid": 32},
    "kam": {"K_cap": 5},
    "torus": {"n_phi": 8, "n_t": 8},
}
KAM_ACTIVE = {
    "dc": {"scan_grid": 11, "K_check": 50},
    "normal_form": {"m0": 1, "K0": 4, "K_cap": 5, "base_grid": 32},
    "kam": {"K_cap": 7},
    "torus": {"n_phi": 8, "n_t": 8},
}
CERTIFY_VERIFY = {"T_check": 2.0, "T_long": 50.0}

WORKLOADS = {
    "construct": {"entry": "pipeline", "overrides": CONSTRUCT},
    "kam_active": {"entry": "pipeline", "overrides": KAM_ACTIVE},
    "certify": {"entry": "verify",
                "overrides": dict(KAM_ACTIVE, verify=CERTIFY_VERIFY)},
}

# Fixed (phi_1, phi_2, t) points at which every written torus is sampled.
TORUS_POINTS = [[0.1 + 0.7 * i, 2.9 - 0.45 * i, 0.37 * i] for i in range(12)]

# Tolerances.  Quantities at the roundoff floor get a ceiling, never a
# relative match, so a reordered sum does not count as a failure.
TOL_POINT = 1e-12         # dc grid point, absolute
TOL_OMEGA = 1e-12         # frequency vector, relative
TOL_TORUS = 1e-9          # torus samples (angles in rad, actions), absolute
TOL_NORM = 1e-8           # norms above the roundoff floor, relative
FLOOR_CEILING = 20.0      # floor quantities may grow to this multiple of the reference
TOL_CERT = 1e-8           # action variation, rotation error, recorded defects, relative
DEFECT_CEILING = 3.0      # unrecorded seeds: defect <= this multiple of the largest recorded


def config(name, seed):
    """Merged config for a workload (imports kamforge)."""
    from kamforge import cli
    return cli.load_config(None, dict(WORKLOADS[name]["overrides"], seed=int(seed)))


def config_hash(cfg):
    """Hash of a merged config without its ``seed``, which each run sets itself."""
    from kamforge import util
    return util.config_hash({k: v for k, v in cfg.items() if k != "seed"})


def prepare(name, cfg, out_dir):
    """Zero-argument callable doing the timed work: the entry point writing artifacts."""
    from kamforge import cli
    os.makedirs(out_dir, exist_ok=True)
    if WORKLOADS[name]["entry"] == "pipeline":
        return lambda: cli.run_pipeline(cfg, out_dir=out_dir)
    if not os.path.exists(CERTIFY_TORUS):
        raise FileNotFoundError(f"missing certify fixture {CERTIFY_TORUS}")
    return lambda: cli.run_verify(cfg, out_dir, torus_path=CERTIFY_TORUS)


def observe(name, out_dir):
    """Read the artifacts a run wrote and extract the checked quantities."""
    import numpy as np
    from kamforge import cli

    def load(fname):
        with open(os.path.join(out_dir, fname)) as fh:
            return json.load(fh)

    if WORKLOADS[name]["entry"] == "verify":
        v = load("verify.json")
        return {
            "defect": float(v["defect"]),
            "action_variation": float(v["action_variation"]),
            "rotation_rel_err": float(v["rotation_rel_err"]),
            "escaped": bool(v["escaped"]),
            "orbit_rows": _csv_rows(os.path.join(out_dir, "orbit.csv")),
        }
    s = load("summary.json")
    dc = load("dc_point.json")
    torus = cli.load_torus(os.path.join(out_dir, "torus.json"))
    pts = np.asarray(TORUS_POINTS)
    return {
        "dc_point": [float(x) for x in s["I0"]],
        "nf_steps": int(s["nf_steps"]),
        "kam_steps": int(s["kam_steps"]),
        "nf_angle_norm": float(s["nf_angle_norm"]),
        "kam_low_norm": float(s["kam_low_norm"]),
        "omega": [float(w) for w in torus.omega],
        "torus_angles": torus.angles(pts[:, :2], pts[:, 2]).tolist(),
        "torus_actions": torus.actions(pts[:, :2], pts[:, 2]).tolist(),
        "excluded_fraction": float(dc["excluded_fraction"]),
    }


def _csv_rows(path):
    with open(path) as fh:
        return sum(1 for line in fh if line and not line.startswith("#")) - 1


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def _max_abs(a, b):
    fa, fb = _flat(a), _flat(b)
    if len(fa) != len(fb):
        return math.inf
    return max((abs(x - y) for x, y in zip(fa, fb)), default=0.0)


def _flat(x):
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flat(item)]
    return [float(x)]


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


def check(name, obs, ref, seed, cfg_kam_tol):
    """List of (check name, passed, detail) for one run's observables."""
    out = []

    def add(check_name, ok, detail):
        out.append((check_name, bool(ok), detail))

    if WORKLOADS[name]["entry"] == "verify":
        for key in ("action_variation", "rotation_rel_err"):
            r = _rel(obs[key], ref[key])
            add(key, r <= TOL_CERT, f"{obs[key]:.10g} vs {ref[key]:.10g} (rel {r:.1e})")
        by_seed = ref["defect_by_seed"]
        ceiling = DEFECT_CEILING * max(by_seed.values())
        ok = 0 < obs["defect"] <= ceiling
        detail = f"{obs['defect']:.6g} <= {ceiling:.6g}"
        if str(seed) in by_seed:
            r = _rel(obs["defect"], by_seed[str(seed)])
            ok = ok and r <= TOL_CERT
            detail += f", recorded {by_seed[str(seed)]:.10g} (rel {r:.1e})"
        add("defect", ok, detail)
        add("escaped", obs["escaped"] is False, f"escaped={obs['escaped']}")
        add("orbit_rows", obs["orbit_rows"] == ref["orbit_rows"],
            f"{obs['orbit_rows']} vs {ref['orbit_rows']}")
        return out

    d = _max_abs(obs["dc_point"], ref["dc_point"])
    add("dc_point", d <= TOL_POINT, f"{obs['dc_point']} (max dev {d:.1e})")
    add("nf_steps", obs["nf_steps"] == ref["nf_steps"], f"{obs['nf_steps']} vs {ref['nf_steps']}")
    add("kam_steps", obs["kam_steps"] == ref["kam_steps"],
        f"{obs['kam_steps']} vs {ref['kam_steps']}")
    r = max(_rel(a, b) for a, b in zip(obs["omega"], ref["omega"]))
    add("omega", r <= TOL_OMEGA, f"max rel dev {r:.1e}")
    add("kam_low_norm", obs["kam_low_norm"] <= cfg_kam_tol,
        f"{obs['kam_low_norm']:.3e} <= kam.tol {cfg_kam_tol:.1e}")
    if ref["nf_angle_norm_at_floor"]:
        ceiling = FLOOR_CEILING * ref["nf_angle_norm"]
        add("nf_angle_norm", obs["nf_angle_norm"] <= ceiling,
            f"{obs['nf_angle_norm']:.3e} <= ceiling {ceiling:.3e}")
    else:
        r = _rel(obs["nf_angle_norm"], ref["nf_angle_norm"])
        add("nf_angle_norm", r <= TOL_NORM, f"{obs['nf_angle_norm']:.10g} (rel {r:.1e})")
    d = max(_max_abs(obs["torus_angles"], ref["torus_angles"]),
            _max_abs(obs["torus_actions"], ref["torus_actions"]))
    add("torus_samples", d <= TOL_TORUS, f"max abs dev {d:.1e} at {len(TORUS_POINTS)} points")
    return out


# Per-layer metrics that must read nonzero on the workload that loads their
# layer most: a zero means a wrapper missed a call path (or the workload lost
# its character), so the traced run counts it as a failed check.
COVERAGE = {
    "construct": [
        "fourier.compose_shifted_grid.calls", "fourier.compose_shifted_grid.to_grid_per_call",
        "fourier.to_grid.calls", "fourier.ifftn.calls", "fourier.ifftn.bytes",
        "fourier.fftn.calls", "fourier.fftn.bytes", "fourier.from_grid.calls",
        "fourier.from_grid.max_projection_residual", "fourier.evaluate.calls",
        "fourier.evaluate.point_modes",
        "normal_form.run_normal_form.total_s", "normal_form.push_forward.calls",
        "normal_form.solve_fixed_point.calls", "normal_form.solve_fixed_point.iters",
        "normal_form.solve_homological.calls", "normal_form.time_average_transform.total_s",
        "normal_form.twist_compose.total_s", "normal_form.locate_expansion_point.total_s",
        "normal_form.taylor_split.total_s",
        "diophantine.find_dc_point.self_s", "diophantine.excluded_measure.total_s",
        "diophantine._margins_for.calls", "diophantine.frequencies",
        "diophantine.mode_checks",
        "duffing.to_hamiltonian_spec.total_s", "duffing.to_hamiltonian_spec.from_grid_calls",
        "oscillator.ActionAngleMap.total_s",
        "cli.save_torus.total_s", "util.write_csv.total_s", "cli.artifact_bytes",
    ],
    "kam_active": [
        "kam.kam_iterate.total_s", "kam.kam_step.calls", "kam.kam_step.self_s",
        "kam.kam_step.total_s", "kam.cubic_contraction.total_s", "kam.extract_torus.total_s",
        "fourier.compose_shifted_grid.calls", "normal_form.solve_fixed_point.iters",
        "normal_form.solve_homological.calls",
    ],
    "certify": [
        "kam.invariance_defect.total_s", "duffing.integrate.calls", "duffing.integrate.steps",
        "duffing.potential_gradient.calls", "duffing.potential_gradient.us_per_call",
        "duffing.us_per_step", "oscillator.from_cartesian.total_s", "fourier.evaluate.calls",
        "util.write_csv.total_s", "cli.artifact_bytes",
    ],
}
