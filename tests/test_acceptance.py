"""Acceptance gate: one quantitative check per release criterion.

Each test prints a single ``criterion N (...): PASS/FAIL`` line (run with
``pytest -s`` to see them stream) and asserts the stated tolerance.  The
full-pipeline run and the synthetic KAM iteration are shared module fixtures,
so their construction cost is paid once; the per-criterion timing reported on
each line covers the checks themselves.
"""

import os
import time

import mpmath
import numpy as np
import pytest

from kamforge import cli
from kamforge.diophantine import DiophantineParams, check_dc, find_dc_point
from kamforge.duffing import to_hamiltonian_spec
from kamforge.fourier import ActionGrid, FourierField
from kamforge.kam import KamParams, KamState, _invert_change, _jet_on_nodes, kam_step
from kamforge.normal_form import NormalFormParams, run_normal_form, solve_homological
from kamforge.oscillator import ActionAngleMap, compute_period, reference_solution

from jets import kam_hamiltonian

GOLDEN = np.array([(1 + np.sqrt(5)) / 2, 1.3247179572447460])


def report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def random_real_field(rng, d, K, n_pairs, scale=1.0, vshape=(), sym=False):
    mapping = {}
    while len(mapping) < 2 * n_pairs:
        mode = tuple(int(x) for x in rng.integers(-K, K + 1, d + 1))
        if sum(abs(x) for x in mode) == 0 or sum(abs(x) for x in mode) > K:
            continue
        if mode in mapping:
            continue
        c = scale * (rng.standard_normal(vshape) + 1j * rng.standard_normal(vshape))
        if sym:
            c = 0.5 * (c + np.swapaxes(c, -1, -2))
        mapping[mode] = c
        mapping[tuple(-x for x in mode)] = np.conj(c)
    return FourierField.from_modes(d, mapping, vshape=vshape)


def transport_residual(S, R, unsolved, omega, eps, a, rng, n_pts=60):
    """Relative size of dS/dt + eps^(-a) <omega, dS/dtheta> + (R - unsolved)."""
    d = R.d
    th = rng.uniform(0, 2 * np.pi, (n_pts, d))
    tt = rng.uniform(0, 2 * np.pi, n_pts)
    lhs = S.time_derivative().evaluate(th, tt)
    grad = S.grad_angle().evaluate(th, tt)
    for i in range(d):
        lhs = lhs + eps ** (-a) * omega[i] * grad[:, i]
    rhs = np.asarray(R.evaluate(th, tt))
    if unsolved is not None and unsolved.n_modes:
        rhs = rhs - unsolved.evaluate(th, tt)
    return float(np.abs(lhs + rhs).max() / np.abs(rhs).max())


def symplectic_defect(fmap, w0, h, m):
    """Max |J^T O J - O| for the finite-difference Jacobian of fmap at w0."""
    N, dim = w0.shape
    J = np.empty((N, dim, dim))
    for i in range(dim):
        wp = w0.copy()
        wp[:, i] += h[i]
        wm = w0.copy()
        wm[:, i] -= h[i]
        J[:, :, i] = (fmap(wp) - fmap(wm)) / (2.0 * h[i])
    Om = np.zeros((dim, dim))
    Om[:m, m:] = np.eye(m)
    Om[m:, :m] = -np.eye(m)
    res = np.einsum("nji,jk,nkl->nil", J, Om, J) - Om[None]
    return float(np.abs(res).max())


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("accept") / "run_a")
    cfg = cli.load_config(None)
    res = cli.run_pipeline(cfg, out_dir=out)
    return cfg, out, res


@pytest.fixture(scope="module")
def kam_synthetic():
    """Planted d=2 system with low-part norm exactly 1e-4, three retained steps."""

    def build(scales):
        rng = np.random.default_rng(11)
        fields = []
        for vshape, scale in zip([(), (2,), (2, 2)], scales):
            mapping = {}
            done = set()
            for k1 in range(-3, 4):
                for k2 in range(-3, 4):
                    for l in range(-3, 4):
                        mode = (k1, k2, l)
                        if abs(k1) + abs(k2) + abs(l) > 3 or mode in done:
                            continue
                        conj = tuple(-x for x in mode)
                        val = scale * (rng.normal(size=vshape)
                                       + 1j * rng.normal(size=vshape))
                        if mode == conj:
                            val = val.real.astype(complex)
                        if vshape == (2, 2):
                            val = 0.5 * (val + np.swapaxes(val, -1, -2))
                        mapping[mode] = val
                        mapping[conj] = np.conj(val)
                        done.add(mode)
                        done.add(conj)
            fields.append(FourierField.from_modes(2, mapping, vshape=vshape).prune())
        grid = ActionGrid(np.zeros(2), 1e-3, 5)
        return KamState(
            m=0, eps=1.0, a=1.0, omega=GOLDEN.copy(),
            Omega=np.array([[0.45, 0.08], [0.08, 0.55]]),
            R=_jet_on_nodes(*fields, grid),
            const=0.0, s=0.3, r=1e-3, grid=grid, s0=0.3, r0=1e-3)

    dc = DiophantineParams(d=2, gamma=5e-3, eps=1.0, a=1.0, K_split=30, K_check=300)
    assert check_dc(GOLDEN, dc).ok
    raw = build([1e-5, 1e-5, 1e-5])
    fac = 1e-4 / raw.low_norm()
    state = build([fac * 1e-5] * 3)
    params = KamParams(dc=dc, K_cap=16, tol=1e-30, max_steps=3)
    states = [state]
    for _ in range(3):
        states.append(kam_step(states[-1], params))
    return states, params


def test_criterion_1_reference_orbit():
    tic = time.time()
    err_t0 = abs(compute_period(0) - 2.0 * np.pi)
    energy = max(reference_solution(n).energy_defect() for n in (1, 2, 3))
    with mpmath.workdps(50):
        beta = mpmath.beta(mpmath.mpf(1) / 4, mpmath.mpf(1) / 2)
        oracle = float(4 * mpmath.sqrt(2) / 4 * beta)
    err_beta = abs(compute_period(1) - oracle)
    elapsed = time.time() - tic
    ok = err_t0 <= 1e-10 and energy <= 1e-10 and err_beta <= 1e-9 and elapsed < 1.0
    report(1, "reference orbit", ok,
           f"T0(0) err {err_t0:.1e}, energy defect {energy:.1e}, "
           f"Beta oracle err {err_beta:.1e}, {elapsed:.2f}s")


def test_criterion_2_symplecticity(pipeline_run, kam_synthetic):
    cfg, _, res = pipeline_run
    states, _ = kam_synthetic
    m = res["net"].m
    aa = res["chart"]
    rng = np.random.default_rng(2)
    tic = time.time()
    defects = []

    lo, hi = np.asarray(cfg["action_box"][0]), np.asarray(cfg["action_box"][1])
    w = np.concatenate([rng.uniform(0, 2 * np.pi, (20, m)),
                        rng.uniform(lo, hi, (20, m))], axis=1)

    def chart_map(w):
        x, y = aa.to_cartesian(w[:, :m], w[:, m:])
        return np.concatenate([x, y], axis=1)

    defects.append(symplectic_defect(chart_map, w, [1e-6] * (2 * m), m))

    tt = rng.uniform(0, 2 * np.pi, 20)
    for S, _ in res["nf"].changes:
        w = np.concatenate(
            [rng.uniform(0, 2 * np.pi, (20, m)),
             S.grid.center + rng.uniform(-0.3, 0.3, (20, m)) * S.grid.tau],
            axis=1)

        def nf_map(w, S=S):
            th, II = _invert_change(S, w[:, :m].copy(), tt, w[:, m:].copy())
            return np.concatenate([th, II], axis=1)

        h = [1e-4] * m + [1e-3 * S.grid.tau] * m
        defects.append(symplectic_defect(nf_map, w, h, m))

    for j, st in enumerate(states[1:]):
        ch = st.changes[-1]
        w = np.concatenate([rng.uniform(0, 2 * np.pi, (20, m)),
                            rng.uniform(-0.3, 0.3, (20, m)) * st.r], axis=1)

        def kam_map(w, ch=ch):
            th, II = _invert_change(ch.S, w[:, :m].copy(), tt, w[:, m:].copy())
            return np.concatenate([th, ch.nu + II], axis=1)

        h = [1e-4] * m + [0.05 * st.r] * m
        defects.append(symplectic_defect(kam_map, w, h, m))

    elapsed = time.time() - tic
    worst = max(defects)
    ok = worst <= 1e-6 and elapsed < 10.0
    report(2, "symplectic changes", ok,
           f"max |J^T O J - O| = {worst:.2e} over chart + "
           f"{len(res['nf'].changes)} averaging + {len(states) - 1} kam maps, "
           f"{elapsed:.1f}s")


def test_criterion_3_homological_exactness():
    rng = np.random.default_rng(3)
    tic = time.time()
    rels = []

    dc_split = DiophantineParams(d=2, gamma=1e-4, eps=0.5, a=2.0,
                                 K_split=10, K_check=20)
    R = random_real_field(rng, 2, 8, 25)
    S = solve_homological(R, GOLDEN, dc_split, regime="split")
    rels.append(transport_residual(S, R, R.angle_average(), GOLDEN, 0.5, 2.0, rng))

    dc_full = DiophantineParams(d=2, gamma=5e-3, eps=1.0, a=1.0, K_split=30, K_check=300)
    for vshape, sym in [((), False), ((2,), False), ((2, 2), True)]:
        R = random_real_field(rng, 2, 8, 25, vshape=vshape, sym=sym)
        S = solve_homological(R, GOLDEN, dc_full, regime="full")
        rels.append(transport_residual(
            S, R, R.angle_average().time_average(), GOLDEN, 1.0, 1.0, rng))

    elapsed = time.time() - tic
    worst = max(rels)
    ok = worst <= 1e-12 and elapsed < 1.0
    report(3, "homological exactness", ok,
           f"max relative residual {worst:.2e} over split + scalar/vector/matrix "
           f"full-regime solves, {elapsed:.2f}s")


def test_criterion_4_conjugation(pipeline_run, kam_synthetic):
    cfg, _, res = pipeline_run
    states, _ = kam_synthetic
    spec, nf, avg, form = res["spec"], res["nf"], res["avg"], res["kam0"]
    m = res["net"].m
    eps_a = spec.eps ** (-spec.a)
    eps_b = spec.eps ** (-spec.b)
    rng = np.random.default_rng(4)
    tic = time.time()
    rels = []

    # chained averaging changes against the base Hamiltonian
    P = 50
    phi = rng.uniform(0, 2 * np.pi, (P, m))
    tt = rng.uniform(0, 2 * np.pi, P)
    rho = spec.I0[None, :] + rng.uniform(-0.5, 0.5, (P, m)) * nf.grid.tau
    H_fin = (eps_a * spec.H0.value(rho) + nf.h.evaluate(phi, tt, rho)
             + nf.R.evaluate(phi, tt, rho))
    theta, II = phi.copy(), rho.copy()
    dts = np.zeros(P)
    for S, _ in reversed(nf.changes):
        rho_stage = II.copy()
        theta, II = _invert_change(S, theta, tt, rho_stage)
        dts += S.time_derivative().evaluate(theta, tt, rho_stage)
    H_base = eps_a * spec.H0.value(II) + eps_b * spec.R.evaluate(theta, tt, II)
    scale = max(1.0, float(np.abs(H_base).max()))
    rels.append(float(np.abs(H_fin - (H_base + dts)).max()) / scale)

    # time-average twist: H_avg(phi) = H_nf(phi + dS/dI) - dS/dt
    delta = np.zeros((P, m))
    dSdt = np.zeros(P)
    S_tilde = avg.changes[-1].S * -1.0
    if S_tilde.n_modes:
        delta = np.atleast_2d(S_tilde.grad_action().evaluate(phi, tt, rho))
        dSdt = S_tilde.time_derivative().evaluate(phi, tt, rho)
    H_nf = (eps_a * spec.H0.value(rho) + nf.h.evaluate(phi, tt, rho)
            + nf.R.evaluate(phi + delta, tt, rho))
    H_avg = (eps_a * spec.H0.value(rho) + avg.h_bar.evaluate(phi, tt, rho)
             + avg.R_breve.evaluate(phi, tt, rho))
    scale = max(1.0, float(np.abs(H_nf).max()))
    rels.append(float(np.abs(H_avg - (H_nf - dSdt)).max()) / scale)

    # quadratic re-centering at I*
    rho_s = rng.uniform(-0.8, 0.8, (P, m)) * form.r0
    lhs = (form.const
           + eps_a * (rho_s @ form.omega
                      + np.einsum("nj,jk,nk->n", rho_s, form.Omega, rho_s))
           + form.R.evaluate(phi, tt, rho_s))
    I_abs = res["I_star"][None, :] + rho_s
    rhs = (eps_a * spec.H0.value(I_abs) + avg.h_bar.evaluate(phi, tt, I_abs)
           + avg.R_breve.evaluate(phi, tt, I_abs))
    scale = max(1.0, float(np.abs(rhs).max()))
    rels.append(float(np.abs(lhs - rhs).max()) / scale)

    # every synthetic KAM step
    for old, new in zip(states[:-1], states[1:]):
        ch = new.changes[-1]
        rr = rng.uniform(-0.9, 0.9, (P, m)) * new.r
        th, II = _invert_change(ch.S, phi, tt, rr)
        lhs = kam_hamiltonian(new, phi, tt, rr)
        rhs = (kam_hamiltonian(old, th, tt, ch.nu + II)
               + ch.S.time_derivative().evaluate(th, tt, rr))
        scale = max(1.0, float(np.abs(rhs).max()))
        rels.append(float(np.abs(lhs - rhs).max()) / scale)

    elapsed = time.time() - tic
    worst = max(rels)
    ok = worst <= 1e-8 and elapsed < 30.0
    report(4, "conjugation exactness", ok,
           f"max relative error {worst:.2e} over averaging chain, twist, "
           f"re-centering, {len(states) - 1} kam steps, {elapsed:.1f}s")


def test_criterion_5_averaging_decay():
    tic = time.time()
    cfg = cli.load_config(None, {"system": {"amplitude": 20.0}})
    net, sys_ = cli.network_from_config(cfg)
    aa = ActionAngleMap(net.n, net.m)
    dcp = cli._dc_params(cfg, net.m, sys_.eps, float(sys_.a))
    I0, _, rep, _ = find_dc_point(aa.omega, cfg["action_box"], dcp,
                                  grid=int(cfg["dc"]["scan_grid"]))
    assert rep.ok
    nfc = cfg["normal_form"]
    spec = to_hamiltonian_spec(sys_, aa, I0, float(nfc["tau0"]),
                               n_nodes=int(nfc["n_nodes"]), s0=float(nfc["s0"]),
                               K0=int(nfc["K_cap"]), base_grid=int(nfc["base_grid"]))
    nf = run_normal_form(spec, NormalFormParams(
        dc=dcp, m0=int(nfc["m0"]), K0=int(nfc["K0"]),
        K_cap=int(nfc["K_cap"])))
    norms = [row["R_angle_norm"] for row in nf.diagnostics]
    factors = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)]
    bound = 10.0 * sys_.eps ** (sys_.a - sys_.b)
    elapsed = time.time() - tic
    ok = (len(factors) <= 4 and all(f <= bound for f in factors)
          and all(n1 < n0 for n0, n1 in zip(norms, norms[1:]))
          and elapsed < 120.0)
    report(5, "averaging decay law", ok,
           "factors " + ", ".join(f"{f:.2e}" for f in factors)
           + f" all <= {bound:.2f}, {elapsed:.1f}s")


def test_criterion_6_kam_superlinear(kam_synthetic):
    tic = time.time()
    states, _ = kam_synthetic
    es = [st.low_norm() for st in states]
    ratios = [np.log(es[i + 1]) / np.log(es[i]) for i in range(3)]
    elapsed = time.time() - tic
    ok = (abs(es[0] - 1e-4) <= 1e-12 and all(r >= 1.2 for r in ratios)
          and elapsed < 120.0)
    report(6, "kam superlinear decay", ok,
           "e = " + ", ".join(f"{e:.2e}" for e in es) + "; log ratios "
           + ", ".join(f"{r:.2f}" for r in ratios) + f" >= 1.2, {elapsed:.1f}s")


def test_criterion_7_torus_certificate(pipeline_run):
    cfg, out, _ = pipeline_run
    tic = time.time()
    rep = cli.run_verify(cfg, out)
    elapsed = time.time() - tic
    defect = float(rep["defect"])
    var = float(rep["action_variation"])
    rot = float(rep["rotation_rel_err"])
    ok = (defect <= 1e-4 and var <= 0.05 and rot <= 1e-3
          and not rep["escaped"] and elapsed < 600.0)
    report(7, "torus certificate", ok,
           f"defect {defect:.2e} <= 1e-4 over T=100, action variation "
           f"{var:.2e} <= 0.05 over T=1e4, rotation error {rot:.2e} <= 1e-3, "
           f"{elapsed:.0f}s")


def test_criterion_8_measure_scaling():
    tic = time.time()
    cfg = cli.load_config(None)
    rows = cli.run_measure(cfg)
    fracs = [row[1] for row in rows]
    factors = [fracs[i + 1] / fracs[i] for i in range(len(fracs) - 1)]
    elapsed = time.time() - tic
    ok = (all(0.3 <= f <= 0.7 for f in factors)
          and all(b < a for a, b in zip(fracs, fracs[1:]))
          and elapsed < 60.0)
    report(8, "excluded-measure scaling", ok,
           "fractions " + ", ".join(f"{f:.4f}" for f in fracs)
           + "; halving factors " + ", ".join(f"{f:.3f}" for f in factors)
           + f", {elapsed:.1f}s")


def test_criterion_9_determinism(pipeline_run, tmp_path):
    cfg, out, _ = pipeline_run
    tic = time.time()
    out2 = str(tmp_path / "run_b")
    cli.run_pipeline(cfg, out_dir=out2)
    names = sorted(os.listdir(out2))  # every file run_pipeline writes
    same = {name: (open(f"{out}/{name}", "rb").read()
                   == open(f"{out2}/{name}", "rb").read()) for name in names}
    elapsed = time.time() - tic
    ok = all(same.values())
    report(9, "byte-identical reruns", ok,
           ", ".join(f"{n} {'same' if s else 'DIFFERS'}" for n, s in same.items())
           + f", {elapsed:.0f}s")


def test_default_m0_state_takes_a_kam_step(pipeline_run):
    # the averaged remainder must fit the KAM grid, or the step cannot run
    cfg, _, res = pipeline_run
    kc = cfg["kam"]
    params = KamParams(dc=res["dc"], tol=1e-20, max_steps=int(kc["max_steps"]),
                       K_cap=int(kc["K_cap"]))
    assert res["avg"].R_breve.orders().max() <= cfg["normal_form"]["K_cap"]
    state = kam_step(res["kam0"], params)
    assert state.m == 1
