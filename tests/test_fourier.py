import json

import numpy as np
import pytest

from kamforge import fourier
from kamforge.errors import RealityError
from kamforge.fourier import (REALITY_TOL, ActionGrid, FourierField, ShiftGrids, action_jet,
                              ball_modes, compose_shifted_grid)


def sample_field():
    return FourierField.from_modes(2, {
        (1, 0, 1): 0.5, (-1, 0, -1): 0.5,
        (0, 2, -1): 0.25j, (0, -2, 1): -0.25j,
        (1, -1, 0): 0.1, (-1, 1, 0): 0.1,
    })


def direct_eval(th, t):
    # cos(th1 + t) - 0.5 sin(2 th2 - t) + 0.2 cos(th1 - th2)
    return (np.cos(th[:, 0] + t) - 0.5 * np.sin(2 * th[:, 1] - t)
            + 0.2 * np.cos(th[:, 0] - th[:, 1]))


def random_points(n, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 2 * np.pi, (n, d)), rng.uniform(0, 2 * np.pi, n)


def test_evaluate_matches_closed_form():
    f = sample_field()
    th, t = random_points(40)
    np.testing.assert_allclose(f.evaluate(th, t), direct_eval(th, t), atol=1e-14)


def test_ball_modes_count_and_bound():
    modes = ball_modes(2, 3)
    assert np.abs(modes).sum(axis=1).max() <= 3
    # unique rows, includes the origin
    assert len({tuple(m) for m in modes}) == modes.shape[0]
    assert (modes == 0).all(axis=1).any()


def test_derive_matches_finite_difference():
    f = sample_field()
    th, t = random_points(20, seed=3)
    h = 1e-6
    grad = f.grad_angle().evaluate(th, t)
    for i, shift in enumerate([np.array([1, 0]), np.array([0, 1])]):
        fd = (f.evaluate(th + h * shift, t) - f.evaluate(th - h * shift, t)) / (2 * h)
        np.testing.assert_allclose(grad[:, i], fd, atol=1e-8)
    g = f.time_derivative().evaluate(th, t)
    fd = (f.evaluate(th, t + h) - f.evaluate(th, t - h)) / (2 * h)
    np.testing.assert_allclose(g, fd, atol=1e-8)


def test_norm_splits_over_truncation():
    f = sample_field()
    assert f.truncate(2).norm(0.3) + f.tail(2).norm(0.3) == pytest.approx(f.norm(0.3),
                                                                         rel=1e-15)
    # truncate keeps exactly the low-order modes
    assert f.truncate(2).orders().max(initial=0) <= 2
    assert f.tail(2).orders().min(initial=10) > 2


def test_grid_roundtrip_preserves_coefficients():
    f = sample_field()
    nshape = (16, 16, 16)
    vals = f.to_grid(nshape)
    g = FourierField.from_grid(vals, 2, cutoff=6)
    assert g.projection_residual < 1e-14
    th, t = random_points(10, seed=7)
    np.testing.assert_allclose(g.evaluate(th, t), f.evaluate(th, t), atol=1e-12)


def test_from_grid_reports_dropped_mass():
    f = sample_field()
    vals = f.to_grid((16, 16, 16))
    g = FourierField.from_grid(vals, 2, cutoff=1)  # drops the order-2/3 modes
    assert g.projection_residual > 0.1
    assert g.orders().max(initial=0) <= 1


def test_reality_guard_rejects_asymmetric_modes():
    with pytest.raises(RealityError):
        FourierField.from_modes(2, {(1, 0, 0): 1.0, (-1, 0, 0): 0.2})


def test_prune_drops_negligible_modes():
    f = FourierField.from_modes(2, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5,
                                    (0, 1, 0): 1e-20, (0, -1, 0): 1e-20})
    assert f.prune().n_modes == 2


def test_json_roundtrip_is_exact():
    for f in (sample_field(), random_real_field(2, (2,), None, seed=3)):
        g = FourierField.from_json_dict(f.to_json_dict())
        assert np.array_equal(f.modes, g.modes)
        np.testing.assert_array_equal(f.coeffs, g.coeffs)
        assert g.vshape == f.vshape and g.grid is None
        # dict is json-serializable as is
        json.dumps(f.to_json_dict())
    # a stored field is action-free: a file that carries an action grid is refused
    obj = dict(sample_field().to_json_dict(), grid={"center": [1.0, 1.5], "tau": 0.01, "n": 3})
    with pytest.raises(ValueError, match="grid"):
        FourierField.from_json_dict(obj)


def test_save_load_roundtrip(tmp_path):
    f = sample_field()
    path = tmp_path / "field.json"
    with open(path, "w") as fh:
        json.dump(f.to_json_dict(), fh)
    with open(path) as fh:
        g = FourierField.from_json_dict(json.load(fh))
    np.testing.assert_array_equal(f.coeffs, g.coeffs)


def test_action_grid_interpolates_polynomials_exactly():
    grid = ActionGrid(np.array([1.0, 2.0]), 0.5, 5)
    pts = grid.node_points().reshape(-1, 2)

    def poly(p):  # degree 4 per axis, inside the Chebyshev exactness range
        return (p[..., 0] - 1.0) ** 4 + 2.0 * (p[..., 1] - 2.0) ** 3 + 0.7

    rng = np.random.default_rng(2)
    query = np.stack([rng.uniform(0.6, 1.4, 25), rng.uniform(1.6, 2.4, 25)], axis=-1)
    w = grid.interp_weights(query)
    vals = np.tensordot(w, poly(grid.node_points()), axes=([1, 2], [0, 1]))
    np.testing.assert_allclose(vals, poly(query), atol=1e-12)
    np.testing.assert_allclose(w.sum(axis=(1, 2)), 1.0, atol=1e-13)
    assert pts.shape == (25, 2)


def test_grid_field_action_dependence():
    grid = ActionGrid(np.array([1.0, 1.3]), 0.01, 5)
    nodes = grid.node_points()
    # coefficient varying linearly in the first action
    coeffs = np.stack([0.5 * nodes[..., 0], 0.5 * nodes[..., 0]], axis=0).astype(complex)
    f = FourierField(2, np.array([[1, 0, 0], [-1, 0, 0]]), coeffs, grid=grid)
    th, t = random_points(15, seed=9)
    rng = np.random.default_rng(10)
    II = np.stack([rng.uniform(0.992, 1.008, 15), rng.uniform(1.292, 1.308, 15)],
                  axis=-1)
    np.testing.assert_allclose(f.evaluate(th, t, II), II[:, 0] * np.cos(th[:, 0]),
                               atol=1e-12)
    g = f.grad_action()
    np.testing.assert_allclose(g.evaluate(th, t, II)[:, 0], np.cos(th[:, 0]), atol=1e-9)


def test_restrict_action_resamples_nodes():
    grid = ActionGrid(np.array([1.0, 1.3]), 0.01, 5)
    inner = ActionGrid(np.array([1.0, 1.3]), 0.005, 5)
    nodes = grid.node_points()
    coeffs = np.stack([0.5 * nodes[..., 1] ** 2, 0.5 * nodes[..., 1] ** 2],
                      axis=0).astype(complex)
    f = FourierField(2, np.array([[0, 1, 0], [0, -1, 0]]), coeffs, grid=grid)
    g = f.restrict_action(inner)
    expect = 0.5 * inner.node_points()[..., 1] ** 2
    np.testing.assert_allclose(g.coeffs[0], expect, atol=1e-13)


def node_field(rng, grid, scale, vshape=()):
    """Real field whose mode coefficients take independent random values on every node."""
    def draw():
        return scale * rng.standard_normal(vshape + grid.shape)

    mapping = {(0, 0, 0): draw()}
    for mode in [(1, 0, 1), (0, 1, -1), (1, -1, 0), (2, 0, 1)]:
        mapping[mode] = draw() + 1j * draw()
        mapping[tuple(-x for x in mode)] = np.conj(mapping[mode])
    return FourierField.from_modes(2, mapping, grid=grid, vshape=vshape)


def staggered_field(rng, grid):
    """Vector node field whose first component is angle-free, so it leaves the series first."""
    f = node_field(rng, grid, 0.005, (2,))
    c = f.coeffs.copy()
    c[np.any(f.modes[:, :2] != 0, axis=1), 0] = 0.0
    return f.replace(coeffs=c)


# case: (value shape, action-free field, angle shift, action shift).  Node
# coefficients that vary strongly over a small ball would stall a Taylor
# series in the action in "both"; only an exact action shift passes it.
# Every case but "action_free" evaluates at points rho around the nodes of a
# grid other than the field's own ("angle" at those nodes).
COMPOSE_CASES = {
    "angle": ((), False, True, False),
    "action": ((), False, False, True),
    "both": ((), False, True, True),
    "vector": ((2,), False, True, True),
    "action_free": ((), True, True, False),
    "staggered": ((2,), False, True, True),
}


@pytest.mark.parametrize("case", list(COMPOSE_CASES))
def test_compose_shifted_grid_matches_direct_evaluation(case):
    vshape, action_free, angle, action = COMPOSE_CASES[case]
    rng = np.random.default_rng(3)
    grid = ActionGrid((1.0, 1.5), 2e-3, 5)
    out = ActionGrid((1.0, 1.5), 1e-3, 5)
    # the components of the vector field differ in size by 1e6, so each must
    # run its own series to the relative tolerance
    scale = 0.005 * np.array([1.0, 1e-6])[:, None, None] if vshape else 0.005
    if case == "staggered":
        f = staggered_field(rng, grid)
    else:
        f = sample_field() if action_free else node_field(rng, grid, scale, vshape)
    nshape = (12, 12, 12)
    gshape = () if action_free else out.shape
    pshape = nshape + gshape + (2,)
    V = 0.03 * rng.standard_normal(pshape) if angle else np.zeros(pshape)
    U = 4e-4 * rng.standard_normal(pshape) if action else np.zeros(pshape)
    rho = None if action_free else out.node_points() + U
    vals, err = compose_shifted_grid(ShiftGrids(f, nshape), dtheta=V if angle else None,
                                     rho=rho)
    assert vals.shape == nshape + gshape + f.vshape
    axes = [np.linspace(0, 2 * np.pi, n, endpoint=False) for n in nshape]
    mesh = np.meshgrid(*axes, indexing="ij")
    phi = np.stack(mesh[:2], axis=-1).reshape(nshape + (1,) * len(gshape) + (2,)) + V
    t = np.broadcast_to(mesh[2].reshape(nshape + (1,) * len(gshape)), nshape + gshape)
    direct = f.evaluate(phi.reshape(-1, 2), t.ravel(),
                        None if action_free else rho.reshape(-1, 2))
    got = vals.reshape(direct.shape)
    assert got.dtype == np.float64
    dev = np.abs(got - direct).max(axis=0)
    assert np.all(dev <= 1e-13 * np.abs(direct).max(axis=0)), dev
    if angle:
        assert err < 1e-12
    else:
        assert err == 0.0


@pytest.mark.parametrize("vshape", [(2,), (2, 2)])
def test_grad_angle_stacks_angle_derivatives(vshape):
    rng = np.random.default_rng(12)
    mapping = {}
    for mode in [(1, 0, 1), (0, 2, -1), (1, -1, 0), (2, 1, 1)]:
        c = rng.standard_normal(vshape) + 1j * rng.standard_normal(vshape)
        mapping[mode] = c
        mapping[tuple(-x for x in mode)] = np.conj(c)
    f = FourierField.from_modes(2, mapping, vshape=vshape)
    g = f.grad_angle()
    assert g.vshape == (2,) + vshape
    # reference: d/dtheta_i multiplies the coefficient of mode k by 1j * k_i
    k = f.modes[:, :2].reshape((f.n_modes, 2) + (1,) * len(vshape))
    expect = 1j * k * f.coeffs[:, None]
    np.testing.assert_array_equal(g.coeffs, expect)
    th, t = random_points(10, seed=13)
    vals = g.evaluate(th, t)
    for i in range(2):
        ref = f.replace(coeffs=expect[:, i])
        np.testing.assert_allclose(vals[:, i], ref.evaluate(th, t), atol=1e-14)


def test_jet_split_of_exact_cubic():
    grid = ActionGrid(np.array([1.0, 1.3]), 0.05, 5)
    point = np.array([1.01, 1.28])
    modes = np.array([[0, 0, 0], [1, 0, 1], [-1, 0, -1], [0, 1, -2], [0, -1, 2]])
    rng = np.random.default_rng(21)
    # per mode: a0 + <a1, x> + <x, a2 x> + a3 x_0^2 x_1 + a4 x_1^3, x = I - point
    a0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    a1 = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    a2 = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    a2 = 0.5 * (a2 + np.swapaxes(a2, 1, 2))
    a3 = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    for lo, hi in [(1, 2), (3, 4)]:     # conjugate partners
        for arr in (a0, a1, a2, a3):
            arr[hi] = np.conj(arr[lo])
    for arr in (a0, a1, a2, a3):
        arr[0] = arr[0].real

    def cubic(x):
        return a3[:, 0:1] * x[:, 0] ** 2 * x[:, 1] + a3[:, 1:2] * x[:, 1] ** 3

    def poly(x):
        return (a0[:, None] + a1 @ x.T + np.einsum("nj,mjk,nk->mn", x, a2, x)
                + cubic(x))

    x = grid.node_points().reshape(-1, 2) - point
    f = FourierField(2, modes, poly(x).reshape(5, *grid.shape), grid=grid)
    r0, r1, r2 = action_jet(f, point)
    assert (r1.vshape, r2.vshape) == ((2,), (2, 2))
    order = [r0.modes.tolist().index(m) for m in modes.tolist()]
    np.testing.assert_allclose(r0.coeffs[order], a0, atol=1e-12)
    np.testing.assert_allclose(r1.coeffs[order], a1, atol=1e-12)
    np.testing.assert_allclose(r2.coeffs[order], a2, atol=1e-12)


# -- conjugate symmetry -------------------------------------------------------

def dict_symmetrize(modes, coeffs):
    """Reference: the dict-based partner search that FourierField._symmetrize replaced.

    Returns (modes, coeffs, drift) for canonically ordered ``modes``.
    """
    idx = {tuple(m): i for i, m in enumerate(modes)}
    missing = [i for i, m in enumerate(modes) if tuple(-m) not in idx]
    if missing:
        modes = np.concatenate([modes, -modes[missing]], axis=0)
        coeffs = np.concatenate(
            [coeffs, np.zeros((len(missing),) + coeffs.shape[1:], dtype=complex)], axis=0)
        order = np.lexsort(modes.T[::-1])
        modes, coeffs = modes[order], coeffs[order]
        idx = {tuple(m): i for i, m in enumerate(modes)}
    neg = np.array([idx[tuple(-m)] for m in modes], dtype=np.int64)
    scale = np.abs(coeffs).max(initial=0.0)
    sym = 0.5 * (coeffs + np.conj(coeffs[neg]))
    drift = float(np.abs(coeffs - sym).max() / scale) if scale > 0 else 0.0
    return modes, sym, drift


def symmetry_case(d, vshape, node_grid, closed, seed):
    """Canonical modes and nearly symmetric coefficients; unpaired modes stay tiny."""
    rng = np.random.default_rng(seed)
    grid = ActionGrid(np.full(2, 1.0), 0.1, 3) if node_grid else None
    shape = vshape + (grid.shape if grid else ())
    ball = ball_modes(d, 3)
    modes = ball[rng.random(ball.shape[0]) < 0.4]
    if closed:
        modes = np.unique(np.concatenate([modes, -modes]), axis=0)
    modes = modes[np.lexsort(modes.T[::-1])]
    index = {tuple(m): i for i, m in enumerate(modes)}
    c = rng.standard_normal((modes.shape[0],) + shape) \
        + 1j * rng.standard_normal((modes.shape[0],) + shape)
    for i, m in enumerate(modes):
        j = index.get(tuple(-m))
        if j is None:
            c[i] *= 1e-10
        elif j == i:
            c[i] = c[i].real
        elif j < i:
            c[i] = np.conj(c[j])
    c += 1e-12 * rng.standard_normal(c.shape)  # drift that symmetrization removes
    return modes, c, grid


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("vshape", [(), (2,), (2, 3)])
@pytest.mark.parametrize("node_grid", [False, True])
@pytest.mark.parametrize("closed", [True, False])
def test_symmetrize_matches_dict_reference(d, vshape, node_grid, closed):
    modes, c, grid = symmetry_case(d, vshape, node_grid, closed, seed=7 * d + len(vshape))
    present = {tuple(m) for m in modes}
    assert closed == all(tuple(-m) in present for m in modes)
    ref_modes, ref_coeffs, ref_drift = dict_symmetrize(modes, c)
    f = FourierField(d, modes, c, grid=grid, vshape=vshape)
    assert np.array_equal(f.modes, ref_modes)
    assert np.array_equal(f.coeffs, ref_coeffs)
    assert f.reality_drift == ref_drift
    # the drift check still fires: give one unpaired or paired mode an O(1) defect
    c_bad = c.copy()
    c_bad[0] += 1.0
    assert dict_symmetrize(modes, c_bad)[2] > REALITY_TOL
    with pytest.raises(RealityError):
        FourierField(d, modes, c_bad, grid=grid, vshape=vshape)


# -- real grids ---------------------------------------------------------------

def random_real_field(d, vshape, grid, K=3, seed=0):
    """Real field over all modes of order <= K, with node values when ``grid`` is given."""
    rng = np.random.default_rng(seed)
    shape = vshape + (grid.shape if grid else ())
    mapping = {}
    for m in ball_modes(d, K):
        m = tuple(int(x) for x in m)
        if m in mapping:
            continue
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        neg = tuple(-x for x in m)
        if neg == m:
            c = c.real.astype(complex)
        mapping[m], mapping[neg] = c, np.conj(c)
    return FourierField.from_modes(d, mapping, grid=grid, vshape=vshape)


REAL_GRID_CASES = {
    "odd": (9, 7, 11),
    "even": (8, 10, 12),
    "even_last": (9, 7, 8),
}


@pytest.mark.parametrize("nshape", list(REAL_GRID_CASES.values()), ids=list(REAL_GRID_CASES))
@pytest.mark.parametrize("vshape", [(), (2,), (2, 2)])
@pytest.mark.parametrize("node_grid", [False, True])
def test_to_grid_is_real_and_matches_evaluate(nshape, vshape, node_grid):
    grid = ActionGrid((1.0, 1.5), 0.01, 3) if node_grid else None
    f = random_real_field(2, vshape, grid, seed=len(vshape))
    vals = f.to_grid(nshape)
    gshape = grid.shape if grid else ()
    assert vals.dtype == np.float64
    assert vals.shape == nshape + vshape + gshape
    axes = [2 * np.pi * np.arange(n) / n for n in nshape]
    mesh = np.meshgrid(*axes, indexing="ij")
    th = np.stack([g.ravel() for g in mesh[:2]], axis=-1)
    t = mesh[2].ravel()
    nodes = grid.node_points().reshape(-1, 2) if grid else [None]
    flat = vals.reshape(nshape + vshape + (-1,))
    for q, node in enumerate(nodes):
        direct = f.evaluate(th, t, node)
        got = flat[..., q].reshape(direct.shape)
        assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


def table_evaluate(f, theta, t, I=None):
    """Reference evaluation: interpolate every mode coefficient at each point, then sum."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    N = theta.shape[0]
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), (N,))
    E = np.exp(1j * (theta @ f.modes[:, :f.d].T + np.outer(t_arr, f.modes[:, -1])))
    if f.grid is None:
        return np.tensordot(E, f.coeffs, axes=(1, 0)).real
    I_arr = np.broadcast_to(np.atleast_2d(np.asarray(I, dtype=float)), (N, f.grid.dim))
    WW = f.grid.interp_weights(I_arr)  # (N, *gshape)
    gaxes = list(range(f.coeffs.ndim - f.grid.dim, f.coeffs.ndim))
    cpts = np.tensordot(f.coeffs, WW, axes=(gaxes, list(range(1, f.grid.dim + 1))))
    return np.einsum("nm,m...n->n...", E, cpts).real


@pytest.mark.parametrize("points", ["many", "shared_action", "one"])
@pytest.mark.parametrize("vshape", [(), (2,), (2, 2)])
@pytest.mark.parametrize("node_grid", [False, True])
def test_evaluate_matches_table_reference(monkeypatch, points, vshape, node_grid):
    grid = ActionGrid((1.0, 1.5), 0.01, 4) if node_grid else None
    f = random_real_field(2, vshape, grid, seed=7 + len(vshape))
    # blocks of 16 points: 50 points make three full blocks and a partial one
    monkeypatch.setattr(fourier, "EVAL_BYTES", 16 * 16 * f.n_modes)
    rng = np.random.default_rng(17)
    N = 50
    th, t = random_points(N, seed=18)
    I = np.array([1.0, 1.5]) + rng.uniform(-0.01, 0.01, (N, 2))
    if points == "shared_action":
        I = I[0]                                     # I given as (dim,)
    if points == "one":
        th, t, I = th[0], t[0], I[0]
    got = f.evaluate(th, t, I if node_grid else None)
    ref = table_evaluate(f, th, t, I)
    if points == "one":
        ref = ref[0]
        assert got.shape == vshape
    else:
        assert got.shape == (N,) + vshape
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("nshape", [(9, 7, 11), (8, 10, 12)], ids=["odd", "even"])
@pytest.mark.parametrize("vshape", [(), (2,)])
def test_from_grid_inverts_to_grid(nshape, vshape):
    grid = ActionGrid((1.0, 1.5), 0.01, 3)
    f = random_real_field(2, vshape, grid, seed=4)
    g = FourierField.from_grid(f.to_grid(nshape), 2, cutoff=3, grid=grid, vshape=vshape)
    assert np.array_equal(g.modes, f.modes)
    assert np.abs(g.coeffs - f.coeffs).max() <= 1e-14 * np.abs(f.coeffs).max()
    # the l = 0 plane of rfftn is conjugate-symmetric to roundoff only
    assert g.reality_drift <= 1e-15
    assert g.projection_residual < 1e-14


def full_spectrum_residual(values, d, cutoff):
    """Reference: relative mass of the complex spectrum outside the retained modes."""
    nshape = values.shape[: d + 1]
    C = np.fft.fftn(values.astype(complex), axes=tuple(range(d + 1))) / np.prod(nshape)
    half = [(n - 1) // 2 for n in nshape]
    modes = ball_modes(d, min(cutoff, sum(half)))
    modes = modes[np.all(np.abs(modes) <= np.array(half), axis=1)]
    kept = np.abs(C[tuple(np.mod(modes[:, j], nshape[j]) for j in range(d + 1))]).sum()
    total = np.abs(C).sum()
    return (total - kept) / total


@pytest.mark.parametrize("nshape", [(9, 7, 11), (8, 10, 12), (9, 7, 8)],
                         ids=["odd", "even", "even_last"])
@pytest.mark.parametrize("cutoff", [1, 4])
def test_projection_residual_is_full_spectrum_mass(nshape, cutoff):
    rng = np.random.default_rng(sum(nshape) + cutoff)
    grid = ActionGrid((1.0, 1.5), 0.01, 3)
    values = rng.standard_normal(nshape + (2,) + grid.shape)
    g = FourierField.from_grid(values, 2, cutoff, grid=grid, vshape=(2,))
    expect = full_spectrum_residual(values, 2, cutoff)
    assert abs(g.projection_residual - expect) <= 1e-13 * expect


def test_from_grid_rejects_complex_values():
    vals = sample_field().to_grid((8, 8, 8)).astype(complex)
    with pytest.raises(TypeError):
        FourierField.from_grid(vals, 2, cutoff=3)


def test_from_grid_reports_the_unpruned_drift(monkeypatch):
    # rfftn's l = 0 plane is conjugate-symmetric only to roundoff; the drift
    # measured there must survive from_grid's prune, and stay at roundoff
    vals = np.random.default_rng(11).standard_normal((9, 9, 9, 2))
    f = FourierField.from_grid(vals, 2, cutoff=6, vshape=(2,))
    monkeypatch.setattr(FourierField, "prune", lambda self, rel_tol=None: self)
    unpruned = FourierField.from_grid(vals, 2, cutoff=6, vshape=(2,))
    assert 0.0 < unpruned.reality_drift <= 1e-15
    assert f.reality_drift == unpruned.reality_drift


def test_prune_keeps_the_reality_drift():
    f = sample_field()
    assert f.prune().reality_drift == 0.0
    c = f.coeffs.copy()
    c[0] *= 1.0 + 1e-13
    skewed = f.replace(coeffs=c)
    assert skewed.reality_drift > 0.0
    assert skewed.prune().reality_drift == skewed.reality_drift
    assert skewed.prune(1.0).reality_drift == skewed.reality_drift


def all_alphas(d, order):
    """Every multi-index alpha with |alpha| <= order."""
    return [a for a in np.ndindex(*(order + 1,) * d) if sum(a) <= order]


@pytest.mark.parametrize("kind", ["scalar", "staggered"])
def test_shift_grid_views_match_fresh_placements(kind):
    rng = np.random.default_rng(7)
    grid = ActionGrid((1.0, 1.5), 2e-3, 5)
    f = node_field(rng, grid, 0.005) if kind == "scalar" else staggered_field(rng, grid)
    nshape = (12, 12, 12)
    family = ShiftGrids(f, nshape)
    for view, grad in ((family.grad_angle(), f.grad_angle()),
                       (family.grad_action(), f.grad_action())):
        fresh = ShiftGrids(grad, nshape)
        assert view.vshape == grad.vshape
        for alpha in all_alphas(2, 4):
            want = fresh.derivative(alpha)
            got = view.derivative(alpha)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), alpha
    # the views place only f's own grids: the angle view reads orders up to 5
    assert sorted(family.kept) == all_alphas(2, 5)


@pytest.mark.parametrize("with_rho", [False, True])
def test_shift_grid_family_shared_across_compositions(with_rho):
    rng = np.random.default_rng(5)
    grid = ActionGrid((1.0, 1.5), 2e-3, 5)
    out = ActionGrid((1.0, 1.5), 1e-3, 5)
    # the angle-free first component leaves the series first, so later orders
    # are taken for the second component only
    f = staggered_field(rng, grid)
    nshape = (12, 12, 12)
    pshape = nshape + out.shape + (2,)
    # shifts of growing size need more orders than the ones already kept;
    # the last call alternates between points rho and the field's own nodes
    shifts = [(size * rng.standard_normal(pshape),
               out.node_points() + 4e-4 * rng.standard_normal(pshape) if rho else None)
              for size, rho in ((1e-3, with_rho), (0.03, with_rho), (0.01, not with_rho))]
    shared, stored = ShiftGrids(f, nshape), []
    for dtheta, rho in shifts:
        fresh = ShiftGrids(f, nshape)
        for view, fresh_view in ((shared.grad_action(), fresh.grad_action()),
                                 (shared.grad_angle(), fresh.grad_angle())):
            got = compose_shifted_grid(view, dtheta=dtheta, rho=rho)
            want = compose_shifted_grid(fresh_view, dtheta=dtheta, rho=rho)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
        stored.append(len(shared.kept))
        # composing the field itself places its grids for that call and keeps none
        got = compose_shifted_grid(shared, dtheta=dtheta, rho=rho)
        want = compose_shifted_grid(ShiftGrids(f, nshape), dtheta=dtheta, rho=rho)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert len(shared.kept) == stored[-1]
    # the larger shift adds orders, the smaller one after it reuses them all
    assert stored[0] < stored[1] == stored[2]


# -- construction invariants ----------------------------------------------------

def derived_fields(f):
    """The field operations whose raw coefficients the constructor now checks too."""
    out = {"grad_angle": f.grad_angle(), "time_derivative": f.time_derivative(),
           "scaled": f * -0.37, "sum": f + f.time_derivative()}
    if f.grid is None:
        out["broadcast_action"] = f.broadcast_action(ActionGrid((1.0, 1.5), 0.01, 3))
        return out
    point = np.array([1.003, 1.496])
    out["grad_action"] = f.grad_action()
    out["restrict_action"] = f.restrict_action(ActionGrid((1.0, 1.5), 0.005, 3))
    out["at_action"] = f.at_action(point)
    if not f.vshape:
        out.update(zip(("jet_r0", "jet_r1", "jet_r2"), action_jet(f, point)))
    return out


@pytest.mark.parametrize("vshape", [(), (2,), (2, 2)])
@pytest.mark.parametrize("node_grid", [False, True])
def test_derived_fields_are_exactly_symmetric(vshape, node_grid):
    grid = ActionGrid((1.0, 1.5), 0.01, 3) if node_grid else None
    f = random_real_field(2, vshape, grid, seed=5 + len(vshape))
    fields = derived_fields(f)
    assert len(fields) == (5 if grid is None else 7 if vshape else 10)
    for name, g in fields.items():
        assert g.reality_drift == 0.0, name
        assert np.array_equal(g.modes, -g.modes[::-1]), name
        assert np.array_equal(g.coeffs, np.conj(g.coeffs[::-1])), name
    if grid is not None:
        # action_jet prunes its outputs, so also check the jet coefficients it reads
        for c in f.interp_jet(np.array([[1.003, 1.496], [0.995, 1.507]])):
            assert np.array_equal(c, np.conj(c[::-1]))


@pytest.mark.parametrize("node_grid", [False, True])
def test_constructor_sorts_and_merges_shuffled_duplicates(node_grid):
    grid = ActionGrid((1.0, 1.5), 0.01, 3) if node_grid else None
    f = random_real_field(2, (2,), grid, seed=11)
    rng = np.random.default_rng(12)
    # each coefficient split into dyadic parts that sum back exactly
    parts = {1: [1.0], 2: [0.5, 0.5], 3: [0.25, 0.25, 0.5]}
    modes, coeffs = [], []
    for m, c in zip(f.modes, f.coeffs):
        for w in parts[int(rng.integers(1, 4))]:
            modes.append(m)
            coeffs.append(w * c)
    perm = rng.permutation(len(modes))
    assert len(modes) > f.n_modes
    g = FourierField(2, np.array(modes)[perm], np.array(coeffs)[perm], grid=grid,
                     vshape=(2,))
    assert np.array_equal(g.modes, f.modes)
    assert np.array_equal(g.coeffs, f.coeffs)
    assert g.reality_drift == 0.0
    # canonical input is kept as given
    h = FourierField(2, f.modes, f.coeffs, grid=grid, vshape=(2,))
    assert np.array_equal(h.modes, f.modes) and np.array_equal(h.coeffs, f.coeffs)


def test_construction_stores_the_symmetrised_sum():
    # exact partners whose zero real parts differ in sign: the drift is 0, and
    # the stored average has +0 in both rather than keeping the given -0
    f = FourierField(1, [[-1, 0], [1, 0]], [complex(-0.0, 0.5), complex(0.0, -0.5)])
    assert f.reality_drift == 0.0
    assert not np.signbit(f.coeffs.real).any()


def test_only_real_scalars_scale_a_field():
    f = sample_field()
    for scalar in (1j, np.complex128(2.0), 0.5 + 0j):
        with pytest.raises(TypeError):
            f * scalar
        with pytest.raises(TypeError):
            scalar * f
    with pytest.raises(TypeError):
        f * np.ones(2)
    np.testing.assert_array_equal((f * 2.0).coeffs, 2.0 * f.coeffs)
