import numpy as np
import pytest

from kamforge.diophantine import (DiophantineParams, _k_enumeration, _margins_for, check_dc,
                                  excluded_measure, find_dc_point)


def margin_oracle(omega, p):
    """Exhaustive scan over all modes |k|_1 + |l| <= K_check, every l."""
    best = np.inf
    K = p.K_check
    for k1 in range(-K, K + 1):
        for k2 in range(-(K - abs(k1)), K - abs(k1) + 1):
            if k1 == 0 and k2 == 0:
                continue
            knorm = abs(k1) + abs(k2)
            z = p.eps_pow * (k1 * omega[0] + k2 * omega[1])
            for l in range(-(K - knorm), K - knorm + 1):
                order = knorm + abs(l)
                if order <= p.K_split:
                    bound = p.bound_regime1(knorm)
                else:
                    bound = p.bound_regime2(knorm)
                best = min(best, abs(z + l) / bound)
    return best


GOLDEN = np.array([(1 + np.sqrt(5)) / 2, 1.3247179572447460])


@pytest.mark.parametrize("omega,eps", [
    (GOLDEN, 1.0),
    (np.array([1.1561937686464288, 1.2618616505403113]), 0.5),
    (np.array([1.01, 1.415]), 1.0),
])
def test_margin_matches_exhaustive_scan(omega, eps):
    p = DiophantineParams(d=2, gamma=1e-3, eps=eps, a=1.0, K_split=6, K_check=12)
    rep = check_dc(omega, p)
    assert rep.margin == pytest.approx(margin_oracle(omega, p), rel=1e-12)


def test_rational_frequency_fails_with_zero_margin():
    p = DiophantineParams(d=2, gamma=1e-3, eps=1.0, a=1.0, K_split=6, K_check=12)
    rep = check_dc(np.array([0.5, 0.75]), p)
    assert not rep.ok
    assert rep.margin == pytest.approx(0.0, abs=1e-15)


def test_margin_scales_inversely_with_gamma():
    p1 = DiophantineParams(d=2, gamma=1e-3, eps=0.5, a=1.0, K_split=8, K_check=16)
    p2 = DiophantineParams(d=2, gamma=2e-3, eps=0.5, a=1.0, K_split=8, K_check=16)
    r1 = check_dc(GOLDEN, p1)
    r2 = check_dc(GOLDEN, p2)
    assert r2.margin == pytest.approx(r1.margin / 2, rel=1e-12)
    assert r2.worst_mode == r1.worst_mode


def test_wide_l_scan_agrees_when_gamma_is_large():
    # gamma * eps^(-a) >= 1.4 forces the exhaustive nearest-l fallback
    p = DiophantineParams(d=2, gamma=0.8, eps=0.5, a=1.0, K_split=4, K_check=8)
    rep = check_dc(GOLDEN, p)
    assert rep.margin == pytest.approx(margin_oracle(GOLDEN, p), rel=1e-12)


def margins_full_l_scan(omegas, p, k_chunk=2048):
    """Reference for ``_margins_for``: every row scans l* - reach .. l* + reach.

    This is the kernel before the nearest-l pass and the row blocks, kept
    here so that the two can be compared bit for bit.
    """
    omegas = np.atleast_2d(np.asarray(omegas, dtype=float))
    N = omegas.shape[0]
    ks = _k_enumeration(p.d, p.K_check)
    best = np.full(N, np.inf)
    worst = np.zeros((N, p.d + 1), dtype=np.int64)
    reach = 1 if p.gamma * max(p.eps_pow, 1.0) < 1.4 else 3
    for lo in range(0, ks.shape[0], k_chunk):
        kk = ks[lo: lo + k_chunk]
        knorm = np.abs(kk).sum(axis=1).astype(float)
        z = p.eps_pow * (omegas @ kk.T)
        lstar = -np.rint(z)
        for off in range(-reach, reach + 1):
            lc = lstar + off
            div = np.abs(z + lc)
            order = knorm[None, :] + np.abs(lc)
            b1 = p.bound_regime1(knorm)[None, :]
            b2 = p.bound_regime2(knorm)[None, :]
            margin = div / np.where(order <= p.K_split, b1, b2)
            margin = np.where(order <= p.K_check, margin, np.inf)
            flat = np.argmin(margin, axis=1)
            vals = margin[np.arange(N), flat]
            upd = vals < best
            if np.any(upd):
                best[upd] = vals[upd]
                worst[upd, : p.d] = kk[flat[upd]]
                worst[upd, p.d] = lc[np.arange(N), flat][upd].astype(np.int64)
    return best, worst


def non_nearest_floor(p):
    """Least margin any l other than the nearest can give, for a one-chunk window."""
    knorm = np.abs(_k_enumeration(p.d, p.K_check)).sum(axis=1).astype(float)
    return 0.5 / max(p.bound_regime1(knorm).max(), p.bound_regime2(knorm).max())


def _rows(seed, n, lo, hi):
    return np.random.default_rng(seed).uniform(lo, hi, size=(n, len(lo)))


def _two_chunk_rows():
    om = _rows(1, 37, [1.0, 1.0], [1.3, 1.5])
    om[3] = [0.5, 0.75]   # rational: <(3, -2), omega> = 0, zero margin
    om[10:14] = om[9]     # identical rows tie on every mode
    return om


MARGIN_CASES = {
    # 2550 modes: two k-chunks; 37 rows: two full row blocks and a partial one
    "two_chunks": (dict(d=2, gamma=2e-3, eps=0.1, a=1.0, K_split=28, K_check=50),
                   _two_chunk_rows()),
    # gamma * eps^(-a) = 1.6 >= 1.4: reach 3
    "reach3": (dict(d=2, gamma=0.8, eps=0.5, a=1.0, K_split=4, K_check=12),
               _rows(2, 21, [1.0, 1.0], [2.0, 2.0])),
    # reach 3, and omega = 2.5 keeps only l* + 2 and l* + 3 of k = 1 inside
    # the window: its margin comes from l* + 2
    "reach3_far_l": (dict(d=1, gamma=0.8, eps=0.5, a=1.0, K_split=2, K_check=4),
                     np.array([[2.5], [1.3], [0.4]])),
    # reach 1 with rows ending on both sides of the floor
    "floor_mixed": (dict(d=2, gamma=2e-3, eps=0.1, a=1.0, K_split=12, K_check=30),
                    _rows(2024, 23, [1.0, 1.0], [1.3, 1.5])),
    # z = 1/2 at k = 1: l = 0 and l = -1 give the same margin, at the floor;
    # the full scan meets l = -1 first and keeps it.  Such rows sit in the
    # first and in the second row block.
    "cross_l_tie": (dict(d=1, gamma=1e-3, eps=1.0, a=1.0, K_split=2, K_check=2),
                    np.r_[0.5, 0.3, np.linspace(0.6, 0.9, 15), 0.5, 0.71, 0.5][:, None]),
}


@pytest.mark.parametrize("case", sorted(MARGIN_CASES))
def test_margins_bitwise_equal_to_full_l_scan(case):
    kw, om = MARGIN_CASES[case]
    p = DiophantineParams(**kw)
    margins, worst = _margins_for(om, p)
    ref_margins, ref_worst = margins_full_l_scan(om, p)
    assert np.array_equal(margins, ref_margins)
    assert np.array_equal(worst, ref_worst)
    if case == "two_chunks":
        assert _k_enumeration(p.d, p.K_check).shape[0] > 2048
        assert margins[3] == 0.0
        assert np.array_equal(worst[10:14], np.repeat(worst[9:10], 4, axis=0))
    if case in ("floor_mixed", "cross_l_tie"):
        # the rows at or above the floor are the ones that replay the full scan
        floor = non_nearest_floor(p)
        assert np.any(ref_margins >= floor) and np.any(ref_margins < floor)
    if case == "reach3_far_l":
        assert tuple(ref_worst[0]) == (1, -3)
    if case == "cross_l_tie":
        for row in (0, 17, 19):
            assert ref_margins[row] == non_nearest_floor(p)
            assert tuple(ref_worst[row]) == (1, -1)


def test_find_dc_point_matches_brute_force():
    p = DiophantineParams(d=2, gamma=5e-4, eps=1.0, a=1.0, K_split=6, K_check=12)

    def omega_of(pts):
        return 1.0 + 0.4 * np.asarray(pts) ** 2

    box = ([1.0, 1.0], [1.5, 1.5])
    point, omega, report, records = find_dc_point(omega_of, box, p, grid=5)
    margins = [margin_oracle(omega_of(np.array(r[:2])[None, :])[0], p)
               for r in records]
    best = int(np.argmax(margins))
    np.testing.assert_allclose(point, records[best][:2])
    assert report.margin == pytest.approx(margins[best], rel=1e-12)
    assert len(records) == 25


def test_find_dc_point_ties_break_on_first_grid_point():
    p = DiophantineParams(d=2, gamma=1e-4, eps=1.0, a=1.0, K_split=4, K_check=8)

    def omega_of(pts):  # constant map: every point ties
        return np.broadcast_to(GOLDEN, (len(pts), 2)).copy()

    point, _, _, _ = find_dc_point(omega_of, ([0.0, 0.0], [1.0, 1.0]), p, grid=3)
    np.testing.assert_allclose(point, [0.0, 0.0])


def test_excluded_measure_reproducible_and_monotone(monkeypatch):
    box = ([1.0, 1.0], [2.0, 2.0])
    p_loose = DiophantineParams(d=2, gamma=1e-3, eps=1.0, a=1.0,
                                K_split=20, K_check=40)
    p_tight = DiophantineParams(d=2, gamma=4e-3, eps=1.0, a=1.0,
                                K_split=20, K_check=40)
    f1, h1 = excluded_measure(p_loose, box, n_samples=2000, seed=7)
    f2, _ = excluded_measure(p_loose, box, n_samples=2000, seed=7)
    assert f1 == f2
    monkeypatch.setenv("KAMFORGE_THREADS", "4")
    f3, _ = excluded_measure(p_loose, box, n_samples=2000, seed=7)
    assert f1 == f3
    f4, _ = excluded_measure(p_tight, box, n_samples=2000, seed=7)
    assert 0.0 <= f1 <= f4 <= 1.0
    assert h1 > 0


def test_excluded_measure_rejects_tiny_sample_counts():
    p = DiophantineParams(d=2, gamma=1e-3, K_split=40, K_check=400)
    with pytest.raises(ValueError):
        excluded_measure(p, ([1, 1], [2, 2]), n_samples=10)


def test_parameter_validation():
    with pytest.raises(ValueError):
        DiophantineParams(d=2, gamma=-1.0, K_split=40, K_check=400)
    with pytest.raises(ValueError):
        DiophantineParams(d=2, gamma=1e-3, K_split=40, K_check=400, eps=2.0)
    with pytest.raises(ValueError):
        DiophantineParams(d=2, gamma=1e-3, K_split=10, K_check=5)
