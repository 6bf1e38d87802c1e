import numpy as np
import pytest

from kamforge.diophantine import (DiophantineParams, check_dc, excluded_measure,
                                  find_dc_point)


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
    p = DiophantineParams(d=2, gamma=1e-3)
    with pytest.raises(ValueError):
        excluded_measure(p, ([1, 1], [2, 2]), n_samples=10)


def test_parameter_validation():
    with pytest.raises(ValueError):
        DiophantineParams(d=2, gamma=-1.0)
    with pytest.raises(ValueError):
        DiophantineParams(d=2, eps=2.0)
    with pytest.raises(ValueError):
        DiophantineParams(d=2, K_split=10, K_check=5)
