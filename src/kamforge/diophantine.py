"""Two-regime Diophantine conditions, frequency selection, and excluded-measure estimates.

A frequency omega passes at parameters p when

* |eps^(-a) <k, omega> + l| >= eps^(-a) * gamma / |k|^(d+1)       for k != 0,
  |k| + |l| <= K_split  (the resonant low-order regime), and
* |eps^(-a) <k, omega> + l| >= gamma / (1 + |k|)^(d+1)            for
  K_split < |k| + |l| <= K_check (the classical regime, checked on a finite
  window; beyond the window the divisor is dominated by |l| and grows).

Only the integer l nearest to -eps^(-a) <k, omega> can violate either bound
once gamma * eps^(-a) < 1/2, which the enumeration below exploits; a guard
falls back to an exhaustive l scan when that margin is not available.
"""

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .util import get_workers, spawn_rngs, write_csv


@dataclass
class DiophantineParams:
    """Parameters of the two-regime small-divisor condition."""

    d: int
    gamma: float = 1e-3
    eps: float = 1.0
    a: float = 1.0
    K_split: int = 40
    K_check: int = 0  # 0 means the default 10 * K_split

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.K_check == 0:
            self.K_check = 10 * self.K_split
        if self.K_check < self.K_split:
            raise ValueError("K_check must be at least K_split")

    @property
    def eps_pow(self):
        return self.eps ** (-self.a)

    def bound_regime1(self, knorm):
        return self.eps_pow * self.gamma / knorm ** (self.d + 1)

    def bound_regime2(self, knorm):
        return self.gamma / (1.0 + knorm) ** (self.d + 1)


@functools.lru_cache(maxsize=32)
def _k_enumeration(d, K):
    """Nonzero k with |k|_1 <= K, one representative per {k, -k} pair."""
    rng = np.arange(-K, K + 1)
    grids = np.meshgrid(*([rng] * d), indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    ks = ks[np.abs(ks).sum(axis=1) <= K]
    ks = ks[np.any(ks != 0, axis=1)]
    # canonical half: first nonzero entry positive
    lead = np.zeros(ks.shape[0], dtype=bool)
    undecided = np.ones(ks.shape[0], dtype=bool)
    for j in range(d):
        col = ks[:, j]
        lead |= undecided & (col > 0)
        undecided &= col == 0
    ks = ks[lead]
    ks.setflags(write=False)
    return ks


@dataclass
class DcReport:
    """Outcome of a Diophantine check at one frequency."""

    ok: bool
    margin: float
    worst_mode: tuple
    n_checked: int
    omega: np.ndarray = field(default=None)


def _margins_for(omegas, p, k_chunk=2048):
    """Worst margin (min over modes of |divisor| / bound) for each frequency row.

    Returns (margins, worst_modes) where worst_modes is an int array (N, d+1).
    """
    omegas = np.atleast_2d(np.asarray(omegas, dtype=float))
    N = omegas.shape[0]
    ks = _k_enumeration(p.d, p.K_check)
    best = np.full(N, np.inf)
    worst = np.zeros((N, p.d + 1), dtype=np.int64)
    # Any l beyond the three nearest integers has |divisor| >= 3/2, hence a
    # margin of at least 1.5 / (gamma * max(eps^(-a), 1)); wider scans only
    # matter when gamma is so large that the condition is vacuous anyway.
    reach = 1 if p.gamma * max(p.eps_pow, 1.0) < 1.4 else 3
    for lo in range(0, ks.shape[0], k_chunk):
        kk = ks[lo: lo + k_chunk]
        knorm = np.abs(kk).sum(axis=1).astype(float)
        z = p.eps_pow * (omegas @ kk.T)  # (N, C)
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


def check_dc(omega, p):
    """Check the two-regime condition for one frequency on the finite window."""
    omega = np.asarray(omega, dtype=float)
    margins, worst = _margins_for(omega[None, :], p)
    ks = _k_enumeration(p.d, p.K_check)
    n_modes = int(ks.shape[0])
    return DcReport(
        ok=bool(margins[0] >= 1.0),
        margin=float(margins[0]),
        worst_mode=tuple(int(x) for x in worst[0]),
        n_checked=n_modes,
        omega=omega,
    )


def find_dc_point(omega_of, box, p, grid=33, point_chunk=1024):
    """Scan an action box for the point whose frequency has the largest DC margin.

    Parameters
    ----------
    omega_of : callable
        Maps an (N, dim) array of actions to (N, d) frequencies.
    box : (lo, hi) pair of length-dim sequences.
    grid : int
        Points per axis for the scan.

    Returns
    -------
    (point, omega, report, records) where records is a list of per-point rows
    (action..., omega..., margin, worst k..., worst l) suitable for CSV export.
    Ties in the margin break lexicographically on the grid point.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    dim = lo.size
    axes = [np.linspace(lo[j], hi[j], grid) for j in range(dim)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    omegas = np.asarray(omega_of(pts), dtype=float)
    margins = np.empty(pts.shape[0])
    worsts = np.empty((pts.shape[0], p.d + 1), dtype=np.int64)
    for s in range(0, pts.shape[0], point_chunk):
        e = min(pts.shape[0], s + point_chunk)
        margins[s:e], worsts[s:e] = _margins_for(omegas[s:e], p)
    best = int(np.argmax(margins))  # argmax returns the first (lexicographic) maximizer
    records = [
        list(pts[i]) + list(omegas[i]) + [margins[i]] + list(worsts[i])
        for i in range(pts.shape[0])
    ]
    report = DcReport(
        ok=bool(margins[best] >= 1.0),
        margin=float(margins[best]),
        worst_mode=tuple(int(x) for x in worsts[best]),
        n_checked=int(_k_enumeration(p.d, p.K_check).shape[0]),
        omega=omegas[best],
    )
    return pts[best], omegas[best], report, records


def margin_map_csv(path, records, dim, d, comment=None):
    cols = ([f"I_{j + 1}" for j in range(dim)] + [f"omega_{j + 1}" for j in range(d)]
            + ["margin"] + [f"worst_k_{j + 1}" for j in range(d)] + ["worst_l"])
    write_csv(path, cols, records, comment=comment)


def excluded_measure(p, box, n_samples=10_000, seed=0, blocks=16):
    """Monte-Carlo estimate of the excluded-frequency fraction over a box.

    Samples frequencies uniformly, counts DC failures, and returns
    (fraction, half_width) where half_width is the 95% binomial confidence
    half-interval.  Blocks get independent deterministic substreams, so the
    result does not depend on the worker-thread count.
    """
    if n_samples < 1000:
        raise ValueError("use at least 1000 samples for a meaningful estimate")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    rngs = spawn_rngs(seed, blocks)
    sizes = np.full(blocks, n_samples // blocks)
    sizes[: n_samples % blocks] += 1

    def run_block(args):
        rng, size = args
        om = rng.uniform(lo, hi, size=(size, lo.size))
        margins, _ = _margins_for(om, p)
        return int(np.sum(margins < 1.0))

    workers = get_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            fails = list(ex.map(run_block, zip(rngs, sizes)))
    else:
        fails = [run_block(args) for args in zip(rngs, sizes)]
    n_fail = sum(fails)
    frac = n_fail / n_samples
    half = 1.96 * np.sqrt(max(frac * (1 - frac), 1.0 / n_samples) / n_samples)
    return frac, half
