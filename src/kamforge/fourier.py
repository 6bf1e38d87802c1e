"""Sparse Fourier fields on the (angle, time) torus with sampled action dependence.

A field f(theta, t, I) is stored as a sparse collection of modes (k, l),
k in Z^d, l in Z, with coefficients that are either plain complex numbers
(action-independent) or arrays of values on a Chebyshev tensor grid over an
action box.  The basis is exp(i(<k, theta> + l t)); angles and time are both
2*pi-periodic.  Every field is a real function: construction enforces the
conjugate symmetry f_hat(-k,-l) = conj(f_hat(k,l)) and raises RealityError
when the given coefficients drift from it, and that check is the reality
guard.  Grid values are therefore real arrays: ``to_grid`` places the l >= 0
half of the spectrum and calls irfftn, ``from_grid`` takes real values
through rfftn, and the shift composition accumulates in float.
"""

import functools
import math

import numpy as np

from .errors import ContractionError, RealityError
from .util import fftn, fmt_float, ifftn

# Relative drift scales like roundoff times the cancellation ratio of the
# assembled grid values, so small remainders extracted from O(1) sums sit
# well above machine epsilon; genuine symmetry bugs show up at O(1).
REALITY_TOL = 1e-8
PRUNE_TOL = 1e-15
# Highest angle order that compose_shifted_grid sums before it reports a stall.
TAYLOR_MAX_ORDER = 12
# Relative size at which a shift composition's Taylor series stops, and the
# fixed-point tolerance of the implicit angle changes built on it.
SHIFT_TOL = 1e-13
# Bytes of complex (points, modes) phase table per block in FourierField.evaluate.
EVAL_BYTES = 64 * 2**20


@functools.lru_cache(maxsize=64)
def ball_modes(d, K):
    """All modes (k_1..k_d, l) with |k|_1 + |l| <= K, in canonical order."""
    rng = np.arange(-K, K + 1)
    grids = np.meshgrid(*([rng] * (d + 1)), indexing="ij")
    modes = np.stack([g.ravel() for g in grids], axis=1)
    modes = modes[np.abs(modes).sum(axis=1) <= K]
    order = np.lexsort(modes.T[::-1])
    out = modes[order]
    out.setflags(write=False)
    return out


def _mode_keys(modes):
    """Integer keys of mode rows that sort like their canonical order."""
    off = int(np.abs(modes).max(initial=0))
    return np.ravel_multi_index((modes + off).T, (2 * off + 1,) * modes.shape[1])


class ActionGrid:
    """Chebyshev-Gauss-Lobatto tensor grid on the box {|I - center|_inf <= tau}.

    Per-mode coefficient arrays carry one trailing axis of length ``n`` per
    action dimension; evaluation between nodes uses barycentric interpolation
    and derivatives use the spectral differentiation matrix.
    """

    def __init__(self, center, tau, n):
        self.center = np.atleast_1d(np.asarray(center, dtype=float)).copy()
        self.center.setflags(write=False)
        self.dim = self.center.size
        self.tau = float(tau)
        self.n = int(n)
        if self.n < 2:
            raise ValueError("need at least 2 nodes per axis")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        j = np.arange(self.n)
        self._xi = -np.cos(np.pi * j / (self.n - 1))  # ascending on [-1, 1]
        self.shape = (self.n,) * self.dim

    def nodes1d(self, axis):
        return self.center[axis] + self.tau * self._xi

    def node_points(self):
        """All tensor nodes as an array of shape (*grid.shape, dim)."""
        axes = [self.nodes1d(j) for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def same_as(self, other):
        return (
            other is not None
            and self.dim == other.dim
            and self.n == other.n
            and abs(self.tau - other.tau) <= 1e-15 * max(1.0, abs(self.tau))
            and np.allclose(self.center, other.center, rtol=0, atol=1e-15)
        )

    @functools.cached_property
    def diff1d(self):
        """Differentiation matrix for values at the 1-d nodes (already scaled by 1/tau)."""
        n, xi = self.n, self._xi
        c = np.ones(n)
        c[0] = c[-1] = 2.0
        sign = (-1.0) ** np.arange(n)
        cs = c * sign
        dx = xi[:, None] - xi[None, :]
        np.fill_diagonal(dx, 1.0)
        D = (cs[:, None] / cs[None, :]) / dx
        np.fill_diagonal(D, 0.0)
        np.fill_diagonal(D, -D.sum(axis=1))
        return D / self.tau

    def gradient(self, values):
        """Action gradient (A, dim * B, N) of flat node values (A, B, N): diff1d on each axis."""
        eye = [np.eye(self.n)] * self.dim
        op = np.concatenate([functools.reduce(np.kron, eye[:j] + [self.diff1d] + eye[j + 1:])
                             for j in range(self.dim)])
        A, B, N = values.shape
        return (values.reshape(A * B, N) @ op.T).reshape(A, B, self.dim, N).swapaxes(1, 2) \
            .reshape(A, self.dim * B, N)

    def interp_matrix(self, pts, axis):
        """Barycentric interpolation matrix: rows map node values to values at pts."""
        x = np.atleast_1d(np.asarray(pts, dtype=float))
        xn = self.nodes1d(axis)
        n = self.n
        w = (-1.0) ** np.arange(n)
        w[0] *= 0.5
        w[-1] *= 0.5
        diff = x[:, None] - xn[None, :]
        exact = np.abs(diff) < 1e-14 * max(self.tau, 1.0)
        diff_safe = np.where(exact, 1.0, diff)
        terms = w[None, :] / diff_safe
        W = terms / terms.sum(axis=1, keepdims=True)
        hit = exact.any(axis=1)
        if np.any(hit):
            W[hit] = 0.0
            W[exact] = 1.0
        return W

    def interp_weights(self, points):
        """Tensor interpolation weights for points (N, dim) -> (N, *grid.shape)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        WW = self.interp_matrix(pts[:, 0], 0)
        for j in range(1, self.dim):
            Wj = self.interp_matrix(pts[:, j], j)
            WW = WW[..., None] * Wj.reshape(Wj.shape[0], *([1] * j), self.n)
        return WW


def _symmetric_part(c):
    """(c + conj(c reversed)) / 2: the conjugate-symmetric part of coefficient rows
    whose mode set is closed under negation and in canonical order."""
    sym = np.conj(c[::-1])
    sym += c
    sym *= 0.5
    return sym


def _encode_reim(arr):
    a = np.asarray(arr)
    if a.ndim == 0:
        return fmt_float(a)
    return [_encode_reim(x) for x in a]


def _decode_reim(obj):
    if isinstance(obj, list):
        return np.array([_decode_reim(x) for x in obj], dtype=float)
    return float(obj)


class FourierField:
    """Truncated Fourier series on T^{d+1} with optional action-node coefficients.

    Parameters
    ----------
    d : int
        Number of angle variables (time adds one more circle).
    modes : (M, d+1) int array
        Rows (k_1, ..., k_d, l).
    coeffs : (M, *vshape, *gridshape) complex array
        One coefficient per mode; ``vshape`` is () for scalar fields, (d,) for
        vector fields, (d, d) for matrix fields.  When ``grid`` is given each
        coefficient is a Chebyshev node array over the action box.
    grid : ActionGrid, optional
    vshape : tuple, optional

    A field carries no domain of its own: the strip width of a weighted norm
    belongs to the stage that takes it and is passed to :meth:`norm`.

    Fields are immutable; every operation returns a new instance.  Every
    construction puts the modes in canonical order, summing duplicate rows,
    and symmetrises the coefficients: they are real functions, whose
    conjugate symmetry, checked at construction, is the reality guard, and
    grid values (``to_grid``, ``from_grid``, ``compose_shifted_grid``) are
    float arrays.  Only real scalars scale a field.
    """

    def __init__(self, d, modes, coeffs, grid=None, vshape=()):
        self.d = int(d)
        self.grid = grid
        self.vshape = tuple(vshape)
        modes = np.asarray(modes, dtype=np.int64).reshape(-1, self.d + 1)
        gshape = grid.shape if grid is not None else ()
        coeffs = np.asarray(coeffs, dtype=complex).reshape(
            modes.shape[0], *self.vshape, *gshape)
        self._modes, self._coeffs = self._merge_sorted(modes, coeffs)
        self.reality_drift = 0.0
        self._symmetrize()
        self._modes.setflags(write=False)
        self._coeffs.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _merge_sorted(modes, coeffs):
        """Rows in strictly increasing canonical order, duplicate modes summed.

        Rows that are already strictly increasing are kept as given.
        """
        keys = _mode_keys(modes)
        if np.all(keys[1:] > keys[:-1]):
            return modes, coeffs
        order = np.argsort(keys, kind="stable")
        modes, coeffs = modes[order], coeffs[order]
        keep = np.ones(modes.shape[0], dtype=bool)
        dup = np.nonzero(keys[order][1:] == keys[order][:-1])[0]
        for i in dup:
            coeffs[i + 1] += coeffs[i]
            keep[i] = False
        return modes[keep], coeffs[keep]

    def _symmetrize(self):
        """Average with the conjugate-negated partner; record the relative drift.

        Canonical (lexicographic) order reverses under negation, so a mode set
        closed under negation is its own reversal and the partner of row i is
        row M-1-i.  Missing partners are merged in with zero coefficients.
        The stored coefficients are always the symmetrised ones, which also
        normalises the sign of zero parts.
        """
        modes = self._modes
        if modes.shape[0] == 0:
            return
        partners = -modes[::-1]
        if not np.array_equal(modes, partners):
            # the partners have the same largest entry, so their keys compare
            # with the modes' keys and sort ascending too
            keys, pkeys = _mode_keys(modes), _mode_keys(partners)
            pos = np.searchsorted(keys, pkeys)
            missing = keys[np.minimum(pos, keys.size - 1)] != pkeys
            self._modes = np.insert(modes, pos[missing], partners[missing], axis=0)
            self._coeffs = np.insert(self._coeffs, pos[missing], 0, axis=0)
        c = self._coeffs
        sym = _symmetric_part(c)
        # exactly symmetric input, the common case, has drift 0 at any scale
        if not np.array_equal(c, sym):
            scale = np.abs(c).max()
            self.reality_drift = float(np.abs(c - sym).max() / scale)
            if self.reality_drift > REALITY_TOL:
                raise RealityError(
                    f"conjugate-symmetry drift {self.reality_drift:.3e} exceeds {REALITY_TOL:.1e}")
        self._coeffs = sym

    @classmethod
    def from_modes(cls, d, mapping, grid=None, vshape=()):
        """Build from a {(k_1, ..., k_d, l): coefficient} mapping."""
        items = sorted(mapping.items())
        modes = np.array([m for m, _ in items], dtype=np.int64).reshape(-1, d + 1)
        gshape = grid.shape if grid is not None else ()
        coeffs = np.array([np.broadcast_to(np.asarray(v, dtype=complex), vshape + gshape)
                           for _, v in items], dtype=complex)
        return cls(d, modes, coeffs, grid=grid, vshape=vshape)

    @classmethod
    def zero(cls, d, grid=None, vshape=()):
        gshape = grid.shape if grid is not None else ()
        return cls(d, np.zeros((0, d + 1), dtype=np.int64),
                   np.zeros((0, *vshape, *gshape), dtype=complex), grid=grid, vshape=vshape)

    def replace(self, modes=None, coeffs=None, grid="keep", vshape=None):
        return FourierField(
            self.d,
            self._modes if modes is None else modes,
            self._coeffs if coeffs is None else coeffs,
            grid=self.grid if grid == "keep" else grid,
            vshape=self.vshape if vshape is None else vshape,
        )

    # -- basic access ----------------------------------------------------------

    @property
    def modes(self):
        return self._modes

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def n_modes(self):
        return self._modes.shape[0]

    def orders(self):
        return np.abs(self._modes).sum(axis=1)

    # -- arithmetic ------------------------------------------------------------

    def _compatible(self, other):
        if self.d != other.d or self.vshape != other.vshape:
            raise ValueError("field shapes do not match")
        if (self.grid is None) != (other.grid is None):
            raise ValueError("cannot combine action-sampled and action-free fields directly")
        if self.grid is not None and not self.grid.same_as(other.grid):
            raise ValueError("action grids do not match")

    def __add__(self, other):
        self._compatible(other)
        modes = np.concatenate([self._modes, other._modes], axis=0)
        coeffs = np.concatenate([self._coeffs, other._coeffs], axis=0)
        return FourierField(self.d, modes, coeffs, grid=self.grid, vshape=self.vshape)

    def __sub__(self, other):
        return self.__add__(other * (-1.0))

    def __mul__(self, scalar):
        if not np.isscalar(scalar) or np.iscomplexobj(scalar):
            raise TypeError("fields only scale by real scalars")
        return self.replace(coeffs=self._coeffs * scalar)

    __rmul__ = __mul__

    # -- spec operations -------------------------------------------------------

    def truncate(self, K):
        """Keep modes with |k|_1 + |l| <= K (the projection Gamma_K)."""
        keep = self.orders() <= K
        return self.replace(modes=self._modes[keep], coeffs=self._coeffs[keep])

    def tail(self, K):
        """Complementary projection: modes with |k|_1 + |l| > K."""
        keep = self.orders() > K
        return self.replace(modes=self._modes[keep], coeffs=self._coeffs[keep])

    def prune(self, rel_tol=PRUNE_TOL):
        """Drop modes whose coefficient magnitude is below rel_tol times the maximum.

        The result keeps this field's ``reality_drift``: its own construction
        starts from symmetrised coefficients and would record 0.
        """
        if self.n_modes == 0:
            return self
        mags = np.abs(self._coeffs).reshape(self.n_modes, -1).max(axis=1)
        top = mags.max()
        keep = mags >= rel_tol * top if top > 0.0 else np.zeros_like(mags, dtype=bool)
        out = self.replace(modes=self._modes[keep], coeffs=self._coeffs[keep])
        out.reality_drift = self.reality_drift
        return out

    def norm(self, s):
        """Weighted-l1 analytic norm on the angle strip of width s.

        The sum over modes of sup-node |coef| * e^{s(|k|+|l|)}; vector and
        matrix values contribute their largest component magnitude.
        """
        if self.n_modes == 0:
            return 0.0
        mags = np.abs(self._coeffs).reshape(self.n_modes, -1).max(axis=1)
        return float(np.sum(mags * np.exp(s * self.orders())))

    def time_derivative(self):
        """Derivative in t: the coefficient of mode (k, l) times i l."""
        factor = 1j * self._modes[:, -1]
        shape = (self.n_modes,) + (1,) * (self._coeffs.ndim - 1)
        return self.replace(coeffs=self._coeffs * factor.reshape(shape))

    def grad_angle(self):
        """Angle gradient, derivative index first: value shape (d,) + vshape."""
        k = self._modes[:, : self.d].T  # (d, M)
        shape = (self.d, self.n_modes) + (1,) * (self._coeffs.ndim - 1)
        c = np.moveaxis((1j * k).reshape(shape) * self._coeffs[None], 0, 1)
        return self.replace(coeffs=c, vshape=(self.d,) + self.vshape)

    def grad_action(self):
        """Action gradient, derivative index first: value shape (dim,) + vshape.

        Each node axis is contracted with the spectral differentiation matrix.
        """
        if self.grid is None:
            raise ValueError("field has no action dependence to differentiate")
        g = self.grid
        c = self._coeffs.reshape(self.n_modes, int(np.prod(self.vshape)), g.n ** g.dim)
        return self.replace(coeffs=g.gradient(c), vshape=(g.dim,) + self.vshape)

    def angle_average(self):
        """Projection onto k = 0: the time-dependent, angle-free part."""
        keep = np.all(self._modes[:, : self.d] == 0, axis=1)
        return self.replace(modes=self._modes[keep], coeffs=self._coeffs[keep])

    def time_average(self):
        """Projection onto the (k, l) = (0, 0) mode (as a function of action)."""
        keep = np.all(self._modes == 0, axis=1)
        return self.replace(modes=self._modes[keep], coeffs=self._coeffs[keep])

    # -- action-node manipulation ----------------------------------------------

    def restrict_action(self, new_grid):
        """Re-sample node coefficients onto another (enclosed) ActionGrid."""
        if self.grid is None:
            raise ValueError("field has no action grid")
        c = self._coeffs
        base = self._coeffs.ndim - self.grid.dim
        for j in range(self.grid.dim):
            M = self.grid.interp_matrix(new_grid.nodes1d(j), j)
            c = np.moveaxis(np.tensordot(c, M, axes=([base + j], [1])), -1, base + j)
        return self.replace(coeffs=c, grid=new_grid)

    def broadcast_action(self, grid):
        """Give an action-independent field constant values on an ActionGrid."""
        if self.grid is not None:
            raise ValueError("field already has an action grid")
        c = np.broadcast_to(self._coeffs[(...,) + (None,) * grid.dim],
                            self._coeffs.shape + grid.shape).copy()
        return self.replace(coeffs=c, grid=grid)

    def interp_action(self, points):
        """Mode coefficients interpolated at action points (N, dim) -> (M, *vshape, N)."""
        if self.grid is None:
            raise ValueError("field has no action grid")
        WW = self.grid.interp_weights(points)  # (N, *gshape)
        gaxes = list(range(self._coeffs.ndim - self.grid.dim, self._coeffs.ndim))
        return np.tensordot(self._coeffs, WW, axes=(gaxes, list(range(1, self.grid.dim + 1))))

    def interp_jet(self, points):
        """Mode coefficients of the value, action gradient and action Hessian at points (N, dim).

        Returns arrays of shapes (M, *vshape, N), (M, dim, *vshape, N) and
        (M, dim, dim, *vshape, N).
        """
        grad = self.grad_action()
        return tuple(f.interp_action(points) for f in (self, grad, grad.grad_action()))

    def at_action(self, point):
        """Action-independent field: coefficients frozen at one action point."""
        c = self.interp_action(np.atleast_2d(point))[..., 0]
        return self.replace(coeffs=c, grid=None)

    # -- evaluation and grids ----------------------------------------------------

    def evaluate(self, theta, t, I=None):
        """Evaluate at points; returns real values (imaginary residue checked).

        theta: (N, d) or (d,); t: (N,) or scalar; I: (N, dim), (dim,), or None.
        Per block of points, the phase table E (points, modes) multiplies the
        coefficients once, and the result is contracted with each point's
        barycentric action weights; an action-free field has one node of
        weight 1.
        """
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        single = theta.shape[0] == 1 and np.ndim(t) == 0
        N = theta.shape[0]
        t_arr = np.broadcast_to(np.asarray(t, dtype=float), (N,))
        if self.grid is None:
            W = np.ones((N, 1))
        else:
            if I is None:
                raise ValueError("field has action dependence; provide I")
            I_arr = np.broadcast_to(np.atleast_2d(np.asarray(I, dtype=float)),
                                    (N, self.grid.dim))
            W = self.grid.interp_weights(I_arr).reshape(N, -1)
        C = int(np.prod(self.vshape))
        coeffs = self._coeffs.reshape(self.n_modes, C * W.shape[1])
        K = self._modes[:, : self.d]
        L = self._modes[:, -1]
        out = np.zeros((N, C), dtype=complex)
        step = max(1, EVAL_BYTES // (16 * max(self.n_modes, 1)))
        for lo in range(0, N, step):
            hi = min(N, lo + step)
            E = np.exp(1j * (theta[lo:hi] @ K.T + np.outer(t_arr[lo:hi], L)))
            Y = (E @ coeffs).reshape(hi - lo, C, W.shape[1])
            out[lo:hi] = np.einsum("ncq,nq->nc", Y, W[lo:hi])
        scale = max(1.0, float(np.abs(out).max(initial=0.0)))
        imag = float(np.abs(out.imag).max(initial=0.0))
        if imag > 1e-12 * scale:
            raise RealityError(f"imaginary residue {imag:.3e} on evaluation of a real field")
        res = out.real.reshape((N,) + self.vshape)
        return res[0] if single else res

    def to_grid(self, nshape):
        """Real values on the uniform (theta, t) grid, shape (*nshape, *vshape, *gridshape).

        Only the l >= 0 half of the spectrum is placed; irfftn supplies the
        conjugate l < 0 half.
        """
        nshape = tuple(int(n) for n in nshape)
        if len(nshape) != self.d + 1:
            raise ValueError("grid shape must have d+1 entries")
        if np.any(2 * np.abs(self._modes).max(axis=0, initial=0) + 1 > nshape):
            raise ValueError("grid too small for stored modes (aliasing collision)")
        C = np.zeros(nshape[:-1] + (nshape[-1] // 2 + 1,) + self._coeffs.shape[1:], dtype=complex)
        upper = self._modes[:, -1] >= 0
        C[tuple(np.mod(self._modes[upper], nshape).T)] = self._coeffs[upper]
        return ifftn(C, axes=tuple(range(len(nshape))), s=nshape) * np.prod(nshape)

    @classmethod
    def from_grid(cls, values, d, cutoff, grid=None, vshape=()):
        """Project real uniform (theta, t)-grid values onto modes with |k|+|l| <= cutoff.

        The l >= 0 coefficients come from rfftn and the l < 0 ones are the
        conjugates of their mirror modes.  The relative coefficient mass of the
        full spectrum outside the retained ball is stored on the result as
        ``projection_residual``, and the departure of the l = 0 plane from
        conjugate symmetry, relative to the largest coefficient of the
        spectrum, as ``reality_drift``.
        """
        values = np.asarray(values)
        if np.iscomplexobj(values):
            raise TypeError("from_grid takes real grid values")
        nshape = values.shape[: d + 1]
        C = fftn(values.astype(float, copy=False), axes=tuple(range(d + 1))) / np.prod(nshape)
        half = tuple((n - 1) // 2 for n in nshape)
        all_modes = ball_modes(d, int(min(cutoff, sum(half))))
        keep = np.ones(all_modes.shape[0], dtype=bool)
        for j in range(d + 1):
            keep &= np.abs(all_modes[:, j]) <= half[j]
        modes = all_modes[keep]
        upper = modes[:, -1] >= 0
        mirror = np.where(upper[:, None], modes, -modes)
        idx = tuple(np.mod(mirror[:, j], nshape[j]) for j in range(d + 1))
        coeffs = C[idx]
        coeffs[~upper] = np.conj(coeffs[~upper])
        # only the l = 0 plane, whose partners both come from rfftn, can drift,
        # and only by the transform's roundoff: measured against the whole
        # spectrum, so that a field of roundoff alone does not read as complex
        sym = _symmetric_part(coeffs)
        scale = np.abs(C).max(initial=0.0)
        drift = float(np.abs(coeffs - sym).max(initial=0.0) / scale) if scale > 0 else 0.0
        # the half spectrum stands for its mirror too, except on the l = 0
        # plane and on the Nyquist plane of an even time axis
        weight = np.full(C.shape[d], 2.0)
        weight[0] = 1.0
        if nshape[-1] % 2 == 0:
            weight[-1] = 1.0
        mass = np.abs(C).sum(axis=tuple(a for a in range(C.ndim) if a != d))
        total = float(weight @ mass)
        kept = float(np.abs(coeffs).sum())
        residual = 0.0 if total == 0 else max(0.0, (total - kept) / total)
        f = cls(d, modes, sym, grid=grid, vshape=vshape)
        f.reality_drift = drift
        f = f.prune()
        f.projection_residual = residual
        return f

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self):
        """JSON form of an action-free field (the only kind a torus file holds)."""
        return {
            "d": self.d,
            "vshape": list(self.vshape),
            "modes": [
                {
                    "k": [int(x) for x in m[: self.d]],
                    "l": int(m[-1]),
                    "re": _encode_reim(c.real),
                    "im": _encode_reim(c.imag),
                }
                for m, c in zip(self._modes, self._coeffs)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj):
        """Action-free field from its JSON form; other unknown keys are ignored."""
        if "grid" in obj:
            raise ValueError("a stored field must be action-free: unexpected key 'grid'")
        d = int(obj["d"])
        vshape = tuple(obj.get("vshape", []))
        modes = np.array([list(m["k"]) + [m["l"]] for m in obj["modes"]],
                         dtype=np.int64).reshape(-1, d + 1)
        coeffs = np.array(
            [_decode_reim(m["re"]) + 1j * _decode_reim(m["im"]) for m in obj["modes"]],
            dtype=complex).reshape(-1, *vshape)
        return cls(d, modes, coeffs, vshape=vshape)


class ShiftGrids:
    """The angle-derivative grids of one field f on the uniform (theta, t) grid ``nshape``.

    ``derivative(alpha)`` places the Taylor term d^alpha f / dtheta^alpha / alpha!
    on that grid crossed with f's action nodes, (points, components, nodes),
    and keeps nothing.  The views ``grad_angle()`` and ``grad_action()`` read
    df/dtheta and df/drho off grids of f that the family keeps across calls:
    df/dtheta_j's alpha-grid is f's (alpha + e_j)-grid times alpha_j + 1, and
    df/drho's is f's alpha-grid through ``ActionGrid.gradient``, exact as
    node values are polynomials.
    """

    def __init__(self, field, nshape):
        self.field, self.nshape, self.kept = field, tuple(nshape), {}
        self.d, self.vshape, self.grid = field.d, field.vshape, field.grid

    def derivative(self, alpha):
        f, P, C = self.field, int(np.prod(self.nshape)), int(np.prod(self.vshape))
        fac = 1j ** sum(alpha) * np.prod(np.power(f.modes[:, : f.d], alpha, dtype=float), axis=1) \
            / math.prod(map(math.factorial, alpha))
        return f.replace(coeffs=f.coeffs * fac.reshape((-1,) + (1,) * (f.coeffs.ndim - 1))) \
            .to_grid(self.nshape).reshape(P, C, -1)

    def _keep(self, alpha):
        if alpha not in self.kept:
            self.kept[alpha] = self.derivative(alpha)
        return self.kept[alpha]

    def grad_angle(self):
        return _Gradient(self, self.d, lambda alpha: np.concatenate([
            (alpha[j] + 1) * self._keep(alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:])
            for j in range(self.d)], 1))

    def grad_action(self):
        return _Gradient(self, self.grid.dim, lambda alpha: self.grid.gradient(self._keep(alpha)))


class _Gradient:
    """df/dtheta or df/drho of a ShiftGrids family: its grids, derivative index first."""

    def __init__(self, family, n, derivative):
        self.nshape, self.d, self.grid = family.nshape, family.d, family.grid
        self.vshape, self.derivative = (n,) + family.vshape, derivative


def compose_shifted_grid(grids, dtheta=None, rho=None):
    """Grid values of f(theta + dtheta, t, rho), Taylor in the angles only.

    ``grids`` is a ``ShiftGrids`` family of f, or one of its views.  The
    values live on its (theta, t) grid crossed with f's action nodes, or
    with the action points ``rho`` given per grid point.  The series sums
    alpha-grids times shift^alpha; each value component's series
    runs until its last order is below ``SHIFT_TOL`` relative to that
    component's sum.  The action argument is exact: node coefficients are
    polynomials in the action, so each derivative grid is contracted with
    the barycentric weights of f's action grid at ``rho``.

    ``dtheta`` is broadcastable to (*nshape, *gshape, d), and ``rho`` has
    shape (*nshape, *gshape, dim) for any ``gshape``; without ``rho``, gshape
    is f's own node shape (() for an action-free field, which takes none).
    Returns the float values (*nshape, *gshape, *vshape) and the largest
    relative size of the last angle order over the components (0 without
    ``dtheta``: the action argument is exact).
    """
    nshape, d = grids.nshape, grids.d
    nodes = grids.grid.shape if grids.grid is not None else ()
    gshape = nodes if rho is None else rho.shape[len(nshape):-1]
    P, Q, C = int(np.prod(nshape)), int(np.prod(gshape)), int(np.prod(grids.vshape))
    W = None
    if rho is not None:
        if grids.grid is None:
            raise ValueError("an action-free field takes no action points")
        # (P, field nodes, Q): g @ W contracts a grid's node axis
        W = grids.grid.interp_weights(rho.reshape(-1, grids.grid.dim)).reshape(P, Q, -1) \
            .transpose(0, 2, 1)

    def values(alpha, active):
        """The alpha-grid (P, active components, Q) at the points."""
        g = grids.derivative(alpha)
        if active.size < C:
            g = g[:, active]
        return g if W is None else g @ W

    def peak(a):
        return np.abs(a).max(axis=2).max(axis=0)

    zero = (0,) * d
    active = np.arange(C)
    accum = np.zeros((P, C, Q))
    accum += values(zero, active)
    err = np.zeros(C)
    if dtheta is not None:
        shift = np.broadcast_to(dtheta, nshape + gshape + (d,)).reshape(P, Q, d)
        # order-n monomials shift^alpha keyed by alpha, each one multiply from
        # a parent one order below
        level = {zero: 1.0}
        last = np.where(peak(accum) > 0, 1.0, 0.0)
        for _ in range(TAYLOR_MAX_ORDER):
            nxt = {}
            contrib = np.zeros((P, active.size, Q))
            for parent, mono in level.items():
                first = max((j for j in range(d) if parent[j]), default=0)
                for j in range(first, d):
                    alpha = parent[:j] + (parent[j] + 1,) + parent[j + 1:]
                    nxt[alpha] = mono * shift[..., j]
                    contrib += values(alpha, active) * nxt[alpha][:, None]
            level = nxt
            accum[:, active] += contrib
            err[active] = peak(contrib) / np.maximum(peak(accum[:, active]), 1e-300)
            done = (err[active] < SHIFT_TOL) & (last[active] < SHIFT_TOL)
            last[active] = err[active]
            active = active[~done]
            if active.size == 0:
                break
        else:
            if err.max() > 100 * SHIFT_TOL:
                raise ContractionError(
                    f"shift-composition Taylor series stalled at relative size {err.max():.3e}")
    out = accum.transpose(0, 2, 1).reshape(nshape + gshape + grids.vshape)
    return out, float(err.max(initial=0.0))


def action_jet(field, point):
    """Quadratic action jet (r0, r1, r2) of a node-sampled scalar field at an action point.

    field(theta, t, point + rho) = r0 + <r1, rho> + <r2 rho, rho> + O(|rho|^3):
    r0, r1 and r2 are action-free scalar, vector and symmetric matrix fields,
    the value, gradient and half Hessian of each mode coefficient at ``point``.
    """
    d = field.grid.dim
    c0, c1, c2 = (c[..., 0] for c in field.interp_jet(np.atleast_2d(point)))
    c2 = 0.25 * (c2 + np.swapaxes(c2, 1, 2))
    return (field.replace(coeffs=c0, grid=None).prune(),
            field.replace(coeffs=c1, vshape=(d,), grid=None).prune(),
            field.replace(coeffs=c2, vshape=(d, d), grid=None).prune())
