"""The FFT seam: ``util.fftn``, ``util.ifftn`` and ``util.fast_len`` on numpy.

scipy serves only as the oracle here; the package itself does not import it.
"""

import numpy as np
import pytest

from kamforge.util import fast_len, fftn, ifftn


def test_fast_len_matches_scipy_next_fast_len():
    sfft = pytest.importorskip("scipy.fft")
    lens = [fast_len(n) for n in range(1, 4097)]
    assert lens == [sfft.next_fast_len(n, real=False) for n in range(1, 4097)]


def test_complex_fftn_is_bitwise_scipy():
    # the chart's reference spectrum is this transform; verify's defect
    # depends on its bits
    sfft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(3)
    for n in (64, 1024):
        x = rng.standard_normal(n).astype(complex)
        assert np.array_equal(fftn(x), sfft.fftn(x))


@pytest.mark.parametrize("nshape", [(11, 11, 15), (8, 12, 16), (9, 10)])
@pytest.mark.parametrize("batch", [(), (2,), (3, 5)])
def test_ifftn_inverts_fftn_on_the_grid_axes(nshape, batch):
    # grid axes first, value and node axes trailing, as in to_grid/from_grid
    rng = np.random.default_rng(len(nshape) + len(batch))
    x = rng.standard_normal(nshape + batch)
    axes = tuple(range(len(nshape)))
    half = fftn(x, axes=axes)
    assert half.shape == nshape[:-1] + (nshape[-1] // 2 + 1,) + batch
    back = ifftn(half, axes=axes, s=nshape)
    assert back.dtype == float
    assert np.abs(back - x).max() <= 1e-14 * np.abs(x).max()
