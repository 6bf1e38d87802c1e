"""Small shared helpers: the FFT seam, threading knob, deterministic CSV output, config hashing.

Every FFT in the package goes through ``fftn``/``ifftn`` here, on numpy's
pocketfft.  ``numpy.fft`` and ``numpy.random`` load lazily in numpy 2; they
are imported with this module so that a run pays for them at start-up, not
inside its first transform or its first generator.
"""

import csv
import hashlib
import json
import os

import numpy as np
import numpy.fft
import numpy.random

_ENV_THREADS = "KAMFORGE_THREADS"


def get_workers():
    """Thread cap of the excluded-measure pool, from KAMFORGE_THREADS (default 1)."""
    raw = os.environ.get(_ENV_THREADS, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def fftn(a, axes=None):
    """Forward FFT over ``axes``; a real input gives the half spectrum of rfftn."""
    if np.isrealobj(a):
        return np.fft.rfftn(a, axes=axes)
    return np.fft.fftn(a, axes=axes)


def ifftn(a, axes, s):
    """Inverse of a half spectrum over ``axes`` (irfftn): real values of shape ``s`` there."""
    return np.fft.irfftn(a, s=s, axes=axes)


def fast_len(n):
    """Smallest 11-smooth integer >= n: a transform length with only radices 2 to 11."""
    m = max(1, int(n))
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def fmt_float(x):
    """Decimal string with 17 significant digits (binary-exact round trip)."""
    return format(float(x), ".17g")


def config_hash(obj):
    """Stable short hash of a JSON-serializable configuration object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_csv(path, columns, rows, comment=None):
    """Write rows to CSV with a header row and an optional leading comment line.

    Floats are rendered with :func:`fmt_float` so repeated runs produce
    byte-identical files.
    """

    def render(v):
        if isinstance(v, (float, np.floating)):
            return fmt_float(v)
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return str(v)

    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([render(v) for v in row])


def spawn_rngs(seed, n):
    """n independent generators derived deterministically from one seed."""
    seqs = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(s) for s in seqs]
