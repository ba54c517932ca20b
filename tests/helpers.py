"""Shared helpers for the test suite: seeded random objects, a run under a
file size limit, and checks that a forked run left nothing behind."""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest


def random_orthogonal(rng, n):
    """Haar-ish orthogonal matrix from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n, spread=3.0):
    """SPD matrix with eigenvalues log-uniform in about [1/spread, spread]."""
    q = random_orthogonal(rng, n)
    values = np.exp(rng.uniform(-np.log(spread), np.log(spread), n))
    return (q * values) @ q.T


def random_moments(rng, n, spread=3.0):
    from gaussmatch import Moments

    return Moments(mean=rng.normal(0.0, 2.0, n), cov=random_spd(rng, n, spread))


def random_dataset(rng, dim, count):
    """Gaussian-ish sample with a well-conditioned covariance."""
    cov = random_spd(rng, dim, spread=2.5)
    chol = np.linalg.cholesky(cov)
    return rng.normal(0.0, 2.0, dim) + rng.standard_normal((count, dim)) @ chol.T


def run_with_file_size_limit(limit, code, *args):
    """Run Python ``code`` with ``args`` as ``sys.argv[1:]`` in a fresh interpreter
    whose writes past ``limit`` bytes of a file fail with EFBIG, as at a full disk."""
    script = (
        "import resource, signal\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.RLIM_INFINITY))\n"
    ) + code
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True)


def no_child_left():
    # waitpid of any child raises ChildProcessError where there is none
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def nothing_left():
    """No child is left, and a file left open warns now, in the test that
    left it: pyproject.toml makes ResourceWarning an error."""
    no_child_left()
    gc.collect()
