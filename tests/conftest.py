"""Shared fixtures: the default 12-satellite scenario, one large trial batch and
the checked-in horizon rings, plus the dense extended-precision spectrum the
oracle tests compare against."""

import json
from pathlib import Path

import mpmath
import pytest

from edmdetect import NoiseModel, generate_constellation, run_trials

DEFAULT_SEED = 1
MASTER_SEED = 42
RINGS = Path(__file__).resolve().parent / "data" / "rings"


@pytest.fixture(scope="session")
def scenario12():
    return generate_constellation(12, 10.0, seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def noise_default():
    return NoiseModel(sigma_v=3.0, bias_b=1.0e5)


@pytest.fixture(scope="session")
def mc100k(scenario12, noise_default):
    """100,000 trials at the default scenario, shared across test modules.

    Trial t's noise depends only on (master seed, t), so any prefix of this
    batch is bit-identical to an independent shorter run.
    """
    return run_trials(scenario12, noise_default, 100_000, MASTER_SEED)


@pytest.fixture(scope="session")
def lambda_matrix_100k(mc100k):
    return mc100k.lambdas


@pytest.fixture(scope="session")
def rings():
    """The horizon-ring scenario files (data/rings, written by make_rings.py).

    One (path, manifest row) per file, in manifest order. A row holds the
    file's VDOP, its predict exit code and sigma_q, and its 200k-trial
    moments of q; see make_rings.py.
    """
    manifest = json.loads((RINGS / "manifest.json").read_text())
    return [(RINGS / row["file"], row) for row in manifest["scenarios"]]


def dense_mp_eigenvalues(satellites, rho, dps=40):
    """All m + 1 eigenvalues of the literal -J D J / 2 at ``dps`` digits, ranked by magnitude.

    D is built entry by entry from the positions and the pseudoranges in
    mpmath and diagonalized with mpmath's dense symmetric solver, so this
    reference shares no numerics with the library (neither its float
    pipeline nor its rank-5 reductions). Signed values are kept.
    """
    with mpmath.workdps(dps):
        m = len(rho)
        n = m + 1
        D = mpmath.zeros(n, n)
        for a in range(m):
            for b in range(m):
                if a != b:
                    D[a + 1, b + 1] = sum(
                        (mpmath.mpf(float(satellites[a][k])) - mpmath.mpf(float(satellites[b][k])))
                        ** 2 for k in range(3)
                    )
            D[0, a + 1] = D[a + 1, 0] = mpmath.mpf(rho[a]) ** 2
        J = mpmath.eye(n) - mpmath.ones(n, n) / n
        E = mpmath.eigsy(-J * D * J / 2, eigvals_only=True)
        return sorted((E[i] for i in range(n)), key=lambda x: -abs(x))
