import warnings

import numpy as np
import pytest

from markovlens.operator_core import hermitianize

# hypothesis's pytest plugin imports this module lazily when a property test
# fails; its libcst dependency then warns that mypy_extensions.TypedDict is
# deprecated, which under -W error aborts the session as an INTERNALERROR and
# drops the falsifying example. Import it once here with only that warning
# ignored. libcst is an optional hypothesis extra; without it the plugin skips
# this module too, so there is nothing to import.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def random_hermitian(rng, d):
    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitianize(w)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_density(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def haar_isometry(rng, rows, cols):
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary(rng, d):
    return haar_isometry(rng, d, d)


def random_kraus_set(rng, d, n_ops):
    """Kraus operators of a random CPTP map via a Haar random isometry."""
    v = haar_isometry(rng, d * n_ops, d)
    return [v[i * d:(i + 1) * d, :] for i in range(n_ops)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
