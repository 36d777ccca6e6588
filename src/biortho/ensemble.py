"""Lower-triangular matrix ensemble: sampling and spectra of S/n.

T is n x n lower triangular with independent entries: standard complex
Gaussians below the diagonal, and diagonal entries with uniform phase and
squared modulus Gamma(c_j, 1) where c_j = theta*(j-1) + b (the polar density
e^{-r^2} r^{2(c_j-1)} in the modulus is exactly Gamma(c_j) in r^2).  The
empirical spectral measure of S/n = T T*/n is the object of interest; at
theta=0, b=1 all nonzero entries are i.i.d. standard complex Gaussians.

Randomness comes from counter-based Philox streams keyed by (seed, trial)
(rng_stream, which also keys the gas sampler's chains), so each trial is
reproducible on its own, whatever trials run before it.  Seeds (-2**63 to
2**64 - 1) and trial indices (0 to 2**64 - 1) are integers, numpy integers
too; a negative seed keys its 64-bit two's complement, so -1 and 2**64 - 1
share a stream.  Trials run one after another; BLAS threads each SVD.
"""

from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure
from .special import check_count

_MASK64, _SEED_LEAST = 2 ** 64 - 1, -2 ** 63


@dataclass(frozen=True)
class EnsembleParams:
    """Matrix-model parameters; c_j = theta*(j-1) + b must stay positive
    and finite, which finite theta >= 0 and b > 0 guarantee."""

    n: int
    theta: float
    b: float
    seed: int

    def __post_init__(self):
        check_count("n", self.n, 1)
        check_count("seed", self.seed, _SEED_LEAST, _MASK64)
        if not 0 <= self.theta < np.inf:
            raise ValueError("theta must be finite and >= 0")
        if not 0 < self.b < np.inf:
            raise ValueError("b must be finite and > 0")


def rng_stream(seed, stream=0):
    """Philox generator keyed by (seed, stream), the stream a matrix trial
    or a gas chain; streams are independent."""
    check_count("seed", seed, _SEED_LEAST, _MASK64)
    check_count("stream", stream, 0, _MASK64)
    return np.random.Generator(
        np.random.Philox(key=np.array([int(seed) & _MASK64, int(stream) & _MASK64],
                                      dtype=np.uint64)))


def sample_triangular(params, trial=0):
    """One draw of the lower-triangular matrix T; deterministic in
    (params.seed, trial), trial an integer >= 0."""
    check_count("trial", trial, 0, _MASK64)
    rng = rng_stream(params.seed, trial)
    n = params.n
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t = np.tril(z, k=-1) * np.sqrt(0.5)
    c = params.theta * np.arange(n) + params.b
    radii = np.sqrt(rng.gamma(shape=c))
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    t[np.diag_indices(n)] = radii * np.exp(1j * phases)
    return t


def sample_spectrum(params, trial=0):
    """Empirical measure of the eigenvalues of T T*/n for one trial.

    Computed as squared singular values of T rather than an eigensolve of
    the product T T*: the smallest eigenvalues of this ensemble sit far
    below eps * ||S|| (the spectral law piles up mass near 0 like
    1/(x log^2 x)), and the product route returns them as signed rounding
    noise, whereas singular values stay positive with a floor around
    (eps * sigma_max)^2.  Same spectrum mathematically; trace identities
    hold to rounding.
    """
    sv = np.linalg.svd(sample_triangular(params, trial), compute_uv=False)
    return EmpiricalMeasure(sv ** 2 / params.n)


def largest_particle(m):
    """Maximum support point of an empirical measure."""
    if m.n == 0:
        raise ValueError("empty measure has no largest particle")
    return float(m.points[-1])


def sample_spectra(params, trials):
    """Spectra for trials 0..trials-1, in trial order."""
    check_count("trials", trials)
    return [sample_spectrum(params, k) for k in range(trials)]
