"""Two-interaction log-gas on (0, inf)^n and its Metropolis sampler.

The target is the unnormalized density

    exp(-n sum V(x_i)) * prod x_j^(b-1) * prod_{i<j} |x_i-x_j| |g(x_i)-g(x_j)|

for an increasing interaction map g and a confining potential V that grows
faster than (b+1)*log at infinity (checked heuristically before sampling).
Each interaction kind is one row of the table _G_KINDS, which holds g and
log|g| as functions of (x, theta); V is one polynomial, evaluated by
Horner's rule (`linear:a` is the polynomial 0 + a*x).

The sampler is single-coordinate Metropolis on log coordinates -- the state
space is (0, inf)^n and a multiplicative walk is scale-free there -- with
the log-coordinate Jacobian folded into the acceptance ratio.  Step sizes
adapt by Robbins-Monro during burn-in only and are frozen afterwards, so
retained samples come from a fixed reversible kernel.

Several chains run in lock-step on one thread: coordinate i of every chain
is updated by one set of numpy operations on (chains, n) arrays.  Chain c
draws from ensemble.rng_stream(seed, c), the (seed, stream) key rule of the
matrix trials, and the arithmetic is the single-chain arithmetic in the
same order.  So chain c is bit for bit the same in every run of more than
c chains at that seed, and chain 0 is the single-chain run.

Each sweep forms all proposals up front and copies, per coordinate i, the
proposal and the current value of x_i and g(x_i) into `centres`, shaped
(coordinate, [x, g], [new, old], chain).  The current value is exact for
the whole sweep: only coordinate i's own update changes it.  Step i is then
one subtraction of the state from `centres[i]` into `gaps`, shaped
([x, g], [new, old], chain, coordinate), whose flat channels are new x,
old x, new g, old g; one abs, one log and one row sum over the contiguous
last axis follow.  The views each step uses are built once per call.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import rng_stream
from .measures import EmpiricalMeasure

# kind -> (g, log|g|), each a function of (x, theta); log|g| is
# overflow-safe (log exp(x) = x without forming exp(x))
_G_KINDS = {
    "power": (lambda x, t: x ** t,
              lambda x, t: t * np.log(x)),
    "log": (lambda x, t: np.log(x),
            lambda x, t: np.log(np.abs(np.log(x)))),
    "asinh2": (lambda x, t: np.arcsinh(np.sqrt(x)) ** 2,
               lambda x, t: 2.0 * np.log(np.arcsinh(np.sqrt(x)))),
    "exp": (lambda x, t: np.exp(x),
            lambda x, t: x + 0.0),
    "identity": (lambda x, t: x + 0.0,
                 lambda x, t: np.log(x)),
}
_COINCIDENCE_TOL = 1e-14
_GROWTH_CHECKPOINTS = (1e2, 1e4, 1e6, 1e8)
_TARGET_ACCEPT = 0.35        # burn-in adapts step sizes toward this rate


@dataclass(frozen=True)
class GFunction:
    """Increasing interaction map on (0, inf), one of the _G_KINDS rows:
    x^theta, log, asinh(sqrt)^2, exp, or identity."""

    kind: str
    theta: float = 1.0

    def __post_init__(self):
        if self.kind not in _G_KINDS:
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.kind == "power" and not 0 < self.theta < np.inf:
            raise ValueError("power interaction needs finite theta > 0")

    def _eval(self, column, x):
        return _G_KINDS[self.kind][column](np.asarray(x, dtype=float), self.theta)

    def __call__(self, x):
        return self._eval(0, x)

    def log_abs(self, x):
        """log|g(x)|, overflow-safe."""
        return self._eval(1, x)

    @classmethod
    def parse(cls, text):
        """Parse CLI syntax: power:2 | log | asinh2 | exp | id."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        name = "identity" if name == "id" else name
        if name not in _G_KINDS:
            raise ValueError(f"cannot parse interaction map {text!r}")
        return cls(name, float(arg) if name == "power" and arg else 1.0)

    @property
    def label(self):
        if self.kind == "power":
            return f"power:{self.theta:g}"
        return self.kind


@dataclass(frozen=True)
class Potential:
    """Confining polynomial potential sum_k c_k x^k: finite ascending
    coefficients, degree >= 1, positive leading coefficient."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("polynomial potential needs degree >= 1")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("polynomial potential needs finite coefficients")
        if not self.coeffs[-1] > 0:
            raise ValueError("polynomial potential needs a positive leading "
                             "coefficient")

    def __call__(self, x):
        """Horner's rule in polyval's operation order, so bit-identical to
        np.polynomial.polynomial.polyval for finite x (and inf, not nan, at
        x = inf)."""
        x = np.asarray(x, dtype=float)
        val = self.coeffs[-1] * x + self.coeffs[-2]
        for c in reversed(self.coeffs[:-2]):
            val = val * x + c
        return val

    @classmethod
    def linear(cls, a=1.0):
        return cls((0.0, float(a)))

    @classmethod
    def polynomial(cls, coeffs):
        return cls(tuple(float(c) for c in coeffs))

    @classmethod
    def parse(cls, text):
        """Parse CLI syntax: linear:a (= poly:0,a) | poly:c0,c1,..."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        if name == "linear":
            return cls.linear(float(arg) if arg else 1.0)
        if name in ("poly", "polynomial"):
            return cls.polynomial([float(c) for c in arg.split(",")])
        raise ValueError(f"cannot parse potential {text!r}")


@dataclass(frozen=True)
class GasConfig:
    """Full gas specification: particle count, interaction map, potential,
    weight exponent."""

    n: int
    g: GFunction
    v: Potential
    b: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("particle count must be >= 1")
        if not 0 < self.b < np.inf:
            raise ValueError("weight exponent b must be finite and > 0")


def check_growth(cfg):
    """Worst ratio of V(x) to (b+1)*log x and to (b+1)*log|g(x)| over
    x in {1e2, 1e4, 1e6, 1e8}, a heuristic for confinement: the gas is
    taken to confine when it exceeds 1.  A bounded or sub-unit |g| puts no
    constraint (its ratio is +inf there)."""
    beta = cfg.b + 1.0
    worst = np.inf
    for x in _GROWTH_CHECKPOINTS:
        vx = float(cfg.v(x))
        lg = float(cfg.g.log_abs(x))
        worst = min(worst, vx / (beta * np.log(x)),
                    vx / (beta * lg) if lg > 0 else np.inf)
    return float(worst)


@dataclass
class McmcDiagnostics:
    """Sampler diagnostics for k >= 1 chains: the post-burn-in acceptance
    rate pooled over the chains, per-chain acceptance rates (k,), frozen
    step sizes (k, n), final configurations (k, n), unsorted, an optional
    thinned trace (k, records, n), and the wall time.  Every per-chain
    array keeps its chain axis, also for one chain."""

    acceptance_rate: float
    step_sizes: np.ndarray
    chain_acceptance: np.ndarray
    final: np.ndarray
    wall_s: float
    trace: Optional[np.ndarray] = None


def mcmc_sample(cfg, steps, burn_in, seed, record_every=0, chains=1):
    """Single-coordinate Metropolis for the gas, `chains` chains in
    lock-step; returns the final configuration as an EmpiricalMeasure (all
    chains' particles pooled) plus diagnostics.

    steps and burn_in count full sweeps (n proposals each).  Proposals are
    Gaussian steps on log coordinates; the acceptance ratio carries the
    Jacobian term, so the chain targets the gas density itself.  Proposals
    landing within 1e-14 of another coordinate are rejected outright.
    record_every > 0 stores every so-many post-burn-in sweeps in the
    diagnostics trace, (chains, records, n).  Chain c draws from
    ensemble.rng_stream(seed, c): it is bit for bit the same in every run
    of more than c chains at that seed, and chain 0 is the single-chain
    run.  Every chain starts from the evenly spaced configuration
    x_i = 2(i + 1/2)/n, i = 0..n-1.
    """
    if steps < 1 or burn_in < 1:
        raise ValueError("steps and burn_in must be positive")
    if chains < 1:
        raise ValueError("chains must be positive")
    worst = check_growth(cfg)
    if not worst > 1.0:
        raise ValueError(
            f"growth check failed (worst ratio {worst:.4g} <= 1); "
            "the rate functional would not confine this gas")
    t0 = time.perf_counter()
    n, k = cfg.n, chains
    rngs = [rng_stream(seed, c) for c in range(k)]
    x0 = 2.0 * (np.arange(n) + 0.5) / n
    # state and proposals are ([x, g(x), log x, V(x)], chain, coordinate);
    # each channel is one contiguous (chains, n) block
    state = np.empty((4, k, n))
    for ch, v in enumerate((x0, cfg.g(x0), np.log(x0), cfg.v(x0))):
        state[ch] = v
    prop = np.empty_like(state)
    xp, gp, yp, vp = prop
    # centres and gaps as in the module docstring
    centres = np.empty((n, 2, 2, k))
    by_channel = centres.transpose(2, 1, 3, 0)
    gaps = np.empty((2, 2, k, n))
    new_x_gaps, current, rows = gaps[0, 0], state[:2, None], gaps.reshape(4, k, n)
    normals, uniforms, log_us, pre = (np.empty((k, n)) for _ in range(4))
    sig = np.full((k, n), 0.5)
    log_sig = np.log(sig)
    accepted = np.zeros((k, n), dtype=bool)
    accepted_post = np.zeros((k, n), dtype=np.int64)
    close = np.empty((k, n), dtype=bool)
    sums, delta = np.empty((4, k)), np.empty(k)
    s_nx, s_ox, s_ng, s_og = sums
    coords = [(centres[i, ..., None], gaps[..., i], pre[:, i], log_us[:, i],
               accepted[:, i], state[:, :, i], prop[:, :, i]) for i in range(n)]
    trace = np.empty((k, len(range(0, steps, record_every)) if record_every else 0, n))

    with np.errstate(all="ignore"):
        for sweep in range(burn_in + steps):
            for rng, z, u in zip(rngs, normals, uniforms):
                rng.standard_normal(out=z)
                rng.random(out=u)
            np.log(uniforms, out=log_us)
            # coordinate i's proposal depends only on its own log x_i and
            # step size, which no earlier update in the sweep touches
            np.add(state[2], sig * normals, out=yp)
            np.exp(yp, out=xp)
            gp[:] = cfg.g(xp)
            vp[:] = cfg.v(xp)
            pre[:] = -n * (vp - state[3]) + cfg.b * (yp - state[2])
            # a delta of -inf or nan rejects: proposals that left (0, inf)
            # get it here, those within 1e-14 of another coordinate below
            pre[~(np.isfinite(xp) & (xp > 0.0))] = -np.inf
            by_channel[0] = prop[:2]
            by_channel[1] = state[:2]
            for centre, own_gaps, pre_i, log_u, acc, state_i, prop_i in coords:
                np.subtract(centre, current, out=gaps)
                np.abs(gaps, out=gaps)
                own_gaps.fill(1.0)
                np.less_equal(new_x_gaps, _COINCIDENCE_TOL, out=close)
                np.log(gaps, out=gaps)
                if np.count_nonzero(close):
                    new_x_gaps[close] = -np.inf
                np.add.reduce(rows, 2, out=sums)
                # the single-chain summation order, term by term
                np.add(pre_i, s_nx, out=delta)
                np.subtract(delta, s_ox, out=delta)
                np.add(delta, s_ng, out=delta)
                np.subtract(delta, s_og, out=delta)
                np.less(log_u, delta, out=acc)
                if np.count_nonzero(acc):
                    np.copyto(state_i, prop_i, where=acc)
            if sweep < burn_in:
                log_sig += (sweep + 1.0) ** -0.6 * (accepted - _TARGET_ACCEPT)
                np.exp(log_sig, out=sig)
            else:
                accepted_post += accepted
                if record_every and (sweep - burn_in) % record_every == 0:
                    trace[:, (sweep - burn_in) // record_every] = state[0]
    diag = McmcDiagnostics(
        acceptance_rate=float(accepted_post.sum() / (k * n * steps)),
        step_sizes=sig,
        chain_acceptance=accepted_post.sum(axis=1) / (n * steps),
        final=state[0].copy(),
        wall_s=time.perf_counter() - t0,
        trace=trace if record_every else None,
    )
    return EmpiricalMeasure(state[0]), diag
