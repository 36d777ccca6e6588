"""Two-interaction log-gas on (0, inf)^n and its Metropolis sampler.

The target is the unnormalized density

    exp(-n sum V(x_i)) * prod x_j^(b-1) * prod_{i<j} |x_i-x_j| |g(x_i)-g(x_j)|

for an increasing interaction map g and a confining potential V that grows
faster than (b+1)*log at infinity (checked heuristically before sampling).
The sampler is single-coordinate Metropolis on log coordinates -- the state
space is (0, inf)^n and a multiplicative walk is scale-free there -- with
the log-coordinate Jacobian folded into the acceptance ratio.  Step sizes
adapt by Robbins-Monro during burn-in only and are frozen afterwards, so
retained samples come from a fixed reversible kernel.

Several chains run in lock-step on one thread: coordinate i of every chain
is updated by one set of numpy operations on (chains, n) arrays.  Chain c
draws from its own Philox stream keyed by seed + c, and the arithmetic is
the single-chain arithmetic in the same order, so each chain is bit for bit
the single-chain run at key seed + c, whatever the number of chains.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import EmpiricalMeasure

_G_KINDS = ("power", "log", "asinh2", "exp", "identity")
_COINCIDENCE_TOL = 1e-14
_GROWTH_CHECKPOINTS = (1e2, 1e4, 1e6, 1e8)
_TARGET_ACCEPT = 0.35        # burn-in adapts step sizes toward this rate


@dataclass(frozen=True)
class GFunction:
    """Increasing interaction map on (0, inf): x^theta, log, asinh(sqrt)^2,
    exp, or identity."""

    kind: str
    theta: float = 1.0

    def __post_init__(self):
        if self.kind not in _G_KINDS:
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.kind == "power" and not self.theta > 0:
            raise ValueError("power interaction needs theta > 0")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return x ** self.theta
        if self.kind == "log":
            return np.log(x)
        if self.kind == "asinh2":
            return np.arcsinh(np.sqrt(x)) ** 2
        if self.kind == "exp":
            return np.exp(x)
        return x + 0.0

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return self.theta * x ** (self.theta - 1.0)
        if self.kind == "log":
            return 1.0 / x
        if self.kind == "asinh2":
            r = np.sqrt(x)
            return np.arcsinh(r) / (r * np.sqrt(1.0 + x))
        if self.kind == "exp":
            return np.exp(x)
        return np.ones_like(x)

    def log_abs(self, x):
        """log|g(x)|, overflow-safe (log exp(x) = x without forming exp(x))."""
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return self.theta * np.log(x)
        if self.kind == "log":
            return np.log(np.abs(np.log(x)))
        if self.kind == "asinh2":
            return 2.0 * np.log(np.arcsinh(np.sqrt(x)))
        if self.kind == "exp":
            return x + 0.0
        return np.log(x)

    @classmethod
    def parse(cls, text):
        """Parse CLI syntax: power:2 | log | asinh2 | exp | id."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        if name in ("id", "identity"):
            return cls("identity")
        if name == "power":
            return cls("power", float(arg)) if arg else cls("power", 1.0)
        if name in _G_KINDS:
            return cls(name)
        raise ValueError(f"cannot parse interaction map {text!r}")

    @property
    def label(self):
        if self.kind == "power":
            return f"power:{self.theta:g}"
        return self.kind


@dataclass(frozen=True)
class Potential:
    """Confining potential: linear a*x (a > 0) or a polynomial with positive
    leading coefficient, ascending coefficients."""

    kind: str
    coeffs: tuple

    def __post_init__(self):
        if self.kind == "linear":
            if len(self.coeffs) != 1 or not self.coeffs[0] > 0:
                raise ValueError("linear potential needs one coefficient a > 0")
        elif self.kind == "polynomial":
            if len(self.coeffs) < 2:
                raise ValueError("polynomial potential needs degree >= 1")
            if not self.coeffs[-1] > 0:
                raise ValueError("polynomial potential needs a positive leading "
                                 "coefficient")
        else:
            raise ValueError(f"unknown potential kind {self.kind!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "linear":
            return self.coeffs[0] * x
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))

    @classmethod
    def linear(cls, a=1.0):
        return cls("linear", (float(a),))

    @classmethod
    def polynomial(cls, coeffs):
        return cls("polynomial", tuple(float(c) for c in coeffs))

    @classmethod
    def parse(cls, text):
        """Parse CLI syntax: linear:1 | poly:c0,c1,..."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        if name == "linear":
            return cls.linear(float(arg) if arg else 1.0)
        if name in ("poly", "polynomial"):
            return cls.polynomial([float(c) for c in arg.split(",")])
        raise ValueError(f"cannot parse potential {text!r}")

    @property
    def label(self):
        if self.kind == "linear":
            return f"linear:{self.coeffs[0]:g}"
        return "poly:" + ",".join(f"{c:g}" for c in self.coeffs)


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
        if not self.b > 0:
            raise ValueError("weight exponent b must be > 0")


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of the confinement growth check at fixed checkpoints."""

    passed: bool
    checkpoints: tuple
    ratio_log_x: tuple
    ratio_log_g: tuple
    worst_ratio: float

    def __bool__(self):
        return self.passed


def check_growth(cfg):
    """Heuristic check that V dominates (b+1)*log x and (b+1)*log|g(x)| at
    x in {1e2, 1e4, 1e6, 1e8}; both ratios must exceed 1 everywhere.
    A bounded or sub-unit |g| puts no constraint (ratio is +inf there)."""
    beta = cfg.b + 1.0
    r1, r2 = [], []
    for x in _GROWTH_CHECKPOINTS:
        vx = float(cfg.v(x))
        r1.append(vx / (beta * np.log(x)))
        lg = float(cfg.g.log_abs(x))
        r2.append(vx / (beta * lg) if lg > 0 else np.inf)
    worst = min(min(r1), min(r2))
    return GrowthReport(passed=worst > 1.0,
                        checkpoints=_GROWTH_CHECKPOINTS,
                        ratio_log_x=tuple(r1),
                        ratio_log_g=tuple(r2),
                        worst_ratio=float(worst))


@dataclass
class McmcDiagnostics:
    """Sampler diagnostics: post-burn-in acceptance rate (pooled over the
    chains), frozen step sizes, per-chain acceptance rates and final
    configurations, an optional thinned trace, and the wall time.

    With one chain, step_sizes is (n,) and trace (records, n); with k > 1
    chains both carry a leading chain axis: (k, n) and (k, records, n).
    chain_acceptance is always (k,) and final (k, n), unsorted."""

    acceptance_rate: float
    step_sizes: np.ndarray
    sweeps: int
    burn_in: int
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
    diagnostics trace.  Chain c draws from Philox(key=seed + c) and is bit
    for bit the single-chain run with that seed.  Every chain starts from
    the evenly spaced configuration x_i = 2(i + 1/2)/n, i = 0..n-1.
    """
    if steps < 1 or burn_in < 1:
        raise ValueError("steps and burn_in must be positive")
    if chains < 1:
        raise ValueError("chains must be positive")
    growth = check_growth(cfg)
    if not growth.passed:
        raise ValueError(
            f"growth check failed (worst ratio {growth.worst_ratio:.4g} <= 1); "
            "the rate functional would not confine this gas")
    t0 = time.perf_counter()
    n, k = cfg.n, chains
    rngs = [np.random.Generator(np.random.Philox(key=(int(seed) + c) & (2 ** 64 - 1)))
            for c in range(k)]
    x0 = 2.0 * (np.arange(n) + 0.5) / n
    # state and proposals are ([x, g(x), log x, V(x)], chain, coordinate);
    # each channel is one contiguous (chains, n) block
    state = np.empty((4, k, n))
    for ch, v in enumerate((x0, cfg.g(x0), np.log(x0), cfg.v(x0))):
        state[ch] = v
    prop = np.empty_like(state)
    xp, gp, yp, vp = prop
    gaps = np.empty((4, k, n))     # |new x_i - x|, |new g_i - g|, old ones
    new_gaps, old_gaps, x_gaps, current = gaps[:2], gaps[2:], gaps[0], state[:2]
    normals, uniforms = np.empty((k, n)), np.empty((k, n))
    sig = np.full((k, n), 0.5)
    log_sig = np.log(sig)
    accepted = np.zeros((k, n), dtype=bool)
    accepted_post = np.zeros((k, n), dtype=np.int64)
    trace = np.empty((k, len(range(0, steps, record_every)) if record_every else 0, n))

    with np.errstate(all="ignore"):
        for sweep in range(burn_in + steps):
            for rng, z, u in zip(rngs, normals, uniforms):
                rng.standard_normal(out=z)
                rng.random(out=u)
            log_us = np.log(uniforms)
            # coordinate i's proposal depends only on its own log x_i and
            # step size, which no earlier update in the sweep touches
            np.add(state[2], sig * normals, out=yp)
            np.exp(yp, out=xp)
            gp[:] = cfg.g(xp)
            vp[:] = cfg.v(xp)
            pre = -n * (vp - state[3]) + cfg.b * (yp - state[2])
            # a delta of -inf or nan rejects: proposals that left (0, inf)
            # get it here, those within 1e-14 of another coordinate below
            pre[~(np.isfinite(xp) & (xp > 0.0))] = -np.inf
            for i in range(n):
                np.subtract(prop[:2, :, i, None], current, out=new_gaps)
                np.subtract(current[:, :, i, None], current, out=old_gaps)
                np.abs(gaps, out=gaps)
                gaps[:, :, i] = 1.0
                close = x_gaps <= _COINCIDENCE_TOL
                np.log(gaps, out=gaps)
                if np.count_nonzero(close):
                    x_gaps[close] = -np.inf
                s = np.add.reduce(gaps, 2)
                # the single-chain summation order, term by term
                delta = pre[:, i] + s[0] - s[2] + s[1] - s[3]
                acc = np.less(log_us[:, i], delta, out=accepted[:, i])
                if np.count_nonzero(acc):
                    np.copyto(state[:, :, i], prop[:, :, i], where=acc)
            if sweep < burn_in:
                log_sig += (sweep + 1.0) ** -0.6 * (accepted - _TARGET_ACCEPT)
                np.exp(log_sig, out=sig)
            else:
                accepted_post += accepted
                if record_every and (sweep - burn_in) % record_every == 0:
                    trace[:, (sweep - burn_in) // record_every] = state[0]
    one = k == 1
    diag = McmcDiagnostics(
        acceptance_rate=float(accepted_post.sum() / (k * n * steps)),
        step_sizes=sig[0] if one else sig,
        sweeps=steps,
        burn_in=burn_in,
        chain_acceptance=accepted_post.sum(axis=1) / (n * steps),
        final=state[0].copy(),
        wall_s=time.perf_counter() - t0,
        trace=(trace[0] if one else trace) if record_every else None,
    )
    return EmpiricalMeasure(state[0]), diag
