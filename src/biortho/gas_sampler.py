"""Two-interaction log-gas on (0, inf)^n and its Metropolis sampler.

The target is the unnormalized density

    exp(-n sum V(x_i)) * prod x_j^(b-1) * prod_{i<j} |x_i-x_j| |g(x_i)-g(x_j)|

for an increasing interaction map g and a polynomial potential V (degree
>= 1, positive leading coefficient).  Every such gas confines, as the pair
kernel's minorant V/2 - log(1+t)/2 - log(1+|g|)/2 goes to +inf, except
g = exp with V of degree 1 and slope <= 1, which GasModel refuses, and so
every GasConfig: neither the sampler nor the equilibrium solver sees it.
_G_KINDS maps each interaction kind to g(x, theta); V is one polynomial,
evaluated by Horner's rule (`linear:a` is the polynomial 0 + a*x).

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

Each sweep forms all proposals up front, each with its threshold
thr = log u - pre, where pre = -n (V(x') - V(x)) + b (log x' - log x)
carries the potential and the Jacobian (nan, which rejects, for x' outside
(0, inf) or where g(x') overflows).  It then walks the coordinates in
blocks of at most _BLOCK rows, fewer where a block's gap table would pass
_TABLE entries.  `coords`, shaped ([x, g, log x, V, log u], [proposal,
state], chain, slot), holds proposals and state; after the n coordinate
slots, the x and g state rows carry the current block's proposals.  At
block start a copy of the block's centres and one subtraction of those rows
fill `gaps`, shaped ([x, g], [new, old], chain, row, column): row i holds
the gaps from x_i's proposal (new) and from x_i (old) to every coordinate,
then to the block's own proposals.  The block's ratio table, shaped (chain,
row, column), takes |new| / |old|, multiplied over x and g, then 1 in the
own column, then its log: one log per pair.  A proposal on a coordinate has
ratio 0 and log -inf, and a 0/0 ratio is nan; the compare rejects both, so
the chain targets the density exactly.  A step is then one sum over row i's
first n columns, one compare with thr_i, and one copy of the proposal's
column into the block's rows below, masked to the chains that accept.  The
state is written once per block.  The identity map's g ratios would repeat
its x ratios bit for bit, so it keeps no g channel, and its thr is halved
instead, which is exact.  Extra memory is O(chains * _BLOCK * n).
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import rng_stream
from .measures import EmpiricalMeasure
from .special import check_count

# kind -> g, a function of (x, theta); only power reads theta
_G_KINDS = {
    "power": lambda x, t: x ** t,
    "log": lambda x, t: np.log(x),
    "asinh2": lambda x, t: np.arcsinh(np.sqrt(x)) ** 2,
    "exp": lambda x, t: np.exp(x),
    "identity": lambda x, t: x + 0.0,
}
_TARGET_ACCEPT = 0.35        # burn-in adapts step sizes toward this rate
# blocks (module docstring): 16 rows, or fewer where a gap table would pass
# 2^16 entries (512 KB), which then falls out of cache.  Of 8 to 64 rows and
# 2^13 to 2^20 entries (2-core Xeon; n = 2 to 1000, 1 to 20 chains), none
# was faster everywhere: 8 rows gained 7% at n = 32 with 20 chains and lost
# 9% with 2, and 2^18 entries ran 1.2x slower at n = 1000 with 20 chains
_BLOCK = 16
_TABLE = 2 ** 16


@dataclass(frozen=True)
class GFunction:
    """Increasing interaction map on (0, inf), a _G_KINDS entry: x^theta
    (the one kind with a theta), log, asinh(sqrt)^2, exp or identity."""

    kind: str
    theta: float = 1.0

    def __post_init__(self):
        if self.kind not in _G_KINDS:
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.kind == "power" and not 0 < self.theta < np.inf:
            raise ValueError("power interaction needs finite theta > 0")
        if self.kind != "power" and self.theta != 1.0:
            raise ValueError(f"interaction {self.kind!r} takes no theta, not {self.theta!r}")

    def __call__(self, x):
        return _G_KINDS[self.kind](np.asarray(x, dtype=float), self.theta)

    @classmethod
    def parse(cls, text):
        """Parse CLI syntax: power:THETA | power | log | asinh2 | exp | identity | id;
        anything else raises a ValueError quoting the whole text."""
        name, colon, arg = text.partition(":")
        name = name.strip().lower()
        name = "identity" if name == "id" else name
        try:
            if name not in _G_KINDS or colon and name != "power":
                raise ValueError
            theta = float(arg) if colon else 1.0
        except ValueError:
            raise ValueError(f"cannot parse interaction map {text!r}") from None
        return cls(name, theta)

    @property
    def label(self):
        # CLI syntax: theta's shortest repr parses back to theta exactly
        if self.kind == "power":
            return f"power:{float(self.theta)!r}".removesuffix(".0")
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

    def __call__(self, x, out=None):
        """Horner's rule in polyval's operation order, so bit-identical to
        np.polynomial.polynomial.polyval for finite x (and inf, not nan, at
        x = inf); an `out` array takes the values, as for a ufunc."""
        x = np.asarray(x, dtype=float)
        val = np.multiply(self.coeffs[-1], x, out=out)
        val += self.coeffs[-2]
        for c in reversed(self.coeffs[:-2]):
            val *= x
            val += c
        return val

    @classmethod
    def linear(cls, a=1.0):
        return cls((0.0, float(a)))

    @classmethod
    def polynomial(cls, coeffs):
        return cls(tuple(float(c) for c in coeffs))

    @classmethod
    def parse(cls, text):
        """Parse CLI syntax: linear:a (= poly:0,a) | linear | poly:c0,c1,...;
        anything else raises a ValueError quoting the whole text."""
        name, colon, arg = text.partition(":")
        name = name.strip().lower()
        try:
            if name == "linear":
                coeffs = [0.0, float(arg) if colon else 1.0]
            elif name in ("poly", "polynomial"):
                coeffs = [float(c) for c in arg.split(",")]
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"cannot parse potential {text!r}") from None
        return cls.polynomial(coeffs)


@dataclass(frozen=True)
class GasModel:
    """Interaction map and potential, all the rate functional and the pair
    kernels read.  The one pair that does not confine, g = exp with V of
    degree 1 and slope <= 1, raises a ValueError starting "growth: "."""

    g: GFunction
    v: Potential

    def __post_init__(self):
        if self.g.kind == "exp" and len(self.v.coeffs) == 2 and self.v.coeffs[1] <= 1.0:
            raise ValueError(f"growth: V's slope {self.v.coeffs[1]:g} <= 1 does not outgrow "
                             "log g(x) = x, so the gas with g = exp does not confine")


@dataclass(frozen=True)
class GasConfig:
    """Full gas specification for the sampler: particle count, interaction
    map, potential, weight exponent; (g, V) must make a GasModel."""

    n: int
    g: GFunction
    v: Potential
    b: float = 1.0

    def __post_init__(self):
        check_count("n", self.n, 1)
        if not 0 < self.b < np.inf:
            raise ValueError("weight exponent b must be finite and > 0")
        GasModel(self.g, self.v)


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
    Jacobian term, so the chain targets the gas density itself, which
    confines for every GasConfig.  record_every > 0 stores every so-many
    post-burn-in sweeps in the diagnostics trace, (chains, records, n).
    steps, burn_in, chains and record_every must be integers (numpy
    integers too); anything else raises ValueError before any work, as
    does a seed that is not an integer >= -2**63 (a negative seed keeps its
    64-bit two's-complement key).  Chain c draws from
    ensemble.rng_stream(seed, c): it is bit for bit the same in every run
    of more than c chains at that seed, and chain 0 is the single-chain
    run.  Every chain starts from the evenly spaced configuration
    x_i = 2(i + 1/2)/n, i = 0..n-1.
    """
    for name, value, least in (("steps", steps, 1), ("burn_in", burn_in, 1),
                               ("chains", chains, 1), ("record_every", record_every, 0)):
        check_count(name, value, least)
    rngs = [rng_stream(seed, c) for c in range(chains)]
    t0 = time.perf_counter()
    n, k = cfg.n, chains
    # g(x) = x + 0.0 is x bit for bit on (0, inf): no g channel for it
    maps = 1 if cfg.g.kind == "identity" else 2
    rows = max(1, min(_BLOCK, n, _TABLE // (2 * maps * k * n)))
    x0 = 2.0 * (np.arange(n) + 0.5) / n
    # coords, gaps and the ratio table are laid out as in the module docstring
    coords = np.zeros((maps + 3, 2, k, n + rows))
    prop, state = coords[:, 0, :, :n], coords[:, 1, :, :n]
    for ch, v in enumerate((x0, cfg.g(x0))[:maps] + (np.log(x0), cfg.v(x0))):
        state[ch] = v
    xp, yp, vp, log_u = prop[0], prop[maps], prop[maps + 1], prop[maps + 2]
    gaps = np.empty((maps, 2, k, rows, n + rows))
    table = np.empty((k, rows, n + rows))
    diff = np.empty((maps + 2, k, n))
    # [g, log x, V, log u] coefficients of thr = log u - pre, halved for the
    # identity, which has no g channel and whose rows hold its ratios once
    coef = (np.array([0.0, -cfg.b, n, 1.0][2 - maps:]) * (0.5 if maps == 1 else 1.0))[:, None, None]
    normals, thr, inside = (np.empty((k, n)) for _ in range(3))
    sig = np.full((k, n), 0.5)
    log_sig = np.log(sig)
    accepted = np.zeros((k, n), dtype=bool)
    accepted_post = np.zeros((k, n), dtype=np.int64)
    sums = np.empty(k)
    blocks = []
    for i0 in range(0, n, rows):
        b = min(rows, n - i0)
        gb, tab = gaps[..., :b, :n + b], table[:, :b, :n + b]
        own = np.lib.stride_tricks.as_strided(       # tab[:, r, i0 + r]
            tab[..., i0:], tab.shape[:-1], (tab.strides[0], sum(tab.strides[1:])))
        steps_in = []
        for r in range(b):
            i, acc = i0 + r, accepted[:, i0 + r]
            # rows below r take column n + r (proposal r) in place of column
            # i0 + r in the chains that accept proposal r
            below = (table[:, r + 1:b, i0 + r], table[:, r + 1:b, n + r],
                     acc[:, None]) if r + 1 < b else None
            steps_in.append((table[:, r, :n], thr[:, i], acc, below))
        blocks.append((coords[:maps, 1, :, n:n + b], coords[:maps, 0, :, i0:i0 + b],
                       coords[:maps, :, :, i0:i0 + b, None],
                       coords[:maps, 1, None, :, None, :n + b],
                       gb, gb[:, 0], gb[:, 1], tab, own,
                       coords[:-1, 1, :, i0:i0 + b], coords[:-1, 0, :, i0:i0 + b],
                       accepted[None, :, i0:i0 + b], steps_in))
    trace = np.empty((k, len(range(0, steps, record_every)) if record_every else 0, n))

    with np.errstate(all="ignore"):
        for sweep in range(burn_in + steps):
            for rng, z, u in zip(rngs, normals, log_u):
                rng.standard_normal(out=z)
                rng.random(out=u)
            np.log(log_u, out=log_u)
            # coordinate i's proposal depends only on its own log x_i and
            # step size, which no earlier update in the sweep touches
            np.multiply(sig, normals, out=yp)
            np.add(state[maps], yp, out=yp)
            np.exp(yp, out=xp)
            if maps == 2:
                prop[1] = cfg.g(xp)
            cfg.v(xp, out=vp)
            # thr = log u - pre, pre = -n (V(x') - V(x)) + b (log x' - log x)
            # (the state's log u is 0), plus 0 (g(x') - g(x)), nan where g(x')
            # overflows, times x'/x': 1 inside (0, inf) and nan outside; the
            # compare rejects nan
            np.subtract(prop[1:], state[1:], out=diff)
            np.multiply(diff, coef, out=diff)
            np.add.reduce(diff, 0, out=thr)
            np.divide(xp, xp, out=inside)
            np.multiply(thr, inside, out=thr)
            for (slots, block_prop, centres, columns, gb, new, old, tab, own,
                 state_b, prop_b, acc_b, steps_in) in blocks:
                np.copyto(slots, block_prop)
                # two passes: numpy's subtract with a stride-0 operand is slower
                np.copyto(gb, centres)
                np.subtract(gb, columns, out=gb)
                np.abs(gb, out=gb)
                if maps == 2:
                    np.divide(new, old, out=new)
                    np.multiply(new[0], new[1], out=tab)
                else:
                    np.divide(new[0], old[0], out=tab)
                own.fill(1.0)
                np.log(tab, out=tab)
                for row, t, acc, below in steps_in:
                    np.add.reduce(row, 1, out=sums)
                    np.greater(sums, t, out=acc)
                    if below:
                        np.copyto(below[0], below[1], where=below[2])
                np.copyto(state_b, prop_b, where=acc_b)
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
