"""Conservative and non-conservative process evaluation, the SIS matrix
model, and Monte Carlo independent-cascade simulation.

Steady states are reached by fixed-point iteration against the sparse
operators; dense inversion exists only as a test oracle elsewhere.
Cascade trials draw every coin from a counter stream keyed by
(rng_seed, trial), so trial i is reproducible in isolation and the same
coins are replayed at every transmissibility of a sweep (which makes
sweep curves exactly monotone for a fixed seed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, NumericalError
from .graph import (DanglingPolicy, DirectedGraph, _as_weight_vector,
                    adjacency_apply, replication_apply, transfer_apply)
from .rng import SLOT_SEED_NODE, stream_value, trial_base, unit_float
from .spectral import spectral_radius

CONSERVATIVE = "conservative"
NONCONSERVATIVE = "nonconservative"


@dataclass(frozen=True)
class ProcessConfig:
    """Parameters selecting a concrete spreading process.

    kind "conservative": x(t) = (1-alpha) x0 + alpha x(t-1) T, with
    T = delta I + (1-delta) D^-1 A and the dangling policy deciding
    where stuck mass goes. kind "nonconservative": increments follow
    Delta(t+1) = alpha Delta(t) R with R = (delta/alpha) I + A.
    """

    kind: str
    alpha: float
    delta: float = 0.0
    dangling_policy: DanglingPolicy = DanglingPolicy.SELF_RETAIN

    def __post_init__(self):
        if self.kind not in (CONSERVATIVE, NONCONSERVATIVE):
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.kind == CONSERVATIVE:
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError("conservative process requires alpha in [0, 1]")
            if not 0.0 <= self.delta <= 1.0:
                raise ValueError("conservative process requires delta in [0, 1]")
        else:
            if self.alpha < 0.0 or self.delta < 0.0:
                raise ValueError("nonconservative process requires alpha >= 0 and delta >= 0")
            if self.delta > 0.0 and self.alpha == 0.0:
                raise ValueError("undefined self-replication: delta > 0 requires alpha > 0")


@dataclass(frozen=True)
class SisConfig:
    """Per-step infection (mu) and curing (beta) probabilities."""

    mu: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0 or not 0.0 <= self.beta <= 1.0:
            raise ValueError("mu and beta must lie in [0, 1]")


@dataclass(frozen=True)
class CascadeRunStats:
    """Mean outbreak size at one transmissibility of a sweep."""

    transmissibility: float
    trials: int
    mean_outbreak_fraction: float
    stderr: float
    rng_seed: int


def conservative_step(g: DirectedGraph, x_prev, x0, cfg: ProcessConfig) -> np.ndarray:
    """One application of x(t) = (1-alpha) x0 + alpha x(t-1) T."""
    if cfg.kind != CONSERVATIVE:
        raise ValueError("conservative_step requires a conservative config")
    x0v = _as_weight_vector(g, x0)
    moved = transfer_apply(g, x_prev, cfg.delta, cfg.dangling_policy)
    return (1.0 - cfg.alpha) * x0v + cfg.alpha * moved


def conservative_steady_state(g: DirectedGraph, x0, cfg: ProcessConfig,
                              tol: float = 1e-9, max_iter: int = 10_000) -> np.ndarray:
    """Fixed point of conservative_step, found by iteration from x0.

    Stops when the successive-iterate L1 difference drops to tol. For
    alpha < 1 the map is a contraction; alpha = 1 converges only for
    aperiodic strongly connected graphs, and anything else surfaces as a
    convergence error carrying the trailing differences.
    """
    x = _as_weight_vector(g, x0).copy()
    history: list[float] = []
    for _ in range(1, max_iter + 1):
        nxt = conservative_step(g, x, x0, cfg)
        diff = float(np.abs(nxt - x).sum())
        history.append(diff)
        x = nxt
        if diff <= tol:
            return x
    raise ConvergenceError("conservative steady state did not converge",
                           iterations=max_iter, history=history[-8:])


def nonconservative_step(g: DirectedGraph, delta_prev, cfg: ProcessConfig) -> np.ndarray:
    """One application of Delta(t+1) = alpha Delta(t) R."""
    if cfg.kind != NONCONSERVATIVE:
        raise ValueError("nonconservative_step requires a nonconservative config")
    return cfg.alpha * replication_apply(g, delta_prev, cfg.delta, cfg.alpha)


def nonconservative_accumulate(g: DirectedGraph, x0, cfg: ProcessConfig,
                               horizon: int | None = None, tol: float = 1e-9,
                               max_iter: int = 10_000) -> np.ndarray:
    """Sum of x0 (alpha R)^k for k = 0..horizon (or to convergence).

    The infinite-horizon sum exists only below the spectral bound
    (delta + alpha*lambda1 < 1); it is cut off when the geometric tail
    estimate falls below tol relative to the running sum. The tail rate
    uses the observed term ratio, not just the spectral radius, because
    non-normal adjacency can grow transiently before decaying.
    """
    if cfg.kind != NONCONSERVATIVE:
        raise ValueError("nonconservative_accumulate requires a nonconservative config")
    if horizon is not None and horizon < 0:
        raise ValueError("horizon must be >= 0")
    acc = _as_weight_vector(g, x0).copy()
    term = acc.copy()
    infinite = horizon is None
    rho = 0.0
    if infinite:
        rho = cfg.delta + cfg.alpha * spectral_radius(g)
        if rho >= 1.0:
            raise NumericalError("supercritical: finite horizon required "
                                 f"(delta + alpha*lambda1 = {rho:.6g} >= 1)")
    prev_norm = float(np.abs(term).sum())
    history: list[float] = []
    for _ in range(1, (max_iter if infinite else horizon) + 1):
        term = nonconservative_step(g, term, cfg)
        acc += term
        norm = float(np.abs(term).sum())
        history.append(norm)
        if norm == 0.0:
            return acc
        if infinite:
            q = max(rho, norm / prev_norm) if prev_norm > 0.0 else rho
            if q < 1.0 and norm * q / (1.0 - q) <= tol * max(1.0, float(np.abs(acc).sum())):
                return acc
        prev_norm = norm
    if infinite:
        raise ConvergenceError("nonconservative accumulation did not converge",
                               iterations=max_iter, history=history[-8:])
    return acc


def sis_step(g: DirectedGraph, p_prev, cfg: SisConfig) -> np.ndarray:
    """One iterate of P_t = P_{t-1} ((1-beta) I + mu A).

    Scores are proportional infection weights and are not clamped to
    [0, 1]; only nonnegativity of the input is required.
    """
    pv = _as_weight_vector(g, p_prev)
    if pv.size and pv.min() < 0.0:
        raise ValueError("infection scores must be >= 0")
    return (1.0 - cfg.beta) * pv + cfg.mu * adjacency_apply(g, pv)


def _check_cascade_args(g: DirectedGraph, seeds, transmissibility: float) -> np.ndarray:
    if not 0.0 <= transmissibility <= 1.0:
        raise ValueError("transmissibility must lie in [0, 1]")
    arr = np.unique(np.asarray(sorted(seeds), dtype=np.int64))
    if arr.size == 0:
        raise ValueError("seed set must be nonempty")
    if arr[0] < 0 or arr[-1] >= g.node_count:
        raise ValueError("seed node id out of range")
    return arr


def independent_cascade(g: DirectedGraph, seeds, transmissibility: float,
                        rng_seed: int, trial: int = 0) -> set[int]:
    """Nodes reached by one independent-cascade trial.

    Each infected node gets one chance to infect each out-neighbor with
    the given probability; the trial's coins are a pure function of
    (rng_seed, trial), one per edge, so the outcome does not depend on
    traversal order.
    """
    rounds = cascade_rounds(g, seeds, transmissibility, rng_seed, trial)
    return {int(i) for i in np.flatnonzero(rounds >= 0)}


def cascade_rounds(g: DirectedGraph, seeds, transmissibility: float,
                   rng_seed: int, trial: int = 0) -> np.ndarray:
    """Round at which each node joins the cascade (-1 never, 0 seed)."""
    arr = _check_cascade_args(g, seeds, transmissibility)
    return _kernels.ic_spread(g.out_indptr, g.out_indices, arr,
                              float(transmissibility), trial_base(rng_seed, trial))


def threshold_sweep(g: DirectedGraph, grid, trials: int, rng_seed: int) -> list[CascadeRunStats]:
    """Mean outbreak fraction at each transmissibility in the grid.

    Every trial seeds one uniformly drawn node and reuses its coin
    stream across all grid points, so per-trial outbreaks are nested in
    transmissibility and the sweep curve is monotone for a fixed seed.
    Each trial is one cascade traversal up the sorted grid, which draws
    each edge's coin at most once: the single-sweep method of Newman &
    Ziff, "Efficient Monte Carlo algorithm for site or bond percolation",
    PRL 85, 4104 (2000). The grid may be unsorted and hold duplicates;
    rows come back in its order.
    """
    grid = [float(p) for p in grid]
    if any(p < 0.0 or p > 1.0 for p in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = g.node_count
    order = np.argsort(grid, kind="stable")
    ascending = np.asarray(grid, dtype=np.float64)[order]
    fractions = np.empty((len(grid), trials))
    seeds = np.empty(1, dtype=np.int64)
    for j in range(trials):
        base = trial_base(rng_seed, j)
        u = unit_float(stream_value(base, SLOT_SEED_NODE))
        seeds[0] = min(int(u * n), n - 1)
        level = _kernels.ic_spread(g.out_indptr, g.out_indices, seeds, ascending, base)
        reached = np.cumsum(np.bincount(level[level >= 0], minlength=len(grid)))
        fractions[order, j] = reached / n
    means = fractions.mean(axis=1)
    stderrs = (fractions.std(axis=1, ddof=1) / np.sqrt(trials) if trials > 1
               else np.zeros(len(grid)))
    return [CascadeRunStats(transmissibility=p, trials=trials, mean_outbreak_fraction=mean,
                            stderr=stderr, rng_seed=rng_seed)
            for p, mean, stderr in zip(grid, means.tolist(), stderrs.tolist())]
