"""PageRank, Alpha-Centrality and its normalized variant, degree and
eigenvector centralities, their alpha-grid driver, and ranking.

PageRank is the conservative process's steady state and
Alpha-Centrality the non-conservative process's accumulated series:
both are thin wrappers over the engine in dynamics.py, adding only
their own argument checks, defaults and the spectral guard.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import (CONSERVATIVE, NONCONSERVATIVE, ProcessConfig,
                       conservative_steady_state, nonconservative_accumulate)
from .errors import NumericalError
from .graph import DanglingPolicy, DirectedGraph, _as_weight_vector, indegree_vector
from .spectral import power_iteration, spectral_radius

MEASURES = ("pagerank", "alpha", "normalized_alpha", "indegree", "outdegree",
            "eigenvector")

SPECTRAL_GUARD = 1e-6


@dataclass(frozen=True)
class CentralityScores:
    """Per-node scores for one measure.

    starting_vector records which s produced the scores ("uniform",
    "indegree", or "custom"); alpha is None for measures without a
    parameter.
    """

    measure: str
    alpha: float | None
    values: np.ndarray
    starting_vector: str


@dataclass(frozen=True)
class Ranking:
    """Nodes in descending-score order; ties broken by ascending id.

    ranks[v] is the 1-based position of node v in `order`.
    """

    order: np.ndarray
    ranks: np.ndarray


def _starting_vector(g: DirectedGraph, s, default: str) -> tuple[np.ndarray, str]:
    if s is None:
        if default == "uniform":
            return np.full(g.node_count, 1.0 / g.node_count), "uniform"
        return indegree_vector(g), "indegree"
    return _as_weight_vector(g, s), "custom"


def pagerank(g: DirectedGraph, s=None, alpha: float = 0.85, tol: float = 1e-9,
             max_iter: int = 10_000,
             dangling_policy: DanglingPolicy = DanglingPolicy.UNIFORM_TELEPORT) -> CentralityScores:
    """Damped fixed point pr = (1-alpha) s + alpha pr D^-1 A.

    The conservative steady state with delta = 0 and x0 = s. s must be
    a nonnegative unit-L1 vector (uniform by default); the result then
    keeps unit L1 norm to rounding.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("pagerank requires alpha in [0, 1)")
    sv, origin = _starting_vector(g, s, "uniform")
    if sv.min() < 0.0 or abs(sv.sum() - 1.0) > 1e-9:
        raise ValueError("starting vector must be nonnegative with unit L1 norm")
    cfg = ProcessConfig(CONSERVATIVE, alpha, 0.0, dangling_policy)
    x = conservative_steady_state(g, sv, cfg, tol=tol, max_iter=max_iter)
    return CentralityScores("pagerank", alpha, x, origin)


def alpha_centrality(g: DirectedGraph, s=None, alpha: float = 0.0,
                     tol: float = 1e-9, max_iter: int = 100_000) -> CentralityScores:
    """Attenuated influence series cr = s (I - alpha A)^-1.

    The non-conservative accumulation with delta = 0 and x0 = s; s
    defaults to the indegree vector (e A). Defined below the spectral
    bound only; alpha*lambda1 >= 1 - SPECTRAL_GUARD is rejected because
    the series no longer converges at numerically usable rates there.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    sv, origin = _starting_vector(g, s, "indegree")
    if alpha * spectral_radius(g) >= 1.0 - SPECTRAL_GUARD:
        raise NumericalError("beyond spectral bound; use normalized variant")
    x = nonconservative_accumulate(g, sv, ProcessConfig(NONCONSERVATIVE, alpha),
                                   tol=tol, max_iter=max_iter)
    return CentralityScores("alpha", alpha, x, origin)


def _normalized_alpha(g: DirectedGraph, alpha: float, tol: float, origin: str,
                      series) -> CentralityScores:
    # the guard-band rule; series() is the Alpha-Centrality at alpha, used below the band
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("normalized alpha centrality requires alpha in [0, 1]")
    rho = alpha * spectral_radius(g)
    if abs(rho - 1.0) <= SPECTRAL_GUARD:
        raise NumericalError("at spectral singularity")
    if rho > 1.0:
        values = power_iteration(g, tol=min(tol, 1e-10)).eigvec
    else:
        values = series().values
        total = float(np.abs(values).sum())
        if total == 0.0:
            raise NumericalError("centrality vanished; nothing to normalize")
        values = values / total
    return CentralityScores("normalized_alpha", alpha, values, origin)


def normalized_alpha_centrality(g: DirectedGraph, s=None, alpha: float = 0.0,
                                tol: float = 1e-9) -> CentralityScores:
    """L1-normalized Alpha-Centrality, defined across the spectral bound.

    Subcritical alpha normalizes the convergent series; supercritical
    alpha returns the L1-normalized dominant left eigenvector, the limit
    of normalized truncated sums (so its ranking matches eigenvector
    centrality and is alpha-independent). Alphas within the relative
    guard band of 1/lambda1 are rejected.
    """
    _, origin = _starting_vector(g, s, "indegree")
    return _normalized_alpha(g, alpha, tol, origin,
                             lambda: alpha_centrality(g, s, alpha=alpha, tol=tol))


def eigenvector_centrality(g: DirectedGraph, tol: float = 1e-10,
                           max_iter: int = 5000) -> CentralityScores:
    """L1-normalized dominant left eigenvector of A."""
    est = power_iteration(g, tol=tol, max_iter=max_iter)
    return CentralityScores("eigenvector", None, est.eigvec, "uniform")


def degree_centrality(g: DirectedGraph, direction: str = "in") -> CentralityScores:
    """Raw in- or out-degree as a score vector."""
    if direction == "in":
        return CentralityScores("indegree", None, indegree_vector(g), "indegree")
    if direction == "out":
        return CentralityScores("outdegree", None, g.out_degree.astype(np.float64), "outdegree")
    raise ValueError("direction must be 'in' or 'out'")


def sweep(g: DirectedGraph, measures, alphas, tol: float = 1e-9):
    """Cells (alpha, measure, scores) for each alpha and, within it, each measure.

    "nalpha" names normalized_alpha; an unknown measure is rejected
    before any work. scores is a CentralityScores, or the NumericalError
    that leaves the measure undefined at that alpha; a ValueError is
    raised at its alpha. Each alpha's series serves both alpha measures,
    and measures without an alpha are scored once per grid. tol applies
    to pagerank and the alpha measures.
    """
    measures = ["normalized_alpha" if m == "nalpha" else m for m in measures]
    for m in measures:
        if m not in MEASURES:
            raise ValueError(f"unknown measure {m!r}")
    return _sweep_cells(g, measures, alphas, tol)


def _sweep_cells(g: DirectedGraph, measures: list[str], alphas, tol: float):
    fixed = {}      # scores of the measures without an alpha, kept from the first alpha on
    for alpha in alphas:
        series = functools.cache(functools.partial(alpha_centrality, g, alpha=alpha, tol=tol))
        scorers = {"pagerank": functools.partial(pagerank, g, alpha=alpha, tol=tol),
                   "alpha": series,
                   "normalized_alpha": functools.partial(_normalized_alpha, g, alpha, tol,
                                                         "indegree", series),
                   "eigenvector": functools.partial(eigenvector_centrality, g),
                   "indegree": functools.partial(degree_centrality, g, "in"),
                   "outdegree": functools.partial(degree_centrality, g, "out")}
        for measure in measures:
            scores = fixed.get(measure)
            if scores is None:
                try:
                    scores = scorers[measure]()
                except NumericalError as exc:
                    scores = exc
                if measure in ("indegree", "outdegree", "eigenvector"):
                    fixed[measure] = scores
            yield alpha, measure, scores


def rank(scores: CentralityScores) -> Ranking:
    """Deterministic ranking: descending score, ties by ascending id."""
    values = np.asarray(scores.values, dtype=np.float64)
    n = values.shape[0]
    order = np.lexsort((np.arange(n), -values))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return Ranking(order=order, ranks=ranks)
