"""Spectral-radius estimation, the epidemic threshold, and path-count analytics.

Scalable estimates come from power iteration on the CSR operators; a
dense eigendecomposition backs them as an oracle for graphs up to a
small node cap. Structural facts (acyclicity, strong connectivity) are
decided combinatorially, never from floating-point spectra. lambda1 is
computed once per graph object and reused by every later call on that
object.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError
from .graph import DirectedGraph, adjacency_apply

DENSE_CAP = 64
_MAX_TERMS = 100_000        # an infinite-horizon walk series stops after this many terms

_STALL_WINDOW = 100
_STALL_IMPROVEMENT = 1e-6

# lambda1 per graph. Graphs are immutable and hash by identity, so a value
# computed once holds for the object's lifetime; weak keys let the graph be
# collected.
_LAMBDA1: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class SpectralEstimate:
    """Dominant-eigenvalue estimate with its certificate.

    eigvec is the L1-normalized nonnegative left eigenvector iterate;
    residual = ||eigvec @ A - lambda1 * eigvec||_1 at return time.
    """

    lambda1: float
    eigvec: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class PathStats:
    """Attenuated path-count sums and the implied mean path length.

    expected_paths includes the k=0 identity term, so it is always at
    least the node count. expected_length averages over paths of
    positive length; with no such paths (alpha = 0, or a graph whose
    walks die out immediately) it is 0 by convention.
    """

    alpha: float
    horizon: int | None
    expected_paths: float
    expected_length: float
    method: str


def is_acyclic(g: DirectedGraph) -> bool:
    """True when the graph has no directed cycle (adjacency nilpotent)."""
    indeg = g.in_degree.copy()
    stack = [int(u) for u in np.flatnonzero(indeg == 0)]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for v in g.out_neighbors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(int(v))
    return seen == g.node_count


def _reaches_all(indptr: np.ndarray, indices: np.ndarray, n: int) -> bool:
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in indices[indptr[u]:indptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(int(v))
    return count == n


def is_strongly_connected(g: DirectedGraph) -> bool:
    if g.node_count == 1:
        return True
    return (_reaches_all(g.out_indptr, g.out_indices, g.node_count)
            and _reaches_all(g.in_indptr, g.in_indices, g.node_count))


def power_iteration(g: DirectedGraph, tol: float = 1e-10, max_iter: int = 5000) -> SpectralEstimate:
    """Estimate the dominant eigenvalue of A by left power iteration.

    Starts from the uniform positive vector (deterministic, and
    overlapping the dominant eigenvector on strongly connected graphs).
    Stalled residuals are reported as errors rather than returned as
    answers: equal-magnitude leading eigenvalues make the iterates
    oscillate, and the dense decomposition is the right tool there.
    """
    if g.node_count == 0:
        raise ValueError("empty graph")
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    v = np.full(g.node_count, 1.0 / g.node_count)
    w = adjacency_apply(g, v)
    best: SpectralEstimate | None = None
    best_resid = np.inf
    since_best = 0
    history: list[float] = []
    for it in range(1, max_iter + 1):
        lam = float(w.sum())
        if lam == 0.0:
            # v @ A vanished: v is a null vector and nothing dominates it
            return SpectralEstimate(0.0, v, it, 0.0)
        resid = float(np.abs(w - lam * v).sum())
        history.append(resid)
        if resid <= tol:
            return SpectralEstimate(lam, v, it, resid)
        if resid < best_resid * (1.0 - _STALL_IMPROVEMENT):
            best_resid = resid
            best = SpectralEstimate(lam, v, it, resid)
            since_best = 0
        else:
            since_best += 1
            if since_best >= _STALL_WINDOW:
                raise ConvergenceError(
                    "power iteration stalled: residual stopped improving, "
                    "leading eigenvalue magnitudes may be tied; "
                    "use the dense decomposition for small graphs",
                    iterations=it, history=history[-8:], best=best)
        v = w / lam
        w = adjacency_apply(g, v)
    raise ConvergenceError("power iteration did not reach tolerance",
                           iterations=max_iter, history=history[-8:], best=best)


class DenseEigenDecomposition:
    """Full eigendecomposition A = X diag(lambda) X^-1 for small graphs.

    Eigenvalues are sorted by descending magnitude (ties by descending
    real then imaginary part). Spectral projectors are available only
    when X is well conditioned; a defective matrix still exposes its
    eigenvalues but refuses projector arithmetic.
    """

    _COND_LIMIT = 1e12

    def __init__(self, g: DirectedGraph):
        if g.node_count > DENSE_CAP:
            raise ValueError(f"dense cap exceeded: {g.node_count} > {DENSE_CAP}")
        a = np.zeros((g.node_count, g.node_count))
        e = g.edges()
        if e.size:
            a[e[:, 0], e[:, 1]] = 1.0
        values, vectors = np.linalg.eig(a)
        order = np.lexsort((-values.imag, -values.real, -np.abs(values)))
        self.eigenvalues = values[order]
        self.right_vectors = vectors[:, order]
        self.condition = float(np.linalg.cond(self.right_vectors))
        self.diagonalizable = bool(np.isfinite(self.condition)
                                   and self.condition < self._COND_LIMIT)
        self._inverse = (np.linalg.inv(self.right_vectors)
                         if self.diagonalizable else None)

    @property
    def lambda1(self) -> float:
        return float(np.abs(self.eigenvalues[0]))

    def projector(self, i: int) -> np.ndarray:
        """Spectral projector Y_i with A = sum_i lambda_i Y_i."""
        if not self.diagonalizable:
            raise NumericalError("non-diagonalizable within tolerance")
        return np.outer(self.right_vectors[:, i], self._inverse[i, :])

    def reconstruct(self) -> np.ndarray:
        """sum_i lambda_i Y_i; equals A up to conditioning error."""
        if not self.diagonalizable:
            raise NumericalError("non-diagonalizable within tolerance")
        return (self.right_vectors * self.eigenvalues) @ self._inverse


def spectral_radius(g: DirectedGraph) -> float:
    """|lambda1| by the cheapest reliable route, once per graph.

    Acyclic graphs are exactly 0 (decided combinatorially); graphs up to
    DENSE_CAP nodes use the dense oracle; everything else uses power
    iteration. A ConvergenceError is not stored, so it raises again on
    every call.
    """
    lam = _LAMBDA1.get(g)
    if lam is None:
        if is_acyclic(g):
            lam = 0.0
        elif g.node_count <= DENSE_CAP:
            lam = DenseEigenDecomposition(g).lambda1
        else:
            lam = power_iteration(g).lambda1
        _LAMBDA1[g] = lam
    return lam


def epidemic_threshold(g: DirectedGraph) -> float:
    """Critical ratio of transmission to recovery, 1/|lambda1|."""
    lam = spectral_radius(g)    # exactly 0 when acyclic: any cycle makes lambda1 >= 1
    if lam == 0.0:
        raise NumericalError("no finite threshold (nilpotent adjacency)")
    return 1.0 / lam


def expected_path_stats(g: DirectedGraph, alpha: float, horizon: int | None = None,
                        method: str = "auto", tol: float = 1e-12) -> PathStats:
    """Attenuated walk-count series and its mean length.

    Accumulates terms t_k = alpha^k * (number of length-k walks), k from
    0 to the horizon (or until t_k < tol * running sum for an infinite
    horizon). expected_length is the t_k-weighted mean of k over k >= 1;
    on strongly connected graphs it approaches 1/(1 - alpha*lambda1)
    from below as the attenuation nears the spectral bound.

    method: "series" forces explicit accumulation of the length mean;
    "closed-form" forces 1/(1 - alpha*lambda1); "auto" uses the closed
    form only where its derivation holds (infinite horizon, strongly
    connected, subcritical) and the series otherwise. An infinite
    horizon or the closed form raises NumericalError at or above the
    spectral bound alpha*lambda1 = 1.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if method not in ("auto", "series", "closed-form"):
        raise ValueError(f"unknown method {method!r}")
    if horizon is not None and horizon < 0:
        raise ValueError("horizon must be >= 0")

    infinite = horizon is None
    if infinite or method == "closed-form":
        rho = alpha * spectral_radius(g)
        # the band straddles 1: dense/power estimates land 1 ulp either side
        if abs(1.0 - rho) < 1e-12:
            raise NumericalError("attenuation at the spectral singularity: series diverges")
        if rho > 1.0:
            raise NumericalError("supercritical: finite horizon required")

    w = np.ones(g.node_count)
    paths = float(w.sum())
    length_num = 0.0
    length_den = 0.0
    cap = horizon if horizon is not None else _MAX_TERMS
    for k in range(1, cap + 1):
        w = alpha * adjacency_apply(g, w)
        term = float(w.sum())
        if term == 0.0:
            break
        paths += term
        length_num += k * term
        length_den += term
        if infinite and term < tol * paths:
            break

    # alpha = 0 leaves no positive-length terms: the mean is 0 whatever
    # the method, and the closed form's 1/(1-0) would be meaningless.
    if alpha > 0.0 and (method == "closed-form"
                        or (method == "auto" and infinite and is_strongly_connected(g))):
        length = 1.0 / (1.0 - rho)
        used = "closed-form"
    else:
        length = length_num / length_den if length_den > 0.0 else 0.0
        used = "series"
    return PathStats(alpha=alpha, horizon=horizon, expected_paths=paths,
                     expected_length=length, method=used)
