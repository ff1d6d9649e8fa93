"""Flow-based dynamics, centrality, and influence estimation on sparse
directed graphs.

The package covers three layers that share one graph representation:
linear spreading processes (conservative mass transfer, non-conservative
replication, the SIS matrix model, Monte Carlo cascades), the centrality
measures those processes induce (PageRank, Alpha-Centrality and its
normalized variant, eigenvector and degree centralities), and an
empirical pipeline that estimates submitter influence from broadcast
activity logs and correlates it with the model scores.
"""
from ._kernels import BACKEND
from .centrality import (CentralityScores, Ranking, alpha_centrality,
                         degree_centrality, eigenvector_centrality,
                         normalized_alpha_centrality, pagerank, rank)
from .dynamics import (CONSERVATIVE, NONCONSERVATIVE, CascadeRunStats,
                       ProcessConfig, SisConfig, cascade_rounds,
                       conservative_step, conservative_steady_state,
                       independent_cascade, nonconservative_accumulate,
                       nonconservative_step, sis_step, threshold_sweep)
from .empirics import (Cascade, CorrelationReport, EventLog, InfluenceEstimate,
                       activity_entropies, correlation_sweep, extract_cascade,
                       from_records, global_influence, hypergeometric_pmf,
                       influence_cohort, local_influence, pearson_correlation, read_event_log,
                       significance_screen, spam_filter, synthesize_event_log,
                       write_event_log)
from .errors import (ConvergenceError, FlowrankError, InputFormatError,
                     NumericalError)
from .graph import (DanglingPolicy, DirectedGraph, adjacency_apply, build_graph,
                    indegree_vector, load_edge_list, replication_apply,
                    transfer_apply, write_edge_list)
from .spectral import (DenseEigenDecomposition, PathStats, SpectralEstimate,
                       dense_eigendecompose, epidemic_threshold,
                       expected_path_stats, is_acyclic, is_strongly_connected,
                       power_iteration, spectral_radius)

__version__ = "0.1.0"
