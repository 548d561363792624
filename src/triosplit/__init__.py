"""Nonconvex three-operator splitting toolkit.

A generic splitting engine with energy-based step-size control, plus full
matrix-completion and sparse-recovery pipelines and an experiment CLI.
"""

from .cs import (RecoveryReport, SensingInstance, admm_lasso, dca_l12, dys_l12,
                 evaluate, truncated_sparsity)
from .datagen import (DctSpec, add_noise, gen_dct_matrix, gen_low_rank,
                      gen_sparse_signal, mutual_coherence, observe,
                      sample_omega)
from .experiments import (ExperimentConfig, PRESETS, ResultTable, build_config,
                          diagnose_gamma, run_experiment)
from .linalg import (ObservationSet, SvdTriplet, SvdWarmStart,
                     TruncatedSvdError, gram_spectral_norm,
                     masked_relative_residual, truncated_svd)
from .matcomp import (CompletionInstance, CompletionResult, drs_complete,
                      dys_complete, relative_error, rmse, svp_complete,
                      svt_complete)
from .prox import (GramSolver, grad_frobenius_reg, grad_neg_l2,
                   prox_masked_quadratic, rank_projection, soft_threshold)
from .ratings import ingest_ratings, load_ratings, split_observations
from .splitting import (RunResult, RunTrace, SplittingState, StoppingRule,
                        ThreeTermProblem, adapt_gamma, check_stop, dys_step,
                        energy, lambda_threshold, max_step_size, run,
                        stationarity_bound)

__version__ = "0.1.0"
