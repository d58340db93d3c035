"""Two-phase opinion-investment games on social networks.

Library layout:

* :mod:`opinion_game.model` holds the network, per-node parameters and the
  weight-constraint checks;
* :mod:`opinion_game.dynamics` computes per-phase steady-state opinions and
  chains phases;
* :mod:`opinion_game.centrality` computes the one-phase and look-ahead Katz
  influence vectors (:func:`compute_profile`) and the resolvent;
* :mod:`opinion_game.strategy_fixed` derives camp strategies when camp
  weights are fixed (per-node-capped or uncapped, myopic, multiple-elections);
* :mod:`opinion_game.strategy_dependent` handles the setting where camp
  influence depends on a node's bias, including the two-camp zero-sum game;
* :mod:`opinion_game.game` is a generic zero-sum matrix-game solver;
* :mod:`opinion_game.harness` generates weights and sweeps the bias-weight
  grid, mirroring the desk-scale experiment protocol.

``__all__`` is the public surface, each name listed once; other names may
change without notice.
"""

from .model import (
    BAD,
    GOOD,
    Budgets,
    InvestmentPlan,
    Network,
    Topology,
    Violation,
    load_edge_list,
    save_edge_list,
    validate,
)
from .dynamics import (
    ConvergenceError,
    dependency_camp_weights,
    iter_phases,
    run_phases,
    steady_state,
)
from .centrality import (
    CentralityProfile,
    compute_profile,
    delta_matrix,
)
from .strategy_fixed import (
    bounded_greedy,
    evaluate_two_phase,
    multi_election_scores,
    myopic_loss,
    myopic_strategy,
)
from .strategy_dependent import (
    DependencyCoefficients,
    GameSolution,
    single_camp_optimal,
    two_camp_equilibrium,
)
from .game import GameSolverError, solve_zero_sum
from .harness import (
    DEFAULT_W0_GRID,
    SWEEP_COLUMNS,
    SWEEP_MODES,
    WeightScheme,
    ba_graph,
    generate_weights,
    sweep_w0,
)

__version__ = "0.1.0"

__all__ = [
    "BAD",
    "GOOD",
    "Budgets",
    "CentralityProfile",
    "ConvergenceError",
    "DEFAULT_W0_GRID",
    "DependencyCoefficients",
    "GameSolution",
    "GameSolverError",
    "InvestmentPlan",
    "Network",
    "SWEEP_COLUMNS",
    "SWEEP_MODES",
    "Topology",
    "Violation",
    "WeightScheme",
    "ba_graph",
    "bounded_greedy",
    "compute_profile",
    "delta_matrix",
    "dependency_camp_weights",
    "evaluate_two_phase",
    "generate_weights",
    "iter_phases",
    "load_edge_list",
    "multi_election_scores",
    "myopic_loss",
    "myopic_strategy",
    "run_phases",
    "save_edge_list",
    "single_camp_optimal",
    "solve_zero_sum",
    "steady_state",
    "sweep_w0",
    "two_camp_equilibrium",
    "validate",
]
