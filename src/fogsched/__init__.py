"""Seedable fog-computing task-scheduling workbench.

Traffic-classified fog nodes, deadline-partitioned task batches, a discrete
golden-eagle optimizer for tight deadlines, a reward/penalty learner for
relaxed ones, and a reproducible experiment harness around them.
"""

from .baselines import baseline_greedy, baseline_random
from .geo import GeoParams, attack_vector, cruise_vector, geo_optimize, step_vector
from .harness import (
    ALGORITHMS,
    ExperimentPlan,
    RunRecord,
    aggregate,
    read_records,
    run_experiment,
    write_records,
    write_summary,
)
from .igeo import (
    IgeoParams,
    OperatorDraw,
    crossover_single,
    crossover_two,
    igeo_optimize,
    igeo_step,
    mutate,
)
from .metrics import (
    FitnessWeights,
    MetricsReport,
    ResponseBreakdown,
    calibrate_weights,
    deadline_violation,
    evaluate,
    fitness,
    node_energy,
    response_breakdown,
    total_deadline_violation,
    total_energy,
)
from .model import (
    Assignment,
    FogNode,
    Instance,
    Link,
    ScenarioConfig,
    Task,
    Topology,
    build_assignment,
    generate_scenario,
    load_scenario,
    merge_assignments,
    save_scenario,
    validate_instance,
)
from .rigeo import classify_nodes, partition_tasks, rigeo_schedule
from .rl import PolicyState, RlConfig, rl_episode, rl_init, rl_optimize

__version__ = "0.1.0"
