"""Pipeline scheduling of concurrent DNNs on heterogeneous 3-unit devices."""

from .baselines import (
    GaConfig,
    LinRegModel,
    fit_linreg,
    ga_schedule,
    gpu_only,
    mosaic_schedule,
    random_best,
)
from .embedding import build_embedding
from .errors import DatasetError, MappingError, ProfileError, SearchSpaceError
from .estimator import (
    EstimatorNet,
    TargetStats,
    load_weights,
    save_weights,
)
from .evaluators import EstimatorEvaluator, SimulatorEvaluator
from .mcts import MctsConfig
from .mcts import schedule as mcts_schedule
from .simulator import (
    Mapping,
    Stage,
    ThroughputReport,
    count_assignments,
    exhaustive_best,
    iter_assignments,
    load_mapping,
    save_mapping,
    simulate,
    simulate_batch,
    stage_bounds,
    stage_count,
    stages_of,
    validate_mapping,
)
from .training import (
    Sample,
    TrainConfig,
    generate_dataset,
    gradient_check,
    load_dataset,
    preprocess_targets,
    save_dataset,
    save_history_csv,
    train,
)
from .workload import (
    ComputeUnit,
    DeviceProfile,
    DnnModel,
    GeneratorConfig,
    KernelProfile,
    LayerFeatures,
    LayerSpec,
    UnitKind,
    Workload,
    generate_profile,
    layer_cost,
    load_profile,
    save_profile,
    workload_from_names,
)

__version__ = "0.1.0"
