"""Multi-robot household task allocation backed by learned spatial concepts."""

from .errors import (
    BackendError,
    BatchSetupError,
    ConfigurationError,
    EmptyDecompositionError,
    FloorAccessError,
    GenerationError,
    HomeplanError,
    PlanningError,
    ReplayMissError,
    SchemaError,
    ScoringError,
    UnallocatableError,
    UnknownLabelError,
    UnknownRoomError,
)
from .executor import (
    ExecutionPolicy,
    ExecutionTrace,
    TraceStep,
    run_assignments,
    traces_to_jsonl,
)
from .experiment import (
    SuiteConfig,
    SuiteReport,
    generate_instructions,
    run_field_trip_scenario,
    run_suite,
    score_allocations,
)
from .knowledge import (
    KnowledgeBase,
    extract_knowledge,
    knowledge_from_environment,
    load_knowledge,
    match_room_names,
    parse_place_vocab,
    parse_presence_table,
    render_place_vocab,
    render_presence_table,
    save_knowledge,
)
from .learner import learn_fixed_lag
from .planner import (
    Assignment,
    Instruction,
    PlannerBackend,
    RemoteChatBackend,
    ReplayBackend,
    RuleBasedBackend,
    Subtask,
    allocate,
    allocate_commonsense,
    allocate_random,
    decompose,
)
from .spatial import (
    Hyperparameters,
    Posterior,
    Session,
    SpatialConceptModel,
    assign_region,
    load_model,
    object_location_posterior,
    save_model,
    word_posterior,
)
from .world import (
    Environment,
    RobotState,
    SkillOutcome,
    World,
    generate_floor_sessions,
    load_environment,
    observe_session,
    save_environment,
)

__version__ = "0.1.0"
