"""Corner-case scene graph prediction and closed-loop scenario rollout."""

from .graphs import (
    ActorCategory,
    AgentState,
    Edge,
    LightState,
    Node,
    RelationCategory,
    SceneGraph,
    validate_grammar,
)
from .relations import (
    discretize_distance,
    discretize_relative_position,
    relative_angle,
    stopping_distance,
)
from .frames import FrameSnapshot, PlacedActor, RoadLayout, Strip, build_scene_graph
from .extended import (
    CandidateEdge,
    ConsistentArgmax,
    ExtendedGraph,
    Threshold,
    decode_prediction,
    enumerate_candidates,
    extend,
    label_candidates,
)
from .model import (
    ModelDims,
    ModelParams,
    forward,
    load_checkpoint,
    predict_probs,
    save_checkpoint,
)
from .training import TrainConfig, train
from .metrics import EvalReport, sweep
from .scenarios import Scenario, ScenarioTemplate, generate, generate_corpus, to_instances
from .sim import PROFILES, Outcome, realize, run_episode, scr_report

__version__ = "0.1.0"

__all__ = [
    "ActorCategory",
    "AgentState",
    "CandidateEdge",
    "ConsistentArgmax",
    "Edge",
    "EvalReport",
    "ExtendedGraph",
    "FrameSnapshot",
    "LightState",
    "ModelDims",
    "ModelParams",
    "Node",
    "Outcome",
    "PROFILES",
    "PlacedActor",
    "RelationCategory",
    "RoadLayout",
    "Scenario",
    "ScenarioTemplate",
    "SceneGraph",
    "Strip",
    "Threshold",
    "TrainConfig",
    "build_scene_graph",
    "decode_prediction",
    "discretize_distance",
    "discretize_relative_position",
    "enumerate_candidates",
    "extend",
    "forward",
    "generate",
    "generate_corpus",
    "label_candidates",
    "load_checkpoint",
    "predict_probs",
    "realize",
    "relative_angle",
    "run_episode",
    "save_checkpoint",
    "scr_report",
    "stopping_distance",
    "sweep",
    "to_instances",
    "train",
    "validate_grammar",
]
