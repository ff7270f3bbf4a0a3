"""Disassembly/assembly planning, skill decomposition and simulated execution."""

from .dspace import (DirectionSet, Mobility, MobilityGraph, MobilityLabel,
                     build_graph, classify_sdof, disassembly_space,
                     sample_sphere)
from .errors import (DegenerateSpace, DismantleError, ErrorType,
                     InapplicablePrimitive, ParseError, PlanInfeasible,
                     SingularJacobian, SkillTimeout, UnknownComponent,
                     UnresolvableGoal, ValidationError)
from .geometry import Pose
from .metrics import (FaultSpec, MetricsReport, execute_once, run_experiment)
from .model import (AssemblyModel, Component, FeatureGeometry, RelationKind,
                    Semantic, SpatialRelation, Tool, contacts_of, load_model)
from .planner import (ManipulationPrimitive, MPKind, Plan, invert_plan,
                      plan_disassembly, plan_task, transition)
from .skills import (ExecState, HybridMove, SkillPrimitive, StopCondition,
                     ToolCommand, decompose, interpret)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
