"""BioOpera runtime engine: server, navigator, dispatcher, recovery."""

from . import events
from .dispatcher import Dispatcher, JobRequest
from .environment import ExecutionEnvironment, InlineEnvironment
from .instance import (
    COMPLETED,
    DISPATCHED,
    EXPANDED,
    FAILED,
    Frame,
    INACTIVE,
    ProcessInstance,
    SKIPPED,
    TaskState,
)
from .library import ProgramContext, ProgramFn, ProgramRegistry, ProgramResult
from .navigator import Navigator
from .recovery import (
    StepClock,
    failure_timeline,
    recovery_report,
    replay_instance,
    verify_log,
    work_lost_to_failures,
)
from .scheduler import (
    CapacityAwarePolicy,
    LeastLoadedPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    make_policy,
)
from .server import BioOperaServer

__all__ = [
    "events",
    "BioOperaServer",
    "StepClock",
    "Navigator",
    "Dispatcher",
    "JobRequest",
    "ProcessInstance",
    "TaskState",
    "Frame",
    "INACTIVE",
    "DISPATCHED",
    "EXPANDED",
    "COMPLETED",
    "FAILED",
    "SKIPPED",
    "ProgramRegistry",
    "ProgramContext",
    "ProgramResult",
    "ProgramFn",
    "ExecutionEnvironment",
    "InlineEnvironment",
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "CapacityAwarePolicy",
    "RandomPolicy",
    "make_policy",
    "replay_instance",
    "verify_log",
    "work_lost_to_failures",
    "failure_timeline",
    "recovery_report",
]
