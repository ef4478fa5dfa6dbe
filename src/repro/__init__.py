"""BioOpera reproduction: dependable process support for virtual laboratories.

Reimplementation of the system described in G. Alonso, W. Bausch,
C. Pautasso, M. Hallett, A. Kahn, "Dependable Computing in Virtual
Laboratories" (ETH TR 349 / ICDE 2001). See DESIGN.md for the system
inventory and EXPERIMENTS.md for the reproduced evaluation.

Quickstart::

    from repro import (BioOperaServer, InlineEnvironment, DarwinEngine,
                       DatabaseProfile, install_all_vs_all)
    from repro.workloads import datasets

    db = datasets.small_database()
    darwin = DarwinEngine(DatabaseProfile.from_database(db),
                          database=db, mode="real")
    server = BioOperaServer()
    env = InlineEnvironment()
    server.attach_environment(env)
    install_all_vs_all(server, darwin)
    instance_id = server.launch("all_vs_all", {"db_name": db.name})
    env.run_instance(instance_id)
    print(server.instance(instance_id).outputs)
"""

from .bio import (
    CostModel,
    DarwinEngine,
    DatabaseProfile,
    MatrixFamily,
    Sequence,
    SequenceDatabase,
    default_family,
    sw_align,
    sw_score,
)
from .cluster import (
    NodeSpec,
    ScenarioScript,
    SimKernel,
    SimulatedCluster,
    format_duration,
)
from .core.engine import (
    BioOperaServer,
    InlineEnvironment,
    ProgramContext,
    ProgramRegistry,
    ProgramResult,
)
from .core.engine.operator_console import OperatorConsole
from .core.model import (
    Activity,
    Binding,
    Block,
    ParallelTask,
    ProcessTemplate,
    SubprocessTask,
    TaskGraph,
)
from .core.monitor.adaptive import AdaptiveMonitor, MonitorConfig
from .core.ocr import parse_ocr, print_ocr
from .core.planning import drain_plan, outage_impact
from .errors import ReproError
from .obs import ObservabilityHub, TaskSpan, TraceCollector
from .processes import install_all_vs_all, install_tower
from .prov import LineageRecord
from .store import OperaStore

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # process model & language
    "ProcessTemplate",
    "TaskGraph",
    "Activity",
    "Block",
    "ParallelTask",
    "SubprocessTask",
    "Binding",
    "parse_ocr",
    "print_ocr",
    # engine
    "BioOperaServer",
    "InlineEnvironment",
    "ProgramRegistry",
    "ProgramContext",
    "ProgramResult",
    "OperatorConsole",
    # monitoring & planning
    "AdaptiveMonitor",
    "MonitorConfig",
    "ObservabilityHub",
    "TaskSpan",
    "TraceCollector",
    "outage_impact",
    "drain_plan",
    # store & provenance
    "OperaStore",
    "LineageRecord",
    # cluster
    "SimKernel",
    "SimulatedCluster",
    "NodeSpec",
    "ScenarioScript",
    "format_duration",
    # bio
    "Sequence",
    "SequenceDatabase",
    "DatabaseProfile",
    "CostModel",
    "DarwinEngine",
    "MatrixFamily",
    "default_family",
    "sw_score",
    "sw_align",
    # processes
    "install_all_vs_all",
    "install_tower",
]
