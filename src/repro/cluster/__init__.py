"""Simulated cluster substrate: DES kernel, nodes, network, PECs, failures."""

from .environment import SimulatedCluster
from .failures import DAY, HOUR, ScenarioScript
from .network import ANY, SERVER, Network
from .node import NodeSpec, SimNode
from .pec import PEC
from .simulation import Event, SimKernel, format_duration
from .topology import ik_linux, ik_sun, linneus, uniform
from .trace import ClusterTrace

__all__ = [
    "SimKernel",
    "Event",
    "format_duration",
    "NodeSpec",
    "SimNode",
    "Network",
    "ANY",
    "SERVER",
    "PEC",
    "SimulatedCluster",
    "ClusterTrace",
    "ScenarioScript",
    "DAY",
    "HOUR",
    "linneus",
    "ik_sun",
    "ik_linux",
    "uniform",
]
