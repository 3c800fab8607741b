"""Network-on-chip substrate.

This package provides the building blocks shared by every evaluated
interconnect: messages with flit accounting, virtual-channel buffers,
arbitration policies, a generic table-routed virtual-cut-through router,
network interfaces, and the three baseline fabrics (mesh, flattened
butterfly, ideal wire-only network).  The NOC-Out specific networks
(reduction/dispersion trees and the LLC flattened butterfly) live in
:mod:`repro.core`.
"""

from repro.noc.message import Message, MessageClass, control_message_bits, data_message_bits, flit_count
from repro.noc.buffer import VirtualChannelBuffer, InputPort
from repro.noc.arbiter import round_robin, static_priority
from repro.noc.router import Router, OutputPort
from repro.noc.interface import NetworkInterface
from repro.noc.network import Network
from repro.noc.mesh import MeshNetwork
from repro.noc.flattened_butterfly import FlattenedButterflyNetwork
from repro.noc.ideal import IdealNetwork

__all__ = [
    "Message",
    "MessageClass",
    "control_message_bits",
    "data_message_bits",
    "flit_count",
    "VirtualChannelBuffer",
    "InputPort",
    "round_robin",
    "static_priority",
    "Router",
    "OutputPort",
    "NetworkInterface",
    "Network",
    "MeshNetwork",
    "FlattenedButterflyNetwork",
    "IdealNetwork",
]
