"""The Music Data Manager: the figure 1 architecture.

One MDM serves many clients -- editors, typesetters, compositional
tools, score libraries, analysis systems -- which share a single data
representation and query interface instead of each managing its own.
"""

from repro.mdm.manager import MusicDataManager
from repro.mdm.service import AdmissionGate, MdmSession
from repro.mdm.clients import (
    AnalysisClient,
    Client,
    CompositionClient,
    EditorClient,
    LibraryClient,
)

__all__ = [
    "MusicDataManager",
    "MdmSession",
    "AdmissionGate",
    "Client",
    "EditorClient",
    "CompositionClient",
    "LibraryClient",
    "AnalysisClient",
]
