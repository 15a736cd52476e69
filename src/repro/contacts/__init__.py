"""Contact bookkeeping: histories, the MI / MD matrices and the MEMD solver."""

from repro.contacts.history import ContactHistory
from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.contacts.md_matrix import build_delay_matrix
from repro.contacts.memd import (
    MemdCache,
    dijkstra_delays,
    minimum_expected_meeting_delay,
)

__all__ = [
    "ContactHistory",
    "MeetingIntervalMatrix",
    "MemdCache",
    "build_delay_matrix",
    "dijkstra_delays",
    "minimum_expected_meeting_delay",
]
