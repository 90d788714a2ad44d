"""Runtime glue: device-agnostic sessions, the device registry, workload
generators, and simulation-fidelity utilities."""

from .fidelity import Fidelity, group_rows, task_signature
from .devices import available_devices, device_for, DEVICE_NAMES
from .parse_cache import ParseCache, ParseCacheStats
from .session import CuLiSession
from .snapshot import HeapSnapshot, restore_env, snapshot_env

__all__ = [
    "Fidelity",
    "group_rows",
    "task_signature",
    "CuLiSession",
    "HeapSnapshot",
    "snapshot_env",
    "restore_env",
    "ParseCache",
    "ParseCacheStats",
    "available_devices",
    "device_for",
    "DEVICE_NAMES",
]
