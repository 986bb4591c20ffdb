"""Memory request record passed from the cores to the controller."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

CompletionCallback = Callable[[int], None]


@dataclass
class Request:
    """One 64 B read or write.

    ``row`` and ``flat_bank`` are ``line_addr``'s DRAM location, decoded
    once per trace by :meth:`~repro.mapping.base.MemoryMapping.locate_array`
    so the controller never runs the mapping per request.
    ``on_complete`` fires (with the completion cycle) when the data transfer
    finishes; writes are fire-and-forget and usually pass ``None``.
    ``retry_at`` is used by the per-request ALERT-retry ablation; the default
    per-bank busy table never sets it.
    """

    core_id: int
    line_addr: int
    is_write: bool
    arrival: int
    row: int
    flat_bank: int
    on_complete: Optional[CompletionCallback] = None
    alerts: int = 0
    retry_at: int = 0
    _order: int = field(default=0, repr=False)
