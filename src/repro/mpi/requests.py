"""Request objects for non-blocking operations (mpi4py-style handles)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.simlib import Event

__all__ = ["Request"]


@dataclass(slots=True)
class Request:
    """Handle of an in-flight point-to-point operation.

    Attributes
    ----------
    kind:
        ``"send"`` or ``"recv"``.
    sent:
        For sends: fires at *local* completion (buffer handed to the
        transport; what ``MPI_Send`` returning means).  For receives it
        aliases ``done``.
    done:
        Fires at full completion — remote delivery for sends, matched
        arrival for receives (value: the :class:`~repro.mpi.comm.Envelope`).
    envelope:
        For sends, the envelope being transmitted (known up front).
    """

    kind: str
    sent: Event
    done: Event
    envelope: Optional[Any] = None

    def test(self) -> bool:
        """True once the operation has fully completed."""
        return self.done.processed

    def wait(self) -> Event:
        """The event a rank program yields to block on full completion.

        Usage::

            req = comm.isend(dest, nbytes=1024)
            ...  # overlap other work
            yield req.wait()
        """
        return self.done
