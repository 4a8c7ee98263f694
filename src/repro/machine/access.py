"""Memory access classification.

The EA-MPU (paper Fig. 2) monitors three access streams separately:
instruction fetches (``next_IP`` from the fetch unit), data reads
(``read_addr``) and data writes (``write_addr``).  Every bus access in
the simulator is tagged with one of these types so the MPU models can
apply the correct permission bit.
"""

from __future__ import annotations

import enum


class AccessType(enum.Enum):
    """Kind of memory access as seen by the MPU."""

    FETCH = "x"
    READ = "r"
    WRITE = "w"

    # Members are singletons, so identity hashing agrees with equality
    # and skips ``Enum.__hash__`` (a Python-level call hashing the name)
    # on every lookaside probe.  Either hash varies per process.
    __hash__ = object.__hash__

    @property
    def permission_letter(self) -> str:
        """The r/w/x letter this access needs in an MPU rule."""
        return self.value
