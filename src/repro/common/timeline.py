"""The CPU-cycle unit alias.

The simulator avoids per-cycle ticking.  A shared hardware resource (a
DRAM bank, a channel data bus) is a *reservation timeline*: "busy until"
timestamps that a request at time ``t`` for ``duration`` cycles advances
past the interval it is granted.  The memory devices keep those
timestamps in flat per-device lists (``repro.mem.device``, docs/MODEL.md
Section 2); this module keeps only the unit their times are counted in.
"""

from __future__ import annotations

#: Unit alias checked by the RL004 lint rule (see docs/LINTING.md).
#: Marks CPU-cycle quantities (timestamps and durations at the 2 GHz core
#: clock).  Plain ``int`` at run time; the alias keeps cycle arithmetic
#: visibly separate from byte and address arithmetic.
Cycles = int
