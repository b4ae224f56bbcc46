"""The paper's contribution: way memoization via a Memory Address Buffer.

* :mod:`repro.core.address` — the 14-bit partial adder and the 2-bit
  ``cflag`` (carry + displacement sign class) that let the MAB resolve
  the target tag and set-index *in parallel with* the 32-bit
  address-generation adder (paper Section 3.1, Figure 3).
* :mod:`repro.core.mab` — the MAB itself: ``Nt`` tag-side entries ×
  ``Ns`` set-index-side entries, the ``vflag`` validity matrix, the
  memoized way numbers and the LRU update rules of Section 3.3.
* :mod:`repro.core.dcache` / :mod:`repro.core.icache` — controllers
  that replay data / instruction-fetch traces through a cache + MAB and
  count tag/way accesses (Figures 4 and 6).
* :mod:`repro.core.line_buffer_memo` — the conclusion's future-work
  combination of way memoization with a line buffer.
* :mod:`repro.core.kernel` — the controllers' per-access loop as a
  small C kernel, compiled on first use and loaded with ``ctypes``.
"""

from repro.core.address import (
    SignClass,
    PartialSum,
    displacement_sign_class,
    partial_add,
)
from repro.core.dcache import WayMemoDCache
from repro.core.icache import WayMemoICache
from repro.core.line_buffer_memo import LineBufferWayMemoDCache
from repro.core.mab import MAB, MABConfig, MABLookup

__all__ = [
    "LineBufferWayMemoDCache",
    "MAB",
    "MABConfig",
    "MABLookup",
    "PartialSum",
    "SignClass",
    "WayMemoDCache",
    "WayMemoICache",
    "displacement_sign_class",
    "partial_add",
]
