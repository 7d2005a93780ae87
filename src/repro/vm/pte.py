"""Page-table entries.

A PTE maps a virtual page to a *physical page number* (``pfn``).  The pfn
indexes the full physical address space, so it can point into real memory
(where pfn == frame number) or into a proxy region -- that is exactly how
proxy mappings are expressed: an ordinary PTE whose pfn lies in memory-proxy
or device-proxy space.  The MMU neither knows nor cares; "the ordinary
virtual memory translation hardware performs the actual translation and
protection checking" (section 4).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PTE:
    """One page-table entry.

    Attributes:
        pfn: physical page number (physical address >> page shift).
        present: the translation is valid (page is "in core").
        writable: stores are permitted.
        user: user-mode accesses are permitted (kernel-only pages clear it).
        dirty: hardware-set on the first successful store since last clean.
        referenced: hardware-set on any successful access (for clock/LRU).
    """

    pfn: int
    present: bool = True
    writable: bool = True
    user: bool = True
    dirty: bool = False
    referenced: bool = False
