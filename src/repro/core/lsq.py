"""Per-thread load and store queues.

The store queue supports store-to-load forwarding (youngest older store
with a matching address); the load queue supports memory-ordering-violation
detection (a store resolving its address finds a younger load that already
executed with the same address but did not see this store's data).  Loads
of every thread issue speculatively and rely on that detection.
"""

from typing import List, Optional

from repro.core.uop import Uop


def _not_head(uop: Uop, entries: List[Uop], kind: str) -> RuntimeError:
    head = entries[0].seq if entries else None
    return RuntimeError(f"retiring {kind} seq {uop.seq} is not the {kind} "
                        f"queue head (head seq {head}): the queue no longer "
                        "mirrors the ROB")


class StoreQueue:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: List[Uop] = []  # program order (oldest first)

    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def insert(self, uop: Uop) -> None:
        if self.full():
            raise RuntimeError("store queue overflow (dispatch must check)")
        self.entries.append(uop)

    def retire(self, uop: Uop) -> None:
        """Drop the head, which must be the retiring ``uop``: the queue
        holds the ROB's stores in seq order and retire pops the ROB head."""
        entries = self.entries
        if not entries or entries[0] is not uop:
            raise _not_head(uop, entries, "store")
        del entries[0]

    def forward_source(self, load_seq: int, addr: int) -> Optional[Uop]:
        """Youngest store older than ``load_seq`` with a resolved matching
        address and a known value, eligible to forward."""
        best = None
        for st in self.entries:
            if st.seq >= load_seq:
                break
            if st.mem_addr == addr and st.store_value is not None and st.pred_enabled is not False:
                best = st
        return best


class LoadQueue:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: List[Uop] = []

    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def insert(self, uop: Uop) -> None:
        if self.full():
            raise RuntimeError("load queue overflow (dispatch must check)")
        self.entries.append(uop)

    def retire(self, uop: Uop) -> None:
        """Drop the head, which must be the retiring ``uop``: the queue
        holds the ROB's loads in seq order and retire pops the ROB head."""
        entries = self.entries
        if not entries or entries[0] is not uop:
            raise _not_head(uop, entries, "load")
        del entries[0]

    def find_violation(self, store: Uop) -> Optional[Uop]:
        """Oldest *younger* load that executed to the same address without
        having forwarded from this store or a younger one (memory-order
        violation)."""
        victim = None
        for ld in self.entries:
            if ld.seq <= store.seq:
                continue
            if (ld.mem_addr == store.mem_addr and ld.result is not None
                    and (ld.forward_seq is None or ld.forward_seq < store.seq)):
                if victim is None or ld.seq < victim.seq:
                    victim = ld
        return victim
