"""Model-based property test for the queued UDMA controller.

A reference model (plain Python state) tracks what the hardware should do
under an arbitrary interleaving of stores, loads, Invals and completions;
the controller must agree on acceptance, backlog, MATCH flags and the
per-page reference counters at every step.

The model captures the full latch semantics: after a queue-full refusal
the DESTINATION latch is *kept* (the documented retry-by-LOAD design), so
any later proxy LOAD -- including a "status" read -- is an initiation
attempt.
"""

from hypothesis import given, settings, strategies as st

from repro.core.queueing import QueuedUdmaController
from repro.core.status import UdmaStatus
from repro.devices.sink import SinkDevice
from repro.dma.engine import DmaEngine
from repro.mem.layout import Layout
from repro.mem.physmem import PhysicalMemory
from repro.params import shrimp
from repro.sim.clock import Clock

PAGE = 4096
MEM = 1 << 20
DEPTH = 3

_actions = st.lists(
    st.one_of(
        # (action, mem page, device page)
        st.tuples(st.just("store"), st.just(0), st.integers(0, 7)),
        st.tuples(st.just("load"), st.integers(0, 7), st.just(0)),
        st.tuples(st.just("inval"), st.just(0), st.just(0)),
        st.tuples(st.just("drain"), st.just(0), st.just(0)),
    ),
    max_size=50,
)


@given(actions=_actions)
@settings(max_examples=80, deadline=None)
def test_queued_controller_matches_reference_model(actions):
    clock = Clock()
    layout = Layout(mem_size=MEM)
    ram = PhysicalMemory(MEM)
    engine = DmaEngine(clock, shrimp())
    udma = QueuedUdmaController(layout, ram, engine, clock, queue_depth=DEPTH)
    sink = SinkDevice("sink", size=1 << 16)
    window = udma.attach_device(sink)

    # --- reference model ---------------------------------------------
    pending_pages = []  # source pages: in-flight head + queued tail
    latch_armed = False  # a device-destination STORE without a LOAD yet

    def model_accepts():
        # user queue holds everything beyond the in-flight head
        queued = max(0, len(pending_pages) - 1)
        return queued < DEPTH

    for kind, mem_page, dev_page in actions:
        if kind == "store":
            udma.io_store(window.base + dev_page * PAGE, PAGE)
            latch_armed = True
        elif kind == "load":
            status = UdmaStatus.decode(
                udma.io_load(layout.proxy(mem_page * PAGE)), PAGE
            )
            if latch_armed:
                if model_accepts():
                    assert status.started
                    pending_pages.append(mem_page)
                    latch_armed = False
                else:
                    assert not status.started
                    assert status.should_retry  # transient refusal
                    # latch stays armed (retry-by-LOAD semantics)
            else:
                assert not status.started
                assert status.match == (mem_page in pending_pages)
        elif kind == "inval":
            udma.inval()
            latch_armed = False
        else:  # drain
            clock.run_until_idle()
            pending_pages.clear()

        # Global agreements after every action:
        assert udma.backlog_requests == len(pending_pages)
        for page in range(8):
            expected = pending_pages.count(page)
            assert udma.page_reference_count(page) == expected

    clock.run_until_idle()
    assert udma.backlog_requests == 0
    assert all(udma.page_reference_count(p) == 0 for p in range(8))
