"""Bounded admission with deterministic per-tenant fair scheduling.

The server cannot queue unboundedly: past ``max_queue`` waiting
statements it *sheds* load with a typed
:class:`~repro.common.errors.ServerOverloaded` instead of letting queue
delay grow without bound (graceful degradation — the client sees a
retryable error immediately rather than a timeout much later).

Scheduling is per-tenant round-robin: each tenant has a FIFO queue and
the dispatcher advances a cursor over tenants in first-seen order, so a
tenant flooding the server cannot starve the others — it only lengthens
*its own* queue.  Everything is deterministic: same submissions, same
dispatch order.
"""

from collections import OrderedDict, deque


class AdmissionController:
    """Bounded multi-tenant FIFO with round-robin dispatch."""

    def __init__(self, max_queue=64, metrics=None):
        self.max_queue = int(max_queue)
        self.metrics = metrics
        self._queues = OrderedDict()    # tenant -> deque (first-seen order)
        self._cursor = 0
        self.admitted = 0
        self.shed = 0

    # ------------------------------------------------------------------
    @property
    def depth(self):
        return sum(len(q) for q in self._queues.values())

    def _note_depth(self):
        if self.metrics is not None:
            self.metrics.gauge("server.queue_depth", self.depth)

    # ------------------------------------------------------------------
    def submit(self, tenant, item):
        """Enqueue ``item`` for ``tenant``; False means *shed*."""
        if self.depth >= self.max_queue:
            self.shed += 1
            if self.metrics is not None:
                self.metrics.incr("server.shed")
                # Per-tenant shed trail: the workload advisor's
                # tenant-pressure finding reads these.
                self.metrics.incr("server.shed.%s" % tenant)
            return False
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        queue.append(item)
        self.admitted += 1
        if self.metrics is not None:
            self.metrics.incr("server.admitted")
        self._note_depth()
        return True

    def requeue_front(self, tenant, item):
        """Put a retrying statement back at the head of its tenant's
        queue (it keeps its place; the bound is not re-checked — the
        statement was already admitted once)."""
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        queue.appendleft(item)
        self._note_depth()

    def pop(self):
        """The next statement under round-robin, or None if idle.

        The cursor walks tenants in first-seen order and resumes *after*
        the tenant it last served, so service alternates fairly across
        every tenant with waiting work.
        """
        tenants = list(self._queues)
        if not tenants:
            return None
        n = len(tenants)
        for offset in range(n):
            tenant = tenants[(self._cursor + offset) % n]
            queue = self._queues[tenant]
            if queue:
                item = queue.popleft()
                self._cursor = (self._cursor + offset + 1) % n
                self._note_depth()
                return item
        return None

    def pending(self):
        """All queued items in dispatch-agnostic (tenant, item) order."""
        return [(tenant, item) for tenant, queue in self._queues.items()
                for item in queue]
