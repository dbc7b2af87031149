"""Byte-budgeted, thread-safe LRU cache with hit/miss metrics.

Used for the ORC footer/stripe cache (``cluster.orc_cache``) and the
Attached-Table delta-range cache (``cluster.delta_cache``).  Entries
carry an explicit byte estimate; inserting past the budget evicts from
the LRU end, and a value larger than the whole budget is simply not
stored.

Cache *contents* never influence simulated time — hits replay the same
charges a miss records (callers enforce this; see
:mod:`repro.parallel`) — so the only observable difference a cache makes
is wall-clock speed plus the ``cache.<name>.*`` counters, which are
explicitly excluded from determinism comparisons (thread interleaving
can turn one miss into two concurrent misses).

Invalidation is by key prefix: keys are tuples whose first element is a
group tag (an HDFS path or an Attached-Table name), so a whole table's
entries drop in one call.  String tags match by ``startswith`` to cover
path prefixes (a master directory invalidates every file under it).
A key's first three elements name one *file* of the group — ``(table,
backend, file_id)`` for delta entries, ``(path, size, crc)`` for ORC
ones — and an index from that prefix to its keys makes dropping one
file's entries cost the entries of that file, not a walk of the cache.

The ORC cache also holds a few *pending seeds*: what the writer of a
file just written knows of it (:class:`repro.orc.writer.OrcSeed`),
under the file's ``(length, crc32)`` token, until the file's first
cached read takes it.  The table is FIFO-bounded and emptied by
:meth:`ByteBudgetLRU.clear`; a taken seed lives in the file's footer
entry, weighed there.
"""

import threading
from collections import OrderedDict

#: files whose seeds wait for a first read; older ones are dropped.
PENDING_SEEDS = 64


class ByteBudgetLRU:
    """An LRU mapping of tuple keys to (value, nbytes) with a byte cap."""

    def __init__(self, budget_bytes, metrics=None, name="cache"):
        self.budget_bytes = int(budget_bytes)
        self.metrics = metrics
        self.name = name
        self._lock = threading.Lock()
        self._entries = OrderedDict()    # key -> (value, nbytes)
        self._by_prefix = {}             # key[:3] -> {keys of _entries}
        self._used = 0
        self._seeds = OrderedDict()      # token -> seed, oldest first

    # ------------------------------------------------------------------
    def _incr(self, event, count=1):
        if count and self.metrics is not None:
            self.metrics.incr("%s.%s" % (self.name, event), count)

    def _drop(self, key):
        """Remove one entry, its bytes and its index slot (lock held)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return 0
        self._used -= entry[1]
        keys = self._by_prefix[key[:3]]
        keys.discard(key)
        if not keys:
            del self._by_prefix[key[:3]]
        return 1

    def get(self, key):
        """The cached value, or None on a miss (counts either way)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self._incr("misses")
            return None
        self._incr("hits")
        return entry[0]

    def put(self, key, value, nbytes):
        """Insert (or refresh) an entry, evicting LRU past the budget.

        Whatever ``key`` held before is superseded, also when the new
        value is larger than the whole budget and so is not stored.
        """
        nbytes = max(0, int(nbytes))
        evicted = 0
        with self._lock:
            self._drop(key)
            if self.budget_bytes <= 0 or nbytes > self.budget_bytes:
                return
            self._entries[key] = (value, nbytes)
            self._by_prefix.setdefault(key[:3], set()).add(key)
            self._used += nbytes
            while self._used > self.budget_bytes:
                evicted += self._drop(next(iter(self._entries)))
        self._incr("evictions", evicted)

    def add_seed(self, token, seed):
        """Keep ``seed`` for the first :meth:`take_seed` of ``token``
        (a no-op when the cache stores nothing)."""
        if self.budget_bytes <= 0:
            return
        with self._lock:
            self._seeds.pop(token, None)
            self._seeds[token] = seed
            if len(self._seeds) > PENDING_SEEDS:
                self._seeds.popitem(last=False)

    def take_seed(self, token):
        """Remove and return the seed kept for ``token``, or None."""
        with self._lock:
            return self._seeds.pop(token, None)

    # ------------------------------------------------------------------
    # Invalidation (strict: callers hook every mutation of the backing
    # store — EDIT commit, COMPACT, INSERT OVERWRITE, WAL loss).
    # ------------------------------------------------------------------
    def invalidate_group(self, tag):
        """Drop every entry whose key's first element matches ``tag``.

        String tags match by prefix so a directory tag covers all file
        paths beneath it; non-string tags match by equality.
        """
        with self._lock:
            if isinstance(tag, str):
                doomed = [p for p in self._by_prefix
                          if isinstance(p[0], str) and p[0].startswith(tag)]
            else:
                doomed = [p for p in self._by_prefix if p[0] == tag]
            dropped = sum(self._drop(key) for prefix in doomed
                          for key in list(self._by_prefix[prefix]))
        self._incr("invalidations", dropped)
        return dropped

    def invalidate_prefix(self, prefix):
        """Drop the entries whose key starts with the 3-tuple ``prefix``
        (one file of a group) at the cost of those entries alone."""
        with self._lock:
            dropped = sum(self._drop(key) for key in
                          list(self._by_prefix.get(prefix, ())))
        self._incr("invalidations", dropped)
        return dropped

    def clear(self):
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._by_prefix.clear()
            self._seeds.clear()
            self._used = 0
        self._incr("invalidations", dropped)
        return dropped

    # ------------------------------------------------------------------
    @property
    def used_bytes(self):
        with self._lock:
            return self._used

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def __repr__(self):
        return ("ByteBudgetLRU(%s: %d entries, %d/%d bytes)"
                % (self.name, len(self), self.used_bytes,
                   self.budget_bytes))
