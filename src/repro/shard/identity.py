"""The shard-count identity contract, in one importable place.

A sharded DualTable must behave like the same logical table at every
``INTO n``: identical rows, identical ledger *bytes and ops*, identical
non-cache counters.  Simulated seconds are also identical up to float
summation order — per-charge seconds are ``nbytes/rate + nops*latency``
and different shard counts partition the same byte/op totals into
different charge events, so the accumulated floats can differ in the
last ULP.  :func:`ledger_identity_view` therefore rounds seconds to
``SECONDS_DECIMALS`` places (picosecond agreement) while leaving bytes
and ops exact.  ``tests/test_shard.py`` compares through these helpers.

Per-statement makespans (``result.sim_seconds``) are *excluded* on
purpose: shard fan-out multiplies effective slots, so wall-clock shrinks
with shard count — that is the speedup being measured, not a leak.
"""

#: decimal places kept when comparing accumulated ledger seconds.
SECONDS_DECIMALS = 12

#: counter-name fragments excluded from identity comparison: per-shard
#: internals (``shard.*`` heat/routing, ``__s`` child-table counters)
#: and the documented cache-interleaving exclusion.
EXCLUDED_COUNTER_PARTS = ("cache", "__s")
EXCLUDED_COUNTER_PREFIXES = ("shard.",)


def counter_identity_view(counters):
    """Counters that must be byte-identical across shard counts."""
    return {
        name: value for name, value in counters.items()
        if not name.startswith(EXCLUDED_COUNTER_PREFIXES)
        and not any(part in name for part in EXCLUDED_COUNTER_PARTS)
    }


def ledger_identity_view(snapshot):
    """A ledger snapshot with seconds rounded to the identity grain."""
    return {
        "bytes": dict(snapshot["bytes"]),
        "ops": dict(snapshot["ops"]),
        "seconds": {key: round(value, SECONDS_DECIMALS)
                    for key, value in snapshot["seconds"].items()},
        "total_seconds": round(snapshot["total_seconds"],
                               SECONDS_DECIMALS),
    }


def identity_fingerprint(session, transcript):
    """Everything one run must share with every other shard count.

    ``transcript`` is a list of ``(sql, rows)`` pairs; the returned
    triple compares equal across ``INTO 1/4/8`` and ``workers`` 1/4 iff
    the identity contract holds.
    """
    cluster = session.cluster
    return (
        list(transcript),
        ledger_identity_view(cluster.ledger.snapshot()),
        counter_identity_view(cluster.metrics.counters),
    )
