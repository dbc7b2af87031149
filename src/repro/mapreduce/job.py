"""Job/task model for the simulated MapReduce engine."""

import zlib
from dataclasses import dataclass, field


@dataclass
class InputSplit:
    """One unit of map-side work.

    ``payload`` is whatever the InputFormat wants to hand its mapper (a
    file path, an ORC stripe range, an HBase key range...).  ``size_bytes``
    is the scheduler's locality/size hint.
    """

    payload: object
    size_bytes: int = 0
    label: str = ""


class TaskContext:
    """Passed to every map/reduce function: counters + cluster access."""

    def __init__(self, cluster, task_type, task_index):
        self.cluster = cluster
        self.task_type = task_type
        self.task_index = task_index
        self.counters = {}

    def incr(self, counter, amount=1):
        self.counters[counter] = self.counters.get(counter, 0) + amount


@dataclass
class Job:
    """A MapReduce job specification.

    * ``map_fn(split, ctx)`` yields ``(key, value)`` pairs when the job has
      a reducer, or arbitrary output records for map-only jobs.
    * ``reduce_fn(key, values, ctx)`` yields output records.
    * ``combiner_fn`` (optional) has reduce semantics and runs per map task.
    """

    name: str
    splits: list
    map_fn: object
    reduce_fn: object = None
    combiner_fn: object = None
    num_reducers: int = 1
    properties: dict = field(default_factory=dict)

    @property
    def is_map_only(self):
        return self.reduce_fn is None


@dataclass
class JobResult:
    """Outputs plus the simulated cost breakdown of one job run."""

    name: str
    outputs: list
    sim_seconds: float
    map_seconds: float
    shuffle_seconds: float
    reduce_seconds: float
    num_map_tasks: int
    num_reduce_tasks: int
    shuffle_bytes: int
    counters: dict


def _canonical_key(key):
    """``key`` with every ``bool`` and integral ``float`` (also inside
    tuples) replaced by the ``int`` it compares equal to."""
    kind = type(key)
    if kind is tuple:
        return tuple(map(_canonical_key, key))
    if kind is bool or (kind is float and key.is_integer()):
        return int(key)
    return key


def stable_hash(key):
    """Deterministic partitioning hash (repr-based, seed-independent).

    Agrees with ``==``: ``1``, ``1.0`` and ``True`` are one dict key and
    one SQL value, so they must reach one reducer and one shard.  int,
    str and None keys hash exactly as their ``repr`` always did.
    """
    kind = type(key)
    if kind is not int and kind is not str:
        key = _canonical_key(key)
    return zlib.crc32(repr(key).encode("utf-8", "backslashreplace"))


def stable_hashes(keys):
    """``[stable_hash(key) for key in keys]`` in one bulk pass when every
    key is an exact int (whose ``repr`` is ASCII and needs no
    canonical form)."""
    if {int}.issuperset(map(type, keys)):
        return list(map(zlib.crc32, map(str.encode, map(repr, keys))))
    return list(map(stable_hash, keys))


def estimate_record_bytes(records):
    """Cheap serialized-size estimate: sample-pickle up to 64 records."""
    import pickle

    if not records:
        return 0
    sample = records[:64]
    sampled = sum(len(pickle.dumps(r, protocol=4)) for r in sample)
    return int(sampled / len(sample) * len(records))
