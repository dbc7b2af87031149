"""The shard map: which shard owns each hash bucket of a sharded table."""

import json

from repro.mapreduce.job import stable_hash
from repro.core.lookup import NUM_BUCKETS


class ShardMap:
    """Bucket -> shard assignment for one sharded table (persisted).

    The default assignment is ``bucket % num_shards``; REBALANCE edits
    it one bucket at a time and persists the result, so the map survives
    process restarts exactly like the master files do.
    """

    def __init__(self, fs, table_name, num_shards):
        self.fs = fs
        self.table_name = table_name
        self.num_shards = num_shards
        self.path = "/warehouse/%s/shardmap.json" % table_name
        loaded = self._load()
        self.assignment = (loaded if loaded is not None
                           else [b % num_shards for b in range(NUM_BUCKETS)])

    def _load(self):
        """The persisted assignment, or None if absent/torn/mismatched."""
        if not self.fs.exists(self.path):
            return None
        try:
            data = json.loads(
                self.fs.read_file_silent(self.path).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict) \
                or data.get("table") != self.table_name \
                or data.get("num_shards") != self.num_shards:
            return None
        assignment = data.get("assignment")
        if not isinstance(assignment, list) \
                or len(assignment) != NUM_BUCKETS \
                or not all(isinstance(s, int) and 0 <= s < self.num_shards
                           for s in assignment):
            return None
        return assignment

    def persist(self, assignment=None):
        if assignment is not None:
            self.assignment = list(assignment)
        payload = json.dumps({"table": self.table_name,
                              "num_shards": self.num_shards,
                              "assignment": self.assignment}).encode("utf-8")
        if self.fs.exists(self.path):
            self.fs.delete(self.path)
        self.fs.write_file(self.path, payload)

    @staticmethod
    def bucket_of(value):
        """The fixed hash bucket of one shard-key value."""
        return stable_hash(value) % NUM_BUCKETS

    def buckets_of(self, shard):
        return [b for b, s in enumerate(self.assignment) if s == shard]
