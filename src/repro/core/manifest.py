"""Manifest two-phase commit: the one crash-atomic protocol behind full
COMPACT, partial COMPACT and shard REBALANCE.

A run is: *prepare* writes everything new into a fresh staging
directory; the JSON manifest is written — the commit point, before which
a crash rolls back and after which it rolls forward; *apply* swaps the
new state in with existence-guarded steps read from the manifest, so a
replay from any prefix converges; cleanup deletes the staging paths and
then the manifest.  Apply's fault points fire on the live path only.

A caller declares a :class:`ManifestKind`: its fault points in protocol
order (the first is hit before prepare, the second before the manifest
write, the rest by apply) and a check per manifest field.  A manifest
that is unparseable, of another table or mode, or fails a field check is
torn, and rolls back.
"""

import json


def of(json_type):
    """Field check: a JSON value of exactly ``json_type`` (no bool as int)."""
    return lambda value: type(value) is json_type


def index_below(bound):
    """Field check: an int in ``range(bound)``."""
    return lambda value: type(value) is int and 0 <= value < bound


def list_of(check, length=None):
    """Field check: a list (of ``length`` items) whose items pass ``check``."""
    return lambda value: (type(value) is list
                          and length in (None, len(value))
                          and all(map(check, value)))


class ManifestKind:
    """One protocol's fault points (``prefix.step``; apply hits them by
    step) and manifest fields (name -> check, in manifest order).
    ``mode`` is the manifest's ``"mode"`` value; None leaves it out."""

    def __init__(self, prefix, steps, fields, mode=None):
        self.points = {step: "%s.%s" % (prefix, step) for step in steps}
        self.steps = tuple(self.points.values())
        self.fields = fields
        self.mode = mode

    def valid(self, manifest):
        return manifest.get("mode") == self.mode and all(
            name in manifest and check(manifest[name])
            for name, check in self.fields.items())


def _replay(step):
    """A replayed apply hits no fault point."""


class ManifestProtocol:
    """One table's manifest path and staging paths (prepare writes into
    the first).  ``restore`` maps a staging path holding a backup of
    live data to the live path: rollback moves it back, rather than
    delete it, when the live copy is gone."""

    def __init__(self, env, table, path, staging, restore=None):
        self.fs = env.fs
        self.faults = env.cluster.faults
        self.table = table
        self.path = path
        self.staging = tuple(staging)
        #: every path a run can leave behind.
        self.paths = (path,) + self.staging
        self.restore = restore or {}

    def load(self, kinds):
        """``(kind, manifest)`` for a valid manifest of one of
        ``kinds`` (charged read), else ``(None, None)``."""
        if not self.fs.exists(self.path):
            return None, None
        try:
            manifest = json.loads(self.fs.read_file(self.path).decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError):
            return None, None
        if type(manifest) is dict and manifest.get("table") == self.table:
            for kind in kinds:
                if kind.valid(manifest):
                    return kind, manifest
        return None, None

    def run(self, kind, prepare, apply):
        """One live attempt, safe to retry: ``prepare(staging)`` returns
        the manifest fields, ``apply(manifest, hit)`` swaps.  Re-entered
        past the commit point it resumes apply from the manifest rather
        than rebuild phase 1 (which would apply the swap twice)."""
        found, manifest = self.load((kind,))
        if found is None:
            fs, table = self.fs, self.table

            def hit(step):
                self.faults.hit(kind.points[step], table=table)

            self.faults.hit(kind.steps[0], table=table)
            staging = self.staging[0]
            if fs.exists(staging):
                fs.delete(staging, recursive=True)
            fs.mkdirs(staging)
            fields = prepare(staging)
            self.faults.hit(kind.steps[1], table=table)
            manifest = {"table": table}
            if kind.mode is not None:
                manifest["mode"] = kind.mode
            manifest.update(fields)
            if fs.exists(self.path):
                fs.delete(self.path)
            fs.write_file(self.path, json.dumps(manifest).encode("utf-8"))
        else:
            hit = _replay
        apply(manifest, hit)
        self._cleanup()

    def recover(self, applies):
        """Roll forward a valid manifest (``applies`` maps kind -> apply)
        or roll back; ``"rolled_forward"``, ``"rolled_back"`` or
        ``"clean"``.  Idempotent."""
        kind, manifest = self.load(applies)
        if kind is not None:
            applies[kind](manifest, _replay)
            self._cleanup()
            return "rolled_forward"
        fs = self.fs
        rolled_back = False
        for path in self.paths:
            if fs.exists(path):
                live = self.restore.get(path)
                if live is not None and not fs.exists(live):
                    fs.rename(path, live)
                else:
                    fs.delete(path, recursive=True)
                rolled_back = True
        return "rolled_back" if rolled_back else "clean"

    def _cleanup(self):
        for path in self.staging + (self.path,):
            if self.fs.exists(path):
                self.fs.delete(path, recursive=True)
