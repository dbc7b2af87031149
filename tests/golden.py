"""What the row engine and the row merge said last.

``tests/golden/row_engine.json`` was recorded at commit 2638d4d, the
parent of the commit that deleted both, with workers 1: the suites
named in :data:`MODULES` ran against that checkout under
``REPRO_ENGINE=row`` (``REPRO_MERGE=row`` for the merge-strategy
suites, whose dirty units are kept under the surviving counter name)
and ``python -m tests.golden`` wrote down what their
``golden_sections()`` returned.  The one execution path left must
reproduce it at every worker count, batch size and shard count — the
simulated clock cannot see the execution strategy.  A test id ending in
``row`` is held to this file; its ``vectorized`` / ``overlay`` sibling
to a reference that still runs.

Ledger bytes include zlib-compressed ORC streams (recorded with zlib
1.2.13, Python 3.11); a zlib that compresses differently moves them.
A deliberate change to the cost model or to what is charged moves these
numbers too: re-record with ``python -m tests.golden [suite ...]`` (it now
snapshots the surviving path) and say so in the PR.
"""

import hashlib
import importlib
import json
import pathlib
import sys

PATH = pathlib.Path(__file__).parent / "golden" / "row_engine.json"
MODULES = ["test_vectorized", "test_batch_operators", "test_shard",
           "test_lookup", "test_delta_fetch", "test_merge_overlay",
           "test_edit_batch", "test_overwrite_batch", "test_merge"]
_loaded = {}


def jsonable(value):
    """``value`` as plain JSON data: tuples become lists, tuple keys
    ``a/b`` strings, bytes hex, NaN a string (so equal runs compare
    equal)."""
    if isinstance(value, dict):
        return {"/".join(map(str, key)) if isinstance(key, tuple)
                else str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, float) and value != value:
        return "NaN"
    if value is None or isinstance(value, (str, int, float)):
        return value
    return repr(value)


def digest(value):
    """A short stable hash of ``value``, for observations too bulky to
    keep verbatim (file bytes, edit lists, per-statement ledgers)."""
    text = json.dumps(jsonable(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def golden(section):
    if not _loaded:
        _loaded.update(json.loads(PATH.read_text()))
    return _loaded[section]


def main(names):
    data = json.loads(PATH.read_text()) if PATH.exists() else {}
    for name in names or MODULES:
        module = importlib.import_module("tests." + name)
        data.update(jsonable(module.golden_sections()))
    lines = ["%s: %s" % (json.dumps(section), json.dumps(data[section]))
             for section in sorted(data)]
    PATH.write_text("{\n%s\n}\n" % ",\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
