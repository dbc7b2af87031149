"""A directory of ORC files, the one layout of every table that stores
them: a DualTable's Master Table (:mod:`repro.core.master`), an ORC
table, whose partitions are subdirectories
(:mod:`repro.hive.storage.orc_handler`), and an ACID table's base
(:mod:`repro.acid.handler`).  Each parses its ``orc.*`` properties at
CREATE (:func:`orc_properties`), cuts rows into named files
(:func:`write_files`) and swaps directories crash-atomically
(:func:`replace`) here.
"""

from repro.orc.writer import DEFAULT_STRIPE_ROWS, write_orc_file

DEFAULT_ROWS_PER_FILE = 50_000


def int_property(properties, key, default, least, error):
    """Table property ``key`` (``default`` when absent) as an integer
    ``>= least``; a bad value raises ``error``."""
    value = properties.get(key, default)
    if type(value) is float and value.is_integer():
        value = int(value)      # ``SET DUALTABLE (read_factor = 2.0)``
    try:
        number = value if type(value) is int else int(str(value))
    except ValueError:
        raise error("%s must be an integer, got %r" % (key, value)) from None
    if number < least:
        raise error("%s must be >= %d, got %r" % (key, least, value))
    return number


def orc_properties(properties, error):
    """``(rows_per_file, stripe_rows)`` of a table's properties, each an
    integer >= 1; a bad value raises ``error`` (at CREATE, so the table
    is never made)."""
    return (int_property(properties, "orc.rows_per_file",
                         DEFAULT_ROWS_PER_FILE, 1, error),
            int_property(properties, "orc.stripe_rows",
                         DEFAULT_STRIPE_ROWS, 1, error))


def orc_paths(fs, directory):
    """The ORC files at or under ``directory``, sorted; none if it is
    missing."""
    if not fs.exists(directory):
        return []
    return [p for p in fs.list_files(directory) if p.endswith(".orc")]


def write_files(fs, directory, schema, rows, rows_per_file, stripe_rows,
                name):
    """Write the list ``rows`` as files of ``rows_per_file`` rows under
    ``directory`` (one empty file when there are none); their paths.

    ``name(i)`` gives chunk ``i``'s ``(file name, metadata)``.  A chunk
    is a slice of ``rows``, so the writer sees the caller's row objects:
    its file memo keys on marshalled rows, whose bytes depend on object
    sharing.
    """
    paths = []
    for i, start in enumerate(range(0, max(len(rows), 1), rows_per_file)):
        file_name, metadata = name(i)
        path = "%s/%s" % (directory, file_name)
        write_orc_file(fs, path, schema, rows[start:start + rows_per_file],
                       stripe_rows, metadata)
        paths.append(path)
    return paths


def replace(fs, location, write, parts=("",)):
    """Replace ``location`` — or only its subdirectories ``parts``
    (``""`` is ``location`` itself) — with what ``write(staging)`` lays
    out under ``staging``, crash-atomically; ``write``'s result.

    Nothing under ``location`` changes until ``write`` returns; then
    each part is renamed aside, its staged copy (if any) renamed in and
    the old copy deleted.  A crash inside ``write`` leaves the old files
    and a staging directory the next replace deletes.  Staging sits
    beside ``location`` (``.__tmp__``, ``.__replaced__``), never under
    it, where a listing or a partition walk would see it.  HDFS
    namespace operations are uncharged: staging costs no simulated time.
    """
    tmp, old = location + ".__tmp__", location + ".__replaced__"
    for leftover in (tmp, old):
        if fs.exists(leftover):
            fs.delete(leftover, recursive=True)
    fs.mkdirs(tmp)
    result = write(tmp)
    for part in parts:
        current = _join(location, part)
        if fs.exists(current):
            _move(fs, current, _join(old, part))
        if fs.exists(_join(tmp, part)):
            _move(fs, _join(tmp, part), current)
    for leftover in (old, tmp):
        if fs.exists(leftover):
            fs.delete(leftover, recursive=True)
    return result


def _join(directory, part):
    return "%s/%s" % (directory, part) if part else directory


def _move(fs, src, dst):
    fs.mkdirs(dst.rsplit("/", 1)[0])
    fs.rename(src, dst)
