"""Cache on write: a file's first cached read takes its writer's seed.

``repro.orc.write_orc_file`` writes a file and then leaves its *seed* (the
footer and rows its writer held, ``repro.orc.writer.OrcSeed``) on the
cluster's ORC cache.  The file's first cached open takes the footer from
it instead of parsing JSON, and a stripe-column miss takes the seed's
column instead of decoding the stream.  This is a wall-clock change
only, so everything here holds the seeded path to the decoded one:

* a seeded column and footer equal, by value *and* type, what the
  decoders and ``json.loads`` return; a column or footer the decoder
  would not return exactly is never seeded, and a dictionary-encoded
  string column of a long stripe decodes by design;
* a seed is used only for the very bytes it was written as: a file
  changed after the write raises the decoders' typed errors, and a
  failed write leaves no seed;
* a memo hit and a build seed alike (rows, ``cache.orc.*`` counters and
  the cache's weight repeat), and no seed outlives its file's cache
  entries.
"""

import json
import math
import struct
import types
import weakref
import zlib

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.common.errors import CorruptOrcFileError, FaultInjectedError
from repro.faults import Fault, FaultPlan
from repro.hdfs import HdfsFileSystem
from repro.hive import HiveSession
from repro.orc import OrcReader, write_orc, write_orc_file
from repro.orc import reader as orc_reader
from repro.orc import writer
from repro.orc.encodings import DECODERS, dictionary_encodes
from repro.orc.writer import MAGIC
from repro.parallel import cache as cache_module
from tests.test_orc import _replace_last_stream

SCHEMA = [("i", "int"), ("d", "double"), ("s", "string"), ("b", "boolean")]


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    memo = writer._FileMemo()
    monkeypatch.setattr(writer, "_FILE_MEMO", memo)
    return memo


@pytest.fixture
def live_seeds(monkeypatch):
    """A function listing the seeds made during the test still alive."""
    made = []

    class Tracked(writer.OrcSeed):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(writer, "OrcSeed", Tracked)
    return lambda: [ref() for ref in made if ref() is not None]


@pytest.fixture
def decodes(monkeypatch):
    """``(kind, stream)`` of every column decode while the test runs."""
    calls = []

    def counted(kind, decode):
        def call(stream):
            calls.append((kind, stream))
            return decode(stream)
        return call

    monkeypatch.setattr(orc_reader, "DECODERS", {
        kind: counted(kind, decode) for kind, decode in DECODERS.items()})
    return calls


def new_fs(**profile):
    return HdfsFileSystem(Cluster(ClusterProfile.laptop(**profile)))


def typed(obj):
    """``obj`` with every scalar replaced by ``(type, repr)``: equal iff
    equal by value and by type (NaN, -0.0 and 1 vs 1.0 vs True too)."""
    if isinstance(obj, dict):
        return {typed(key): typed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(map(typed, obj)))
    return (type(obj).__name__, repr(obj))


def footer_json(data):
    tail = len(MAGIC) + 8
    (length,) = struct.unpack("<Q", data[-tail:-len(MAGIC)])
    return json.loads(data[len(data) - tail - length:len(data) - tail])


def pending(fs):
    return list(fs.cluster.orc_cache._seeds.values())


def written_seed(fs, path, schema, rows, stripe_rows=20, metadata=None):
    """Write through the entry point; the file's pending seed."""
    data = write_orc_file(fs, path, schema, rows, stripe_rows, metadata)
    (seed,) = [s for s in pending(fs) if s.data is data]
    return seed


def decoded_columns(data):
    """{(stripe, column): decoded list} of the whole file."""
    reader = OrcReader(data)
    out = {}
    for stripe in reader.stripes:
        for idx, (_, kind) in enumerate(reader.schema):
            meta = stripe.columns[idx]
            stream = data[meta["offset"]:meta["offset"] + meta["length"]]
            out[stripe.index, idx] = DECODERS[kind](stream)
    return reader, out


def seeded_columns(seed, reader):
    return {(stripe.index, idx): seed.column(idx, kind, stripe.first_row,
                                             stripe.num_rows,
                                             stripe.stats(idx))
            for stripe in reader.stripes
            for idx, (_, kind) in enumerate(reader.schema)}


def decodes_dictionary(reader, stripe, idx):
    """Is this a dictionary-encoded string column of a long stripe?"""
    info = reader.stripes[stripe]
    stats = info.stats(idx)
    return (reader.schema[idx][1] == "string"
            and info.num_rows > writer._SEED_DICTIONARY_ROWS
            and dictionary_encodes(stats["count"] - stats["nulls"],
                                   stats["ndv"]))


def assert_seed_is_the_decode(seed, unseeded=()):
    """The seed's footer, unless it has none, and every column but those
    (by index) in ``unseeded`` and the dictionary-encoded string ones of
    long stripes, which are not seeded at all, equal the decode by value
    and type."""
    reader, decoded = decoded_columns(seed.data)
    if seed.footer() is not None:
        assert typed(seed.footer()) == typed(footer_json(seed.data))
    for (stripe, idx), column in seeded_columns(seed, reader).items():
        if idx in unseeded or decodes_dictionary(reader, stripe, idx):
            assert column is None, (stripe, idx)
        else:
            assert typed(column) == typed(decoded[stripe, idx]), (stripe, idx)


def long_string(i):
    return "längere Zeichenkette %d " % i + "x" * 130


#: three stripes of 20; distinct strings, so no stripe takes the
#: dictionary encoding
ROWS = [(i * 7919 - 3000, i / 8.0, "s%d" % i, i % 3 == 0)
        for i in range(60)]

FILES = {
    "every kind": (SCHEMA, ROWS),
    "nulls": (SCHEMA, [tuple(None if (i + c) % 4 == 0 else v
                             for c, v in enumerate(row))
                       for i, row in enumerate(ROWS)]),
    "all null": (SCHEMA, [(None,) * 4] * 9),
    "-0.0 and inf": ([("d", "double")],
                     [(-0.0,), (0.0,), (math.inf,), (-1e308,), (5e-324,)]),
    "non-ASCII and long strings": ([("s", "string")],
                                   [("ü%d€" % i,) for i in range(18)]
                                   + [(long_string(i),) for i in range(20)]
                                   + [("",), ("日本",)]),
    "dictionary strings": ([("s", "string")],
                           [("v%d" % (i % 3),) for i in range(30)]),
    "string stripes of both encodings": ([("s", "string")],
                                         [("w%d" % (i % 24),)
                                          for i in range(50)]),
    "big ints": ([("i", "int")], [(2 ** 62,), (-(2 ** 62),), (0,), (1,)]),
    "one stripe": (SCHEMA, ROWS[:3]),
    "empty": (SCHEMA, []),
}


class TestSeedEqualsTheDecode:
    @pytest.mark.parametrize("name", sorted(FILES))
    def test_columns_and_footer(self, name):
        schema, rows = FILES[name]
        seed = written_seed(new_fs(), "/t/f.orc", schema, rows,
                            metadata={"file.id": 7, "who": "ü"})
        assert seed.footer() is not None
        assert_seed_is_the_decode(seed)

    def test_every_stripe_of_every_kind_is_seeded(self):
        seed = written_seed(new_fs(), "/t/f.orc", SCHEMA, ROWS)
        reader, _ = decoded_columns(seed.data)
        assert len(reader.stripes) == 3
        assert None not in seeded_columns(seed, reader).values()

    def test_long_dictionary_string_stripes_decode(self):
        """A long dictionary-encoded stripe decodes cheaply, to one
        object per distinct string; the writer's rows may hold one per
        row, which grouping would compare by value, not identity."""
        rows = [("w%d" % (i % 24),) for i in range(800)]
        seed = written_seed(new_fs(), "/t/f.orc", [("s", "string")], rows,
                            stripe_rows=300)
        reader, decoded = decoded_columns(seed.data)
        columns = seeded_columns(seed, reader)
        # 24 strings in each stripe: 300 and 300 rows decode, 200 do not
        assert [column is None for column in columns.values()] == [
            True, True, False]
        assert columns[2, 0] == decoded[2, 0]
        assert len(set(map(id, decoded[0, 0]))) == 24

    def test_nan_column_is_not_seeded(self):
        """A decoder returns a fresh object per NaN; the writer's rows may
        share one, and dict grouping and ``list.index`` see identity."""
        nan = float("nan")
        rows = [(i, nan if i % 3 == 0 else -0.0) for i in range(8)]
        seed = written_seed(new_fs(), "/t/f.orc",
                            [("k", "int"), ("d", "double")], rows)
        assert seed.footer() is None          # NaN statistics
        assert_seed_is_the_decode(seed, unseeded={1})

    @pytest.mark.parametrize("kind, value", [
        ("double", 3),              # an int in a double column
        ("int", True),              # a bool in an int column
        ("boolean", 1),             # an int in a boolean column
        ("string", type("Text", (str,), {})("x")),
        ("double", type("Real", (float,), {})(2.5)),
    ])
    def test_value_of_another_type_is_not_seeded(self, kind, value):
        good = {"int": 4, "double": 1.5, "string": "y%d",
                "boolean": False}[kind]
        rows = [(i, value if i == 25 else good % i if kind == "string"
                 else good) for i in range(60)]
        seed = written_seed(new_fs(), "/t/f.orc", [("k", "int"), ("c", kind)],
                            rows)
        reader, decoded = decoded_columns(seed.data)
        columns = seeded_columns(seed, reader)
        # only the stripe holding the odd value decodes
        assert [key for key, column in columns.items() if column is None] \
            == [(1, 1)]
        assert typed(columns[0, 1]) == typed(decoded[0, 1])

    @pytest.mark.parametrize("metadata", [
        {"nested": [1, 2]}, {1: "int key"}, {"nan": float("nan")},
        {"enum": type("Flag", (int,), {})(1)},
    ])
    def test_non_json_metadata_seeds_columns_only(self, metadata):
        seed = written_seed(new_fs(), "/t/f.orc", SCHEMA, ROWS,
                            metadata=metadata)
        assert seed.footer() is None
        assert_seed_is_the_decode(seed)

    def test_footer_copies_share_nothing(self):
        seed = written_seed(new_fs(), "/t/f.orc", SCHEMA, ROWS[:3])
        footer = seed.footer()
        assert footer is not seed.footer()
        # file statistics never alias a stripe's (one-stripe file)
        assert footer["column_stats"][0] is not \
            footer["stripes"][0]["columns"][0]["stats"]
        strings = {id(v) for row in ROWS[:3] for v in row
                   if isinstance(v, str)}
        assert "s0" in footer["column_stats"][2].values()
        assert not any(id(v) in strings
                       for stats in footer["column_stats"]
                       for v in stats.values())

    def test_memo_hit_seeds_like_a_build(self, fresh_memo):
        fs = new_fs()
        seeds = [written_seed(fs, "/t/f%d.orc" % n, SCHEMA, ROWS,
                              metadata={"k": 1}) for n in range(3)]
        assert len(fresh_memo._entries) == 1          # the third write hit
        assert seeds[2].data is seeds[1].data
        for seed in seeds:
            assert_seed_is_the_decode(seed)
        reader, _ = decoded_columns(seeds[0].data)
        assert typed(seeded_columns(seeds[2], reader)) == typed(
            seeded_columns(seeds[0], reader))


class TestSeededRead:
    """Through ``OrcReader``: what a seeded read returns and charges."""

    def test_first_read_decodes_nothing_and_equals_a_decoded_read(
            self, decodes):
        fs = new_fs()
        data = write_orc_file(fs, "/t/f.orc", SCHEMA, ROWS, 20,
                              {"file.id": 3})
        seeded = OrcReader(fs, "/t/f.orc")
        rows = seeded.read_all()
        assert decodes == []
        plain = OrcReader(data)
        assert typed(rows) == typed(plain.read_all())
        assert (seeded.schema, seeded.metadata, seeded.column_stats) == (
            plain.schema, plain.metadata, plain.column_stats)

    def test_seeded_read_charges_what_a_decoded_one_does(self):
        seeded_fs, plain_fs = new_fs(), new_fs()
        write_orc_file(seeded_fs, "/t/f.orc", SCHEMA, ROWS, 20)
        plain_fs.write_file("/t/f.orc", write_orc(SCHEMA, ROWS, 20))
        assert pending(plain_fs) == []
        for fs in (seeded_fs, plain_fs):
            reader = OrcReader(fs, "/t/f.orc")
            reader.read_all(projection=["s", "i"])
            list(reader.batches(row_spans={0: [(0, 20)], 1: [(20, 40)]}))
            OrcReader(fs, "/t/f.orc").read_all()
        one, other = (fs.cluster for fs in (seeded_fs, plain_fs))
        assert one.ledger.snapshot() == other.ledger.snapshot()
        assert one.metrics.counters == other.metrics.counters

    def test_lazy_per_column(self, decodes):
        fs = new_fs()
        write_orc_file(fs, "/t/f.orc", SCHEMA, ROWS, 20)
        OrcReader(fs, "/t/f.orc").read_all(projection=["s"])
        cache = fs.cluster.orc_cache
        # the footer and one column per stripe: 1 + 3 entries
        assert len(cache) == 4
        # a later reader of the file still has the seed for column "i"
        OrcReader(fs, "/t/f.orc").read_all(projection=["i"])
        assert decodes == [] and len(cache) == 7

    def test_unseeded_column_decodes(self, decodes):
        fs = new_fs()
        rows = [(i, 2 if i == 0 else 0.5) for i in range(6)]
        write_orc_file(fs, "/t/f.orc", [("k", "int"), ("d", "double")], rows,
                       4)
        assert OrcReader(fs, "/t/f.orc").read_all() == list(enumerate(
            [(i, 2.0 if i == 0 else 0.5) for i in range(6)]))
        assert [kind for kind, _ in decodes] == ["double"]   # stripe 0 only

    def test_list_rows_are_not_seeded(self, decodes):
        """A list row can change after the write; a tuple row cannot."""
        fs = new_fs()
        rows = [[i, "r%d" % i] for i in range(6)]
        data = write_orc_file(fs, "/t/f.orc", [("k", "int"), ("s", "string")],
                              rows, 4)
        for row in rows:
            row[:] = [-1, "changed"]
        assert OrcReader(fs, "/t/f.orc").read_all() == OrcReader(
            data).read_all() == [(i, (i, "r%d" % i)) for i in range(6)]

    def test_equal_bytes_pending_at_once(self, decodes):
        fs = new_fs()
        one = write_orc_file(fs, "/a/f.orc", SCHEMA, ROWS, 20)
        other = write_orc_file(fs, "/b/f.orc", SCHEMA, ROWS, 20)
        assert one == other and len(pending(fs)) == 1
        expected = typed(OrcReader(one).read_all())
        del decodes[:]
        assert typed(OrcReader(fs, "/a/f.orc").read_all()) == expected
        assert decodes == []
        assert typed(OrcReader(fs, "/b/f.orc").read_all()) == expected
        assert len(decodes) == 12          # no seed left: 3 stripes x 4
        assert pending(fs) == []

    def test_renamed_file_still_takes_its_seed(self, decodes):
        fs = new_fs()
        write_orc_file(fs, "/t.__tmp__/f.orc", SCHEMA, ROWS, 20)
        fs.rename("/t.__tmp__", "/t")
        OrcReader(fs, "/t/f.orc").read_all()
        assert decodes == []

    def test_zero_budget_keeps_no_seed(self):
        fs = new_fs(orc_cache_bytes=0)
        write_orc_file(fs, "/t/f.orc", SCHEMA, ROWS, 20)
        assert pending(fs) == []


class TestSeedsNeverBypassValidation:
    @staticmethod
    def change_in_place(fs, path, mutate):
        """Replace the stored bytes of ``path`` by ``mutate(bytes)``."""
        (block,) = fs._file_inode(path).blocks
        for node in fs.datanodes:
            if block.block_id in node.blocks:
                node.blocks[block.block_id] = mutate(
                    node.blocks[block.block_id])

    @pytest.mark.parametrize("at", [0, 2, -1])
    def test_byte_changed_after_the_write(self, at):
        fs = new_fs()
        rows = [(i, "unique-value-%d" % i) for i in range(40)]
        write_orc_file(fs, "/t/f.orc", [("pad", "int"), ("c", "string")],
                       rows, 25)
        (seed,) = pending(fs)

        def flip(stream):
            damaged = bytearray(stream)
            damaged[at] ^= 0x55
            return bytes(damaged)

        self.change_in_place(fs, "/t/f.orc",
                             lambda data: _replace_last_stream(data, flip))
        # Even under the changed bytes' own token (a CRC collision),
        # the seed is not taken: the bytes are compared, not a checksum.
        data = fs.read_file_silent("/t/f.orc")
        assert len(data) == len(seed.data) and data != seed.data
        fs.cluster.orc_cache.add_seed((len(data), zlib.crc32(data)), seed)
        with pytest.raises(CorruptOrcFileError) as err:
            OrcReader(fs, "/t/f.orc").read_all()
        assert "stripe 1" in str(err.value) and "'c'" in str(err.value)

    def test_seed_in_the_footer_entry_is_for_its_bytes_only(
            self, monkeypatch):
        """The cache key is a CRC; make every CRC collide, change a
        stream after the first open, and the cached footer's seed must
        still not stand in for the changed bytes."""
        colliding = types.SimpleNamespace(crc32=lambda data: 0,
                                          error=zlib.error)
        monkeypatch.setattr(orc_reader, "zlib", colliding)
        monkeypatch.setattr(writer, "zlib", colliding)
        fs = new_fs()
        rows = [(i, "unique-value-%d" % i) for i in range(40)]
        write_orc_file(fs, "/t/f.orc", [("pad", "int"), ("c", "string")],
                       rows, 25)
        OrcReader(fs, "/t/f.orc")               # takes the seed
        assert pending(fs) == []

        def flip(stream):
            return stream[:-1] + bytes([stream[-1] ^ 0x55])

        self.change_in_place(fs, "/t/f.orc",
                             lambda data: _replace_last_stream(data, flip))
        with pytest.raises(CorruptOrcFileError) as err:
            OrcReader(fs, "/t/f.orc").read_all()
        assert "stripe 1" in str(err.value) and "'c'" in str(err.value)

    def test_changed_footer_is_validated(self):
        fs = new_fs()
        data = write_orc_file(fs, "/t/f.orc", SCHEMA, ROWS, 20)
        cut = len(data) - len(MAGIC) - 8 - 2
        self.change_in_place(fs, "/t/f.orc", lambda old: (
            old[:cut] + b"?" + old[cut + 1:]))
        with pytest.raises(CorruptOrcFileError):
            OrcReader(fs, "/t/f.orc")

    def test_failed_write_leaves_no_seed(self):
        fs = new_fs()
        fs.cluster.faults.install(FaultPlan([
            Fault("hdfs.write_block", nth_hit=1, kind="crash")]))
        with pytest.raises(FaultInjectedError):
            write_orc_file(fs, "/t/f.orc", SCHEMA, ROWS, 20)
        assert pending(fs) == []


class TestLifetime:
    def test_first_open_moves_the_seed_into_the_footer_entry(
            self, live_seeds):
        fs = new_fs()
        data = write_orc_file(fs, "/t/f.orc", SCHEMA, ROWS, 20)
        cache = fs.cluster.orc_cache
        reader = OrcReader(fs, "/t/f.orc")
        assert pending(fs) == []
        assert len(cache) == 1
        assert cache.used_bytes == reader._footer_bytes + \
            orc_reader._seed_bytes(reader.schema, len(ROWS))
        del reader
        assert [seed.data for seed in live_seeds()] == [data]
        cache.invalidate_group("/t")
        assert live_seeds() == []

    def test_pending_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(cache_module, "PENDING_SEEDS", 3)
        fs = new_fs()
        for n in range(5):
            write_orc_file(fs, "/t/f%d.orc" % n, [("k", "int")], [(n,)])
        assert [seed.rows for seed in pending(fs)] == [((2,),), ((3,),),
                                                        ((4,),)]
        fs.cluster.orc_cache.clear()
        assert pending(fs) == []

    def test_no_seed_of_a_replaced_file_is_reachable(self, live_seeds):
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute("CREATE TABLE t (k int, v string) STORED AS "
                        "DUALTABLE TBLPROPERTIES ('orc.rows_per_file' = "
                        "'8', 'dualtable.mode' = 'edit')")
        session.load_rows("t", [(k, "v%d" % k) for k in range(30)])
        session.execute("SELECT * FROM t")
        session.execute("UPDATE t SET v = 'u' WHERE k < 10")
        session.execute("COMPACT TABLE t")
        session.execute("INSERT OVERWRITE TABLE t SELECT k, v FROM t "
                        "WHERE k > 3")
        session.execute("SELECT * FROM t")
        fs = session.env.fs
        live = {fs.read_file_silent(path) for path in all_files(fs, "/")}
        assert live_seeds() and all(seed.data in live
                                    for seed in live_seeds())
        session.cluster.orc_cache.clear()
        assert live_seeds() == []


def all_files(fs, directory):
    for name in fs.listdir(directory):
        path = directory.rstrip("/") + "/" + name
        if fs.is_dir(path):
            yield from all_files(fs, path)
        else:
            yield path


def run_workload():
    """LOAD + UPDATE + COMPACT + SELECT on a fresh cluster."""
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute("CREATE TABLE t (k int, v string, w double) STORED AS "
                    "DUALTABLE TBLPROPERTIES ('orc.rows_per_file' = '16', "
                    "'dualtable.mode' = 'edit')")
    session.load_rows("t", [(k, "v%d" % (k % 7), k / 4.0)
                            for k in range(60)])
    rows = [session.execute("SELECT * FROM t ORDER BY k").rows]
    session.execute("UPDATE t SET v = 'x' WHERE k % 5 = 0")
    session.execute("COMPACT TABLE t")
    rows.append(session.execute("SELECT k, v FROM t ORDER BY k").rows)
    cache = session.cluster.orc_cache
    counters = {name: value for name, value
                in session.cluster.metrics.counters.items()
                if name.startswith("cache.orc.")}
    return rows, counters, cache.used_bytes


def test_memo_hit_and_build_run_alike(fresh_memo, monkeypatch):
    builds = []
    finish = writer.OrcWriter.finish
    monkeypatch.setattr(writer.OrcWriter, "finish",
                        lambda self: builds.append(1) or finish(self))
    runs = []
    for _ in range(3):          # marks, builds and stores, hits the memo
        del builds[:]
        runs.append(run_workload())
    assert builds == []                           # the third run hit
    assert runs[0] == runs[1] == runs[2]
