"""DualTableServer: concurrent sessions over one simulated warehouse.

The engine underneath (:class:`~repro.hive.session.HiveSession`) is a
single-threaded simulator, so the server models concurrency the same way
the cluster models I/O: **deterministic discrete events**.  Statements
arrive on an open-loop schedule, wait in the bounded admission queue,
occupy one of ``concurrency`` execution slots, and complete at
``dispatch_time + sim_seconds`` on the server's virtual clock.  Because
every state change happens at an event — and events are totally ordered
by ``(time, priority, seq)`` — the same seed produces the same commits
at any concurrency level.

Isolation (see :mod:`repro.server.txn`):

* *optimistic* statements (DualTable UPDATE/DELETE taking the EDIT plan)
  physically execute at dispatch against published == committed state,
  buffer their EditBatch, and publish at the completion event after a
  first-committer-wins conflict check; conflicts retry under a seeded,
  jittered :class:`~repro.common.retry.RetryPolicy` and escalate to
  exclusive execution after ``max_attempts`` (no livelock: an exclusive
  statement always commits);
* *exclusive* statements (INSERT, DDL, COMPACT, MERGE, OVERWRITE-plan
  DML, non-DualTable DML) mutate shared files in place, so they wait
  (parked, not queued) until no optimistic writer is in flight on their
  tables, then execute and commit in one event.

Overload never cascades: past ``max_queue`` waiting statements the
admission controller sheds with
:class:`~repro.common.errors.ServerOverloaded`, and statements whose
queue delay exceeds ``timeout_s`` are dropped with
:class:`~repro.common.errors.StatementTimeout` instead of occupying a
slot.
"""

import heapq
import itertools

from dataclasses import dataclass, field

from repro.common.errors import (ReproError, ServerError, ServerOverloaded,
                                 SessionKilledError, StatementTimeout,
                                 TxnConflictError)
from repro.common.retry import RetryPolicy
from repro.hive import ast_nodes as ast
from repro.hive.parser import parse
from repro.server.admission import AdmissionController
from repro.server.txn import ABORTED, COMMITTED, CommitLog, StatementTxn

#: event priorities: at equal times, completions commit before retries
#: and kills take effect before new arrivals are admitted.
_PRIO_COMPLETE = 0
_PRIO_RETRY = 1
_PRIO_KILL = 2
_PRIO_ARRIVAL = 3

#: statement classes that never write (no txn conflict possible).
_READ_ONLY = (ast.SelectStmt, ast.UnionAllStmt, ast.DescribeStmt,
              ast.ShowMetricsStmt, ast.ShowTablesStmt,
              ast.ShowPartitionsStmt, ast.ShowCompactionsStmt,
              ast.ShowSessionsStmt, ast.ShowServerStatsStmt,
              ast.ShowAdvisorStmt, ast.ShowShardsStmt, ast.SetOptionStmt)


def statement_tables(stmt):
    """Tables a statement may *write* (lower-cased), best effort."""
    tables = set()
    name = getattr(stmt, "table", None)
    if isinstance(name, str):
        tables.add(name.lower())
    target = getattr(stmt, "target", None)
    if isinstance(target, str):
        tables.add(target.lower())
    inner = getattr(stmt, "statement", None)
    if inner is not None:
        tables |= statement_tables(inner)
    return tables


def _detached(error):
    """``error`` (and the errors it chains to) without a traceback.

    An outcome outlives the event loop.  A traceback in it would hold
    every frame up the stack, the caller that keeps the outcomes
    included, in a reference cycle.
    """
    chained = error
    while chained is not None:
        chained.__traceback__ = None
        chained = chained.__cause__ or chained.__context__
    return error


@dataclass
class Arrival:
    """One open-loop submission: at ``time``, ``session`` sends ``sql``.

    ``payload`` rides along into the statement's outcome record — the
    ledger driver stores the expected delta of each UPDATE there so the
    zero-lost-writes oracle can be checked from outcomes alone.
    """

    time: float
    session: "ServerSession"
    sql: str
    payload: dict = field(default_factory=dict)


class SessionRecord:
    """What the server keeps of one connection: identity and lifecycle
    state (SHOW SESSIONS' rows), never the client's handle."""

    __slots__ = ("id", "tenant", "state", "statements", "committed",
                 "connected_at")

    def __init__(self, session_id, tenant, connected_at=0.0):
        self.id = session_id
        self.tenant = tenant
        self.state = "open"          # open | killed | closed
        self.statements = 0
        self.committed = 0
        self.connected_at = connected_at


def _from_record(name):
    return property(lambda self: getattr(self.record, name),
                    doc="The connection's ``%s`` (its server record)." % name)


class ServerSession:
    """One client connection: a handle that keeps its server alive.

    The server keeps the connection's :class:`SessionRecord`, not this
    handle, so ownership points one way (handle -> server -> record).
    """

    __slots__ = ("server", "record")

    id = _from_record("id")
    tenant = _from_record("tenant")
    state = _from_record("state")
    statements = _from_record("statements")
    committed = _from_record("committed")
    connected_at = _from_record("connected_at")

    def __init__(self, server, record):
        self.server = server
        self.record = record

    def execute(self, sql):
        """Synchronous convenience: submit + wait for the outcome."""
        return self.server.execute(self, sql)

    def close(self):
        if self.record.state == "open":
            self.record.state = "closed"

    def __repr__(self):
        return ("ServerSession(%s, tenant=%r, state=%s, statements=%d)"
                % (self.id, self.tenant, self.state, self.statements))


class _Stmt:
    """Internal per-statement record threading through the event loop."""

    __slots__ = ("seq", "session", "sql", "payload", "arrival_time",
                 "dispatch_time", "attempts", "force_exclusive", "stmt",
                 "tables", "txn", "commit_latency")

    def __init__(self, seq, session, sql, payload, arrival_time):
        self.seq = seq
        self.session = session
        self.sql = sql
        self.payload = payload or {}
        self.arrival_time = arrival_time
        self.dispatch_time = None
        self.attempts = 0            # conflict/publish retries so far
        self.force_exclusive = False
        self.stmt = None             # parsed AST (cached across retries)
        self.tables = frozenset()
        self.txn = None
        self.commit_latency = 0.0    # extra seconds charged at commit


class DualTableServer:
    """Bounded, fair, snapshot-isolated front end for one engine."""

    def __init__(self, engine=None, concurrency=4, max_queue=256,
                 timeout_s=None, seed=0, conflict_retries=4):
        if engine is None:
            from repro.hive import HiveSession
            engine = HiveSession()
        self.engine = engine
        self.cluster = engine.cluster
        self.metrics = self.cluster.metrics
        # Gauge lifecycle is per-server: queue depth / inflight describe
        # THIS instance, so a fresh server on a reused cluster must not
        # show the previous instance's residue in snapshots.
        self.metrics.reset_gauges("server.")
        self.metrics.gauge("server.queue_depth", 0)
        self.metrics.gauge("server.inflight", 0)
        self.concurrency = max(1, int(concurrency))
        self.timeout_s = timeout_s
        self.seed = seed
        self.commit_log = CommitLog()
        self.admission = AdmissionController(max_queue=max_queue,
                                             metrics=self.metrics)
        #: jittered so sessions that collide don't re-collide in
        #: lockstep; fully deterministic per (seed, statement, attempt).
        self.retry_policy = RetryPolicy(max_attempts=1 + int(conflict_retries),
                                        backoff_s=0.05, factor=2.0,
                                        jitter=0.5, seed=seed)
        self.sessions = {}           # session id -> SessionRecord
        self._finished = []          # outcomes of the run() in progress
        self.now = 0.0
        self._session_seq = itertools.count(1)
        self._stmt_seq = itertools.count(1)
        self._event_seq = itertools.count(1)
        self._events = []
        self._inflight = {}          # txn.id -> StatementTxn
        self._parked = []            # exclusive stmts awaiting table drain
        self._active = 0             # occupied execution slots
        # Let the engine reach back (weakly: this server owns the
        # engine): the autocompaction txn guard and SHOW SESSIONS /
        # SERVER STATS.
        engine.server = self

    # ------------------------------------------------------------------
    # Connections.
    # ------------------------------------------------------------------
    def connect(self, tenant="default"):
        record = SessionRecord("s-%04d" % next(self._session_seq), tenant,
                               connected_at=self.now)
        self.sessions[record.id] = record
        self.metrics.incr("server.connects")
        return ServerSession(self, record)

    def kill_session(self, session_id):
        """Kill a session: in-flight statements abort at completion
        (their buffered writes are discarded — never half-published),
        queued ones are dropped at dispatch."""
        session = self.sessions.get(session_id)
        if session is None or session.state != "open":
            return False
        session.state = "killed"
        for txn in self._inflight.values():
            if txn.session is session:
                txn.doomed = True
        self.metrics.incr("server.sessions_killed")
        return True

    # ------------------------------------------------------------------
    # Introspection (SHOW SESSIONS / SHOW SERVER STATS).
    # ------------------------------------------------------------------
    def session_rows(self):
        inflight_by_session = {}
        for txn in self._inflight.values():
            key = getattr(txn.session, "id", None)
            inflight_by_session[key] = inflight_by_session.get(key, 0) + 1
        return [(s.id, s.tenant, s.state, s.statements, s.committed,
                 inflight_by_session.get(s.id, 0))
                for s in sorted(self.sessions.values(), key=lambda s: s.id)]

    def stats_rows(self):
        counters = self.metrics.counters
        names = ("server.admitted", "server.shed", "server.commits",
                 "server.conflicts", "server.conflict_retries",
                 "server.escalations", "server.publish_failures",
                 "server.failed", "server.killed", "server.timeouts",
                 "server.connects", "server.sessions_killed")
        rows = [(name, counters.get(name, 0)) for name in names]
        rows.append(("server.queue_depth", self.admission.depth))
        rows.append(("server.inflight", len(self._inflight)))
        rows.append(("server.commit_seq", self.commit_log.seq))
        return rows

    # ------------------------------------------------------------------
    # Shared-state queries used by txns and the maintenance daemon.
    # ------------------------------------------------------------------
    def table_busy(self, table, exclude=None):
        """Is an undoomed optimistic writer in flight on ``table``?

        Doubles as the engine's ``txn_guard``: the autocompaction daemon
        skips busy tables, because compacting remaps record IDs out from
        under buffered (not yet published) EditBatches.
        """
        table = table.lower()
        for txn in self._inflight.values():
            if txn is exclude or txn.doomed or txn.state != "executing":
                continue
            if table in txn.tables_written:
                return True
        return False

    # ------------------------------------------------------------------
    # Statement classification.
    # ------------------------------------------------------------------
    def _classify(self, stmt):
        """``(read_only, exclusive_upfront)`` for a parsed statement."""
        if isinstance(stmt, _READ_ONLY):
            return True, False
        if isinstance(stmt, ast.ExplainStmt):
            if not stmt.analyze:
                return True, False
            return self._classify(stmt.statement)
        if isinstance(stmt, ast.AnalyzeWorkloadStmt):
            # Plain ANALYZE only reads metrics; APPLY executes ALTER /
            # COMPACT remediations, so it runs exclusively.
            return (not stmt.apply), stmt.apply
        if isinstance(stmt, (ast.UpdateStmt, ast.DeleteStmt)):
            try:
                info = self.engine.metastore.table(stmt.table)
            except ReproError:
                return False, False   # let execution raise the real error
            if info.storage in ("dualtable", "dualtable-sharded"):
                # Optimistic: the cost model usually picks the EDIT plan,
                # which defers cleanly; an OVERWRITE choice escalates via
                # StatementTxn.require_exclusive mid-flight.
                return False, False
            return False, True
        # INSERT, CREATE/DROP, COMPACT, MERGE, ALTER ...: in-place
        # mutation of shared files/metadata -> exclusive.
        return False, True

    # ------------------------------------------------------------------
    # Event loop.
    # ------------------------------------------------------------------
    def _push(self, time, priority, kind, payload):
        heapq.heappush(self._events,
                       (time, priority, next(self._event_seq), kind, payload))

    def run(self, arrivals, kills=(), concurrency=None):
        """Run an open-loop schedule to completion; returns its outcomes.

        ``arrivals`` is an iterable of :class:`Arrival`; ``kills`` is an
        iterable of ``(time, session_id)``.  Re-entrant across calls:
        virtual time and server state carry over, so a shell can
        interleave synchronous statements with batch runs.  The server
        keeps no outcome once it returns them: a statement's result
        lives as long as its caller holds it.
        """
        if concurrency is not None:
            self.concurrency = max(1, int(concurrency))
        self._finished = []
        for arrival in arrivals:
            self._push(max(arrival.time, self.now), _PRIO_ARRIVAL,
                       "arrival", arrival)
        for time, session_id in kills:
            self._push(max(time, self.now), _PRIO_KILL, "kill", session_id)
        while self._events:
            time, _, _, kind, payload = heapq.heappop(self._events)
            self.now = max(self.now, time)
            if kind == "arrival":
                self._on_arrival(payload)
            elif kind == "kill":
                self.kill_session(payload)
            elif kind == "retry":
                self._on_retry(payload)
            elif kind == "complete":
                self._on_complete(payload)
            self._pump()
        outcomes, self._finished = self._finished, []
        return outcomes

    # -- event handlers -------------------------------------------------
    def _on_arrival(self, arrival):
        session = arrival.session.record
        rec = _Stmt(next(self._stmt_seq), session, arrival.sql,
                    arrival.payload, self.now)
        session.statements += 1
        if session.state != "open":
            self._finish(rec, "killed",
                         error=SessionKilledError(
                             "session %s is %s" % (session.id, session.state)))
            return
        if not self.admission.submit(session.tenant, rec):
            self._finish(rec, "shed",
                         error=ServerOverloaded(
                             "admission queue full (%d waiting)"
                             % self.admission.depth))

    def _on_retry(self, rec):
        """A backed-off statement rejoins the head of its tenant queue."""
        if rec.session.state != "open":
            self._finish(rec, "killed",
                         error=SessionKilledError(
                             "session %s killed" % rec.session.id))
            return
        self.admission.requeue_front(rec.session.tenant, rec)

    def _on_complete(self, rec):
        self._active -= 1
        txn = rec.txn
        self._inflight.pop(txn.id, None)
        self.metrics.gauge("server.inflight", len(self._inflight))
        if txn.state == COMMITTED:
            # Exclusive statements committed at dispatch; the completion
            # event only releases the slot and records latency.
            self._finish(rec, "committed")
            return
        if txn.doomed or rec.session.state != "open":
            txn.discard()
            self.metrics.incr("server.killed")
            self._finish(rec, "killed",
                         error=SessionKilledError(
                             "session %s killed mid-statement"
                             % rec.session.id))
            return
        conflict = self.commit_log.first_conflict(txn)
        if conflict is not None:
            txn.discard()
            self.metrics.incr("server.conflicts")
            self._retry_or_escalate(rec, "conflict with commit seq %d (%s)"
                                    % (conflict.seq, conflict.session_id))
            return
        self._commit_optimistic(rec, txn)

    # -- dispatch -------------------------------------------------------
    def _pump(self):
        """Fill free slots: parked (drained) statements first, then the
        fair queue."""
        while self._active < self.concurrency:
            rec = self._take_parked()
            from_parked = rec is not None
            if rec is None:
                rec = self.admission.pop()
            if rec is None:
                return
            self._try_dispatch(rec, from_parked=from_parked)

    def _take_parked(self):
        for i, rec in enumerate(self._parked):
            if not any(self.table_busy(t) for t in sorted(rec.tables)):
                del self._parked[i]
                return rec
        return None

    def _try_dispatch(self, rec, from_parked=False):
        session = rec.session
        if session.state != "open":
            self._finish(rec, "killed",
                         error=SessionKilledError(
                             "session %s killed while queued" % session.id))
            return
        if self.timeout_s is not None \
                and self.now - rec.arrival_time > self.timeout_s:
            self.metrics.incr("server.timeouts")
            self.metrics.incr("server.timeouts.%s" % session.tenant)
            self._finish(rec, "timeout",
                         error=StatementTimeout(
                             "queued %.3fs > timeout %.3fs"
                             % (self.now - rec.arrival_time, self.timeout_s)))
            return
        if rec.stmt is None:
            try:
                rec.stmt = parse(rec.sql)
            except ReproError as exc:
                self.metrics.incr("server.failed")
                self._finish(rec, "failed", error=exc)
                return
            rec.tables = frozenset(statement_tables(rec.stmt))
        read_only, exclusive = self._classify(rec.stmt)
        exclusive = exclusive or rec.force_exclusive
        if exclusive and any(self.table_busy(t) for t in sorted(rec.tables)):
            # Exclusive work waits for optimistic writers to drain; it
            # is parked (off-queue) so it cannot block other tenants.
            self._parked.append(rec)
            return
        self._execute(rec, read_only=read_only, exclusive=exclusive)

    def _execute(self, rec, read_only, exclusive):
        """Physically run the statement at the current virtual time.

        The engine is serial, so execution happens *now* against
        published (== committed) state; what the event loop spreads over
        time is the statement's residency: slot occupancy until
        ``now + sim_seconds`` and, for optimistic writers, the commit
        decision at that completion event.
        """
        rec.dispatch_time = self.now
        txn = StatementTxn(self, rec.session, rec.sql, self.commit_log.seq)
        txn.exclusive = exclusive
        if exclusive and not read_only:
            for table in rec.tables:
                txn.tables.add(table)
                txn.tables_written.add(table)
        rec.txn = txn
        self._inflight[txn.id] = txn
        self.metrics.gauge("server.inflight", len(self._inflight))
        engine = self.engine
        with self.cluster.tracer.span(
                "server", "statement", session=rec.session.id,
                snapshot=txn.snapshot_seq, exclusive=exclusive,
                attempt=rec.attempts + 1):
            engine.current_txn = txn
            try:
                result = engine.execute_statement(rec.stmt)
            except TxnConflictError as exc:
                engine.current_txn = None
                self._drop_txn(txn)
                if exc.escalation:
                    self.metrics.incr("server.escalations")
                    rec.force_exclusive = True
                    self._push(self.now + self.retry_policy.backoff(
                        max(1, rec.attempts + 1), key="stmt-%d" % rec.seq),
                        _PRIO_RETRY, "retry", rec)
                else:
                    self.metrics.incr("server.conflicts")
                    self._retry_or_escalate(rec, str(exc))
                return
            except ReproError as exc:
                engine.current_txn = None
                self._resolve_execution_failure(rec, txn, exc)
                return
            finally:
                engine.current_txn = None
        txn.result = result
        # txn.exclusive (not the local flag) also covers a mid-flight
        # require_exclusive escalation that found the table idle.
        if txn.exclusive and txn.has_writes():
            # Exclusive commit point is begin-end of execution: state is
            # already physically applied, so the commit record must be
            # visible to every later-dispatched snapshot.
            self._append_commit(txn)
        self._active += 1
        self._push(self.now + max(0.0, result.sim_seconds),
                   _PRIO_COMPLETE, "complete", rec)

    # -- commit side ----------------------------------------------------
    def _append_commit(self, txn):
        record = self.commit_log.append(
            getattr(txn.session, "id", None),
            txn.tables_written or txn.tables,
            txn.write_keys, txn.exclusive, sql=txn.sql)
        # Later snapshots start at the new watermark; only the in-flight
        # ones can still conflict with older records.
        self.commit_log.prune(min(
            (t.snapshot_seq for t in self._inflight.values()),
            default=self.commit_log.seq))
        txn.state = COMMITTED
        self.metrics.incr("server.commits")
        return record

    def _commit_optimistic(self, rec, txn):
        with self.cluster.tracer.span("server", "commit",
                                      session=rec.session.id,
                                      snapshot=txn.snapshot_seq,
                                      writes=len(txn.write_keys)):
            if txn.has_writes():
                try:
                    rec.commit_latency += txn.publish()
                except ReproError as exc:
                    if self._recover_tables(txn.tables):
                        # The redo log was durable: the statement rolled
                        # forward, so it IS committed.
                        self._append_commit(txn)
                        self._finish(rec, "committed")
                    else:
                        txn.discard()
                        self.metrics.incr("server.publish_failures")
                        self._retry_or_escalate(
                            rec, "publish failed and rolled back: %s" % exc)
                    return
                self._append_commit(txn)
            else:
                txn.state = COMMITTED
        self._finish(rec, "committed")

    def _retry_or_escalate(self, rec, reason):
        rec.attempts += 1
        policy = self.retry_policy
        if rec.attempts >= policy.max_attempts and not rec.force_exclusive:
            # Progress guarantee: after max optimistic attempts the
            # statement reruns exclusively, which cannot conflict.
            rec.force_exclusive = True
            self.metrics.incr("server.escalations")
        self.metrics.incr("server.conflict_retries")
        backoff = policy.backoff(min(rec.attempts, policy.max_attempts),
                                 key="stmt-%d" % rec.seq)
        self._push(self.now + backoff, _PRIO_RETRY, "retry", rec)
        self.cluster.tracer.annotate(retry_reason=reason)

    def _drop_txn(self, txn):
        txn.discard()
        self._inflight.pop(txn.id, None)
        self.metrics.gauge("server.inflight", len(self._inflight))

    def _resolve_execution_failure(self, rec, txn, exc):
        """A statement raised mid-execution (injected fault, bad SQL...).

        Under deferral nothing of an optimistic statement is durable, so
        it simply rolled back.  Exclusive statements may have died
        mid-commit: run the handlers' recovery protocol (injection
        paused) and count a roll-forward as a commit — the redo log /
        manifest was durable, so the write survived.
        """
        self._drop_txn(txn)
        rolled_forward = self._recover_tables(
            set(txn.tables) | set(rec.tables))
        if rolled_forward:
            txn.state = COMMITTED
            self._append_commit(txn)
            self._finish(rec, "committed")
            return
        self.metrics.incr("server.failed")
        self._finish(rec, "failed", error=exc)

    def _recover_tables(self, tables):
        """Recover every table among ``tables``; True if any DML
        redo log rolled forward (i.e. the statement actually committed)."""
        rolled_forward = False
        faults = self.cluster.faults
        with faults.paused():
            for name in sorted(tables):
                try:
                    handler = self.engine.metastore.table(name).handler
                except ReproError:
                    continue
                outcome = handler.recover()
                if any(o == "rolled_forward"
                       for _, o in outcome.get("dml", ())):
                    rolled_forward = True
                if outcome.get("compact") == "rolled_forward":
                    rolled_forward = True
        return rolled_forward

    # -- bookkeeping ----------------------------------------------------
    def _finish(self, rec, status, error=None):
        latency = (self.now - rec.arrival_time) + rec.commit_latency
        if status == "committed":
            rec.session.committed += 1
            self.metrics.observe("server.latency_s", latency)
        outcome = {
            "seq": rec.seq,
            "session": rec.session.id,
            "tenant": rec.session.tenant,
            "sql": rec.sql,
            "payload": rec.payload,
            "status": status,
            "attempts": rec.attempts + 1,
            "latency_s": latency,
            "commit_seq": self.commit_log.seq if status == "committed"
                          else None,
            "error": _detached(error),
            "result": rec.txn.result if rec.txn is not None else None,
            # Repeatable analytic reads: the commit-log sequence the
            # statement's snapshot was taken at — reads dispatched at the
            # same seq saw the same committed state.
            "snapshot_seq": (rec.txn.snapshot_seq
                             if rec.txn is not None else None),
        }
        self._finished.append(outcome)
        return outcome

    # ------------------------------------------------------------------
    # Synchronous convenience API (shell, tests).
    # ------------------------------------------------------------------
    def execute(self, session, sql):
        """Submit one statement at the current virtual time and run the
        event loop until it resolves; raises the typed error on
        anything but a commit."""
        if session.state != "open":
            raise SessionKilledError("session %s is %s"
                                     % (session.id, session.state))
        outcome = next(o for o in self.run(
            [Arrival(time=self.now, session=session, sql=sql)])
            if o["sql"] == sql and o["session"] == session.id)
        if outcome["status"] == "committed":
            return outcome["result"]
        error = outcome["error"]
        if not isinstance(error, Exception):
            raise ServerError("statement %s: %s"
                              % (outcome["status"], outcome["sql"]))
        try:
            raise error
        finally:
            # The raised error's traceback holds this frame; drop the
            # locals that hold the error so no cycle is left behind.
            del error, outcome
