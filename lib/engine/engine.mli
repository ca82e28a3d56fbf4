(** Parallel verification engine: shard a suite of property queries
    across OS processes, or race solver strategies on one hard query.

    A property suite is embarrassingly parallel — every query is an
    independent UNSAT call against the same network semantics (the
    paper runs its Figure 7/8 suites "in parallel on a machine with 96
    cores").  {!run} forks [jobs] workers from the parent after the
    encoding is built (cheap copy-on-write sharing of the encoding and
    the query closures), gives each worker its own incremental
    {!Minesweeper.Verify.Session} over its shard, and streams framed,
    marshalled reports back over a pipe.

    Soundness of per-worker sessions: a session's learnt clauses are
    derived from the network assertions plus retired query guards of
    {e that} solver only, and no solver state ever crosses a process
    boundary — each verdict is therefore exactly the verdict of a
    sequential session running that shard, which PR-2's differential
    suite pins to the fresh-solver semantics.

    Robustness: per-query wall-clock timeouts are enforced twice —
    cooperatively inside the worker (the solver's stop hook, verdict
    [Timeout]) and by a parent-side watchdog that SIGKILLs a worker
    stuck past twice its budget.  A worker that crashes or EOFs
    mid-shard has its in-flight query requeued once onto a fresh
    worker; a second crash marks that query [Error] and the rest of
    the shard is still completed.  Results are reassembled in query
    order, so the report list is deterministic regardless of
    completion order. *)

module Verify = Minesweeper.Verify

val available_cores : unit -> int
(** Cores the runtime believes are available
    ([Domain.recommended_domain_count]). *)

val run :
  ?jobs:int ->
  ?timeout:float ->
  ?support:bool ->
  Minesweeper.Encode.t ->
  Verify.Query.t list ->
  Verify.Report.t list
(** [run ~jobs ~timeout enc queries] answers every query and returns
    the reports in query order.

    [jobs] (default {!available_cores}) is the worker-process count;
    with [jobs <= 1] or a single query the suite runs in-process on one
    sequential session (no fork), which is also the mode the
    differential tests compare against.  [timeout] is a default
    per-query budget in seconds applied to queries that carry none.
    Queries are dealt round-robin to shards, so adjacent (often
    similar) queries spread across workers.

    [support] (default [false]) makes every worker session
    support-tracking (see {!Verify.Session.of_encoding}): [Verified]
    reports come back with their [support] device set — it is plain
    data, so it survives the marshalled worker boundary.  The serve
    daemon runs its query fan-out this way. *)

val portfolio :
  ?timeout:float ->
  ?strategies:(string * Smt.Solver.strategy) list ->
  ?share:bool ->
  Minesweeper.Encode.t ->
  Verify.Query.t ->
  Verify.Report.t
(** Race one query under [strategies] (default
    {!Minesweeper.Options.portfolio}), one process per strategy, and
    return the first decisive report — [Verified] or [Violated] — with
    its [strategy] field naming the winner; the losers are killed.
    Every strategy is sound and complete, so any winner's verdict is
    the query's verdict.  If no racer is decisive (all time out, crash
    or error), the first-completed indecisive report is returned.

    [share] (default [true]) turns the race into a cooperating
    portfolio: each racer exports its low-LBD (glue) learnt clauses at
    restarts, the parent rebroadcasts them, and the other racers attach
    them via the solver's import path.  Sharing is sound because every
    racer solves the {e same} CNF with identical variable numbering
    (all are forked from one parent after the encoding is built), so a
    clause learnt by one is a logical consequence of the shared input
    formula for all; under [--certify] each import is additionally
    RUP-checked by the importer and logged, keeping proof traces
    independently checkable (see {!Smt.Solver.import_clause}).  The
    exchange is best-effort — frames ride the atomic-pipe-write
    guarantee and are dropped rather than ever blocking the race.
    The winner's [clauses_imported]/[clauses_exported] stats record
    the traffic. *)
