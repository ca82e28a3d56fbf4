(** Parallel verification engine: shard a suite of property queries
    across OS processes.  Each query is answered by one solver; the
    parallelism is across queries, never within one.

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
