(* Fork-based parallel verification.

   The parent builds the encoding once, then forks workers that inherit
   it (and the query closures) by copy-on-write — nothing is serialized
   on the way in; only reports cross a process boundary, as framed
   marshalled messages on a per-worker pipe.  Each worker answers its
   shard on a private incremental session, so learnt clauses amortize
   within a shard but never cross processes.

   Scheduler invariants:
   - results are indexed by query position and reassembled at the end,
     so the report order is the query order, whatever the completion
     order;
   - a worker announces [Started i] before attacking query [i]; on a
     crash (EOF without a clean shard) the parent therefore knows
     exactly which query to blame, requeues it once on a fresh worker,
     and marks it [Error] on a second crash — queries the dead worker
     had not started are requeued without penalty;
   - per-query timeouts are enforced cooperatively in the worker (the
     solver's stop hook; verdict [Timeout]) and by a parent-side
     watchdog that SIGKILLs a worker stuck past twice the budget. *)

module Verify = Minesweeper.Verify
module Query = Minesweeper.Verify.Query
module Report = Minesweeper.Verify.Report

type wire =
  | Started of int
  | Finished of int * Report.t
  | Learned of int array list
      (* low-LBD clauses a portfolio racer learnt, in the shared CNF's
         literal numbering; the parent rebroadcasts them to siblings *)

let available_cores () = Domain.recommended_domain_count ()

(* -- pipe framing: 4-byte big-endian length + marshalled payload ----------- *)

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

let frame_of (m : wire) =
  let payload = Marshal.to_bytes m [] in
  let n = Bytes.length payload in
  let frame = Bytes.create (4 + n) in
  Bytes.set_uint8 frame 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 frame 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 frame 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 frame 3 (n land 0xff);
  Bytes.blit payload 0 frame 4 n;
  frame

let write_msg fd (m : wire) =
  let frame = frame_of m in
  write_all fd frame 0 (Bytes.length frame)

(* POSIX guarantees pipe writes of at most PIPE_BUF bytes are atomic:
   on a non-blocking fd they land whole or fail with EAGAIN — never a
   torn frame.  Clause rebroadcast leans on this, so frames must stay
   under the floor. *)
let pipe_buf = 4096

(* Best-effort clause rebroadcast on a non-blocking pipe: chunk the
   batch so each frame fits the atomicity floor (halving on the rare
   marshalled-size overflow), and drop the chunk if the receiver's pipe
   is full (EAGAIN) or closed (EPIPE) — shared clauses are redundant
   hints, losing some costs nothing but speed. *)
let rec send_clauses fd = function
  | [] -> ()
  | clauses ->
    let batch, rest =
      let rec take n acc = function
        | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      take 8 [] clauses
    in
    let frame = frame_of (Learned batch) in
    if Bytes.length frame > pipe_buf then begin
      match batch with
      | [ _ ] -> send_clauses fd rest (* oversized singleton: drop *)
      | _ ->
        let k = List.length batch / 2 in
        let rec split n acc = function
          | x :: tl when n > 0 -> split (n - 1) (x :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        let a, b = split k [] batch in
        send_clauses fd a;
        send_clauses fd (b @ rest)
    end
    else begin
      (try ignore (Unix.write fd frame 0 (Bytes.length frame)) with
       | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()
       | Unix.Unix_error _ -> ());
      send_clauses fd rest
    end

(* Consume every complete frame buffered for a worker.  [Marshal] needs
   a contiguous view, so the buffer is rebuilt from the leftover — the
   messages are small and rare enough that this never matters. *)
let drain_frames buf handle =
  let progress = ref true in
  while !progress do
    progress := false;
    let len = Buffer.length buf in
    if len >= 4 then begin
      let b = Buffer.to_bytes buf in
      let n =
        (Bytes.get_uint8 b 0 lsl 24)
        lor (Bytes.get_uint8 b 1 lsl 16)
        lor (Bytes.get_uint8 b 2 lsl 8)
        lor Bytes.get_uint8 b 3
      in
      if len >= 4 + n then begin
        let (m : wire) = Marshal.from_bytes b 4 in
        Buffer.clear buf;
        Buffer.add_subbytes buf b (4 + n) (len - 4 - n);
        handle m;
        progress := true
      end
    end
  done

(* -- worker side ----------------------------------------------------------- *)

(* Wire a portfolio racer's session into the clause exchange: export
   low-LBD learnt clauses up the report pipe, and poll the import pipe
   for siblings' clauses.  Both happen inside the solver's restart hook
   — decision level 0, propagation complete — where imported clauses
   attach with valid watches (and, under --certify, pass the RUP check
   that keeps the proof trace sound; see Smt.Solver.import_clause). *)
let wire_sharing session ~import_fd ~report_fd =
  let solver = Verify.Session.solver session in
  Smt.Solver.enable_sharing solver;
  let ibuf = Buffer.create 1024 in
  let tmp = Bytes.create 65536 in
  Smt.Solver.set_on_restart solver
    (Some
       (fun () ->
         (match Smt.Solver.drain_exported solver with
          | [] -> ()
          | clauses -> ( try write_msg report_fd (Learned clauses) with _ -> ()));
         let rec pump () =
           match Unix.select [ import_fd ] [] [] 0.0 with
           | [ _ ], _, _ ->
             (match Unix.read import_fd tmp 0 (Bytes.length tmp) with
              | 0 -> () (* parent gone; stop pulling *)
              | k ->
                Buffer.add_subbytes ibuf tmp 0 k;
                drain_frames ibuf (function
                  | Learned clauses ->
                    List.iter (fun c -> ignore (Smt.Solver.import_clause solver c)) clauses
                  | Started _ | Finished _ -> ());
                pump ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
              | exception _ -> ())
           | _ -> ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         in
         pump ()))

let worker_main ~worker_id ?strategy ?strategy_name ?support ?import enc shard wfd =
  (try
     let session = Verify.Session.of_encoding ?strategy ?support enc in
     (match import with
      | Some import_fd -> wire_sharing session ~import_fd ~report_fd:wfd
      | None -> ());
     List.iter
       (fun (idx, q) ->
         write_msg wfd (Started idx);
         let r =
           try Verify.Session.run_one session q with
           | e ->
             {
               Report.label = q.Query.label;
               verdict = Report.Error (Printexc.to_string e);
               certificate = Report.Uncertified;
               wall_ms = 0.0;
               stats = Report.empty_stats;
               worker = worker_id;
               strategy = None;
               support = None;
               replayed = false;
               method_ = None;
             }
         in
         write_msg wfd
           (Finished (idx, { r with Report.worker = worker_id; strategy = strategy_name })))
       shard
   with _ -> ());
  (try Unix.close wfd with _ -> ());
  Unix._exit 0

(* -- parent side ----------------------------------------------------------- *)

type worker = {
  pid : int;
  wid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable current : int option;  (* query index in flight *)
  mutable started_at : float;
  mutable remaining : (int * Query.t) list;  (* shard minus finished queries *)
}

let sequential ?support enc queries =
  Verify.Session.run (Verify.Session.of_encoding ?support enc) queries

let run ?jobs ?timeout ?support enc queries =
  let queries = List.map (Query.with_default_timeout timeout) queries in
  let jobs = match jobs with Some j -> max 1 j | None -> available_cores () in
  let n = List.length queries in
  if jobs <= 1 || n <= 1 then sequential ?support enc queries
  else begin
    let qarr = Array.of_list queries in
    let results = Array.make n None in
    let attempts = Array.make n 0 in
    (* Deal queries round-robin so adjacent (often similar) queries
       spread across workers. *)
    let shards = Array.make jobs [] in
    Array.iteri (fun i q -> shards.(i mod jobs) <- (i, q) :: shards.(i mod jobs)) qarr;
    let shards = Array.map List.rev shards in
    let next_wid = ref 0 in
    let workers = ref [] in
    let spawn shard =
      if shard <> [] then begin
        incr next_wid;
        let wid = !next_wid in
        let r, w = Unix.pipe () in
        let sibling_fds = List.map (fun wk -> wk.fd) !workers in
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
          Unix.close r;
          List.iter (fun fd -> try Unix.close fd with _ -> ()) sibling_fds;
          worker_main ~worker_id:wid ?support enc shard w
        | pid ->
          Unix.close w;
          workers :=
            {
              pid;
              wid;
              fd = r;
              buf = Buffer.create 1024;
              current = None;
              started_at = Unix.gettimeofday ();
              remaining = shard;
            }
            :: !workers
      end
    in
    let synthetic idx verdict wid =
      {
        Report.label = qarr.(idx).Query.label;
        verdict;
        certificate = Report.Uncertified;
        wall_ms = 0.0;
        stats = Report.empty_stats;
        worker = wid;
        strategy = None;
        support = None;
        replayed = false;
        method_ = None;
      }
    in
    let unfinished w = List.filter (fun (i, _) -> results.(i) = None) w.remaining in
    (* A worker died (EOF or watchdog kill) with work outstanding:
       blame the in-flight query — or the next one up, if it died
       between queries — and requeue the rest on a fresh worker. *)
    let finish_worker w ~timed_out =
      workers := List.filter (fun x -> x.wid <> w.wid) !workers;
      (try Unix.close w.fd with _ -> ());
      (try ignore (Unix.waitpid [] w.pid) with _ -> ());
      match unfinished w with
      | [] -> ()
      | (head, _) :: rest_q ->
        let blamed =
          match w.current with
          | Some i when results.(i) = None -> i
          | _ -> head
        in
        let rest = List.filter (fun (i, _) -> i <> blamed) ((head, qarr.(head)) :: rest_q) in
        let requeue =
          if timed_out then begin
            results.(blamed) <-
              Some
                {
                  (synthetic blamed Report.Timeout w.wid) with
                  Report.wall_ms = (Unix.gettimeofday () -. w.started_at) *. 1000.0;
                };
            rest
          end
          else begin
            attempts.(blamed) <- attempts.(blamed) + 1;
            if attempts.(blamed) >= 2 then begin
              results.(blamed) <-
                Some
                  (synthetic blamed
                     (Report.Error "worker crashed twice on this query (one requeue attempted)")
                     w.wid);
              rest
            end
            else (blamed, qarr.(blamed)) :: rest
          end
        in
        spawn requeue
    in
    let handle_msg w = function
      | Started i ->
        w.current <- Some i;
        w.started_at <- Unix.gettimeofday ()
      | Finished (i, r) ->
        if results.(i) = None then results.(i) <- Some r;
        w.current <- None;
        w.remaining <- List.filter (fun (j, _) -> j <> i) w.remaining
      | Learned _ -> ()  (* sharded runs don't share clauses *)
    in
    let tmp = Bytes.create 65536 in
    let read_worker w =
      match Unix.read w.fd tmp 0 (Bytes.length tmp) with
      | 0 ->
        drain_frames w.buf (handle_msg w);
        finish_worker w ~timed_out:false
      | k ->
        Buffer.add_subbytes w.buf tmp 0 k;
        drain_frames w.buf (handle_msg w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    Array.iter spawn shards;
    while !workers <> [] do
      (* Watchdog: a worker stuck past twice its current query's budget
         missed its cooperative cancellation — kill it.  Drain the pipe
         first in case the report is already in flight. *)
      let now = Unix.gettimeofday () in
      let overdue, next_deadline =
        List.fold_left
          (fun (ov, dl) w ->
            match w.current with
            | Some i ->
              (match qarr.(i).Query.timeout with
               | Some t ->
                 let kill_at = w.started_at +. (2.0 *. t) +. 1.0 in
                 if now >= kill_at then (w :: ov, dl) else (ov, Float.min dl (kill_at -. now))
               | None -> (ov, dl))
            | None -> (ov, dl))
          ([], 3600.0) !workers
      in
      List.iter
        (fun w ->
          (match Unix.select [ w.fd ] [] [] 0.0 with
           | [ _ ], _, _ -> read_worker w
           | _ -> ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          if List.exists (fun x -> x.wid = w.wid) !workers && w.current <> None then begin
            (try Unix.kill w.pid Sys.sigkill with _ -> ());
            finish_worker w ~timed_out:true
          end)
        overdue;
      match !workers with
      | [] -> ()
      | ws -> (
        let fds = List.map (fun w -> w.fd) ws in
        match Unix.select fds [] [] next_deadline with
        | ready, _, _ ->
          List.iter
            (fun fd ->
              match List.find_opt (fun w -> w.fd = fd) !workers with
              | Some w -> read_worker w
              | None -> ())
            ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done;
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Some r -> r
           | None -> synthetic i (Report.Error "query lost by the scheduler") 0)
         results)
  end

(* -- portfolio: race strategies on one query, first decisive answer wins --- *)

let portfolio ?timeout ?(strategies = Minesweeper.Options.portfolio) ?(share = true) enc q =
  if strategies = [] then invalid_arg "Engine.portfolio: empty strategy list";
  let q = Query.with_default_timeout timeout q in
  let racers = Array.of_list strategies in
  let started = Unix.gettimeofday () in
  (* Rebroadcasting to a racer that just won (and exited) must not kill
     the parent with SIGPIPE; restore the handler on the way out. *)
  let prev_sigpipe =
    if share then Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) else None
  in
  let fds = ref [] in
  let procs =
    Array.mapi
      (fun i (name, strat) ->
        let r, w = Unix.pipe () in
        (* The import pipe runs parent -> child; the parent's write end
           is non-blocking so a slow importer can never stall the
           scheduler (clause hints are droppable). *)
        let ir, iw = Unix.pipe () in
        Unix.set_nonblock iw;
        let sibling_fds = !fds in
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
          Unix.close r;
          Unix.close iw;
          List.iter (fun fd -> try Unix.close fd with _ -> ()) sibling_fds;
          let import = if share then Some ir else None in
          worker_main ~worker_id:(i + 1) ~strategy:strat ~strategy_name:name ?import enc
            [ (0, q) ] w
        | pid ->
          Unix.close w;
          Unix.close ir;
          fds := r :: iw :: !fds;
          (pid, r, iw, Buffer.create 512, ref true (* alive *)))
      racers
  in
  let winner = ref None in
  let fallback = ref None in
  let note (r : Report.t) =
    match r.Report.verdict with
    | Report.Verified | Report.Violated _ -> if !winner = None then winner := Some r
    | Report.Timeout | Report.Error _ -> if !fallback = None then fallback := Some r
  in
  (* Clauses one racer learns go to every other live racer. *)
  let rebroadcast ~from clauses =
    if share then
      Array.iteri
        (fun j (_, _, iw, _, alive) ->
          if !alive && j <> from then send_clauses iw clauses)
        procs
  in
  let tmp = Bytes.create 65536 in
  let kill_deadline =
    match q.Query.timeout with Some t -> Some (started +. (2.0 *. t) +. 1.0) | None -> None
  in
  let watchdog_fired = ref false in
  let some_alive () = Array.exists (fun (_, _, _, _, alive) -> !alive) procs in
  while !winner = None && (not !watchdog_fired) && some_alive () do
    let timeout_left =
      match kill_deadline with
      | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
      | None -> 3600.0
    in
    let fdl =
      Array.to_list procs
      |> List.filter_map (fun (_, fd, _, _, alive) -> if !alive then Some fd else None)
    in
    (match Unix.select fdl [] [] timeout_left with
     | [], _, _ -> if kill_deadline <> None && timeout_left <= 0.0 then watchdog_fired := true
     | ready, _, _ ->
       List.iter
         (fun fd ->
           Array.iteri
             (fun i (_, pfd, _, buf, alive) ->
               let handle = function
                 | Finished (_, r) -> note r
                 | Learned clauses -> rebroadcast ~from:i clauses
                 | Started _ -> ()
               in
               if !alive && pfd = fd then begin
                 match Unix.read fd tmp 0 (Bytes.length tmp) with
                 | 0 ->
                   drain_frames buf handle;
                   alive := false
                 | n ->
                   Buffer.add_subbytes buf tmp 0 n;
                   drain_frames buf handle
                 | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               end)
             procs)
         ready
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  (* Cancel the losers (and any watchdog-stuck racer) and reap everyone. *)
  Array.iter
    (fun (pid, fd, iw, _, alive) ->
      if !alive then (try Unix.kill pid Sys.sigkill with _ -> ());
      (try Unix.close fd with _ -> ());
      (try Unix.close iw with _ -> ());
      (try ignore (Unix.waitpid [] pid) with _ -> ()))
    procs;
  (match prev_sigpipe with
   | Some h -> ignore (Sys.signal Sys.sigpipe h)
   | None -> ());
  let elapsed_ms = (Unix.gettimeofday () -. started) *. 1000.0 in
  match (!winner, !fallback) with
  | Some r, _ -> r
  | None, Some r -> r
  | None, None ->
    {
      Report.label = q.Query.label;
      verdict =
        (if !watchdog_fired then Report.Timeout
         else Report.Error "all portfolio racers crashed");
      certificate = Report.Uncertified;
      wall_ms = elapsed_ms;
      stats = Report.empty_stats;
      worker = 0;
      strategy = None;
      support = None;
      replayed = false;
      method_ = None;
    }
