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

let available_cores () = Domain.recommended_domain_count ()

(* -- pipe framing: 4-byte big-endian length + marshalled payload ----------- *)

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

let write_msg fd (m : wire) =
  let payload = Marshal.to_bytes m [] in
  let n = Bytes.length payload in
  let frame = Bytes.create (4 + n) in
  Bytes.set_uint8 frame 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 frame 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 frame 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 frame 3 (n land 0xff);
  Bytes.blit payload 0 frame 4 n;
  write_all fd frame 0 (Bytes.length frame)

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

let worker_main ~worker_id ?support enc shard wfd =
  (try
     let session = Verify.Session.of_encoding ?support enc in
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
         write_msg wfd (Finished (idx, { r with Report.worker = worker_id })))
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
