(* End-to-end benchmark: generated configuration text in, rendered
   verdict out, through the same public calls the CLI and the serve
   daemon make.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--cli PATH] [--counts FILE] [--verbose 1]

   Workloads: fleet-audit, fabric-scale, fault-sweep, serve-churn (see
   e2ebench/README.md for what each one covers and why).

   --trace 0 runs the production path with no instrumentation and
   prints the end-to-end metrics, in calibrated times (see
   "calibration" below).  --trace 1 alternates untraced passes
   with passes that replay the same path as separately timed calls into
   each module (spans kept in memory, written as a Chrome trace-event
   file at exit) and prints the per-layer metrics.  The last line of
   standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   The exit code is 0 only when every verdict equals the known answer
   its input was built with. *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast
module R = MS.Verify.Report
module J = Msutil.Json
module S = Smt.Solver

let now = Unix.gettimeofday

(* ---------------- spans ---------------- *)

type span = {
  id : int;
  name : string;
  req : int;  (* the unit of work the span belongs to; 0 = pass-level *)
  parent : int;  (* 0 = root *)
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let finished : span list ref = ref []
let open_spans : span list ref = ref []
let next_span = ref 0
let current_req = ref 0

(* A span around [f]; a plain call when tracing is off. *)
let span name f =
  if not !tracing then f ()
  else begin
    incr next_span;
    let parent = match !open_spans with p :: _ -> p.id | [] -> 0 in
    let s = { id = !next_span; name; req = !current_req; parent; t0 = now (); t1 = 0.0 } in
    open_spans := s :: !open_spans;
    let close () =
      s.t1 <- now ();
      open_spans := List.tl !open_spans;
      finished := s :: !finished
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Counters recorded next to the spans, summed over a pass. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  if !tracing then
    Hashtbl.replace counters name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let count_max name v =
  if !tracing then
    Hashtbl.replace counters name (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt counters name)))

(* Self time per span name (milliseconds): a span's duration minus the
   part its children cover. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0 +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own = s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      Hashtbl.replace self s.name
        ((own *. 1000.0) +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    spans;
  (self, child)

(* A unit's spans must account for its measured wall time: the part of
   a unit span not covered by its child spans may be at most
   [cover_tolerance] of it plus [cover_slack_ms] (clock reads and list
   glue between calls, which matter only on sub-millisecond units). *)
let cover_tolerance = 0.05
let cover_slack_ms = 0.2

let write_trace path spans =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        (if i = 0 then "" else ",\n")
        (J.quote s.name)
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.req)
    (List.sort (fun a b -> compare a.id b.id) spans);
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

(* ---------------- units of work ---------------- *)

(* One verdict (batch workloads) or one protocol request (serve-churn),
   checked against the answer its input was constructed to have. *)
type outcome = {
  key : string;  (* stable within a seed, so traced and untraced passes pair up *)
  got : string;
  want : string;
  ok : bool;  (* got = want *)
  certified : bool;
  decided : bool;
  ms : float;
}

let outcome ?(certified = false) key ~want ~got ms =
  let decided = got = "verified" || got = "violated" in
  {
    key;
    got;
    want;
    ok = got = want;
    certified;
    decided;
    ms;
  }

(* ---------------- calibration ---------------- *)

(* The host's speed changes by up to 2x, from one second to the next
   and for minutes at a time: other tenants share its cores, cache and
   memory.  So an untraced run times a fixed kernel right before and
   right after every unit and set-up, and rescales the measured time by
   how fast the kernel ran around it: a time is reported as it would
   read on a host where the kernel takes [kernel_ref_ms].

   The kernel is ordinary allocating OCaml (a string map, a sort, a
   hash table), because the program is, and contention slows that kind
   of work more than tight integer loops.  It runs in a child process
   forked at start-up and pinned to the same CPU, with a full major
   collection before each timing: its heap is small and its own, so
   neither the program's heap nor a change to the program alters its
   speed, and its memory is not in peak_rss_mb. *)
let calibrating = ref false
let kernel_ref_ms = 2.5

module Smap = Map.Make (String)

let run_kernel () =
  Gc.full_major ();
  let t0 = now () in
  let m = ref Smap.empty in
  for i = 0 to 2_500 do
    m := Smap.add (string_of_int (i * 7919 mod 100_003)) i !m
  done;
  let l = List.sort compare (List.init 4_000 (fun i -> i * 7919 mod 30_011)) in
  let h = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace h x (x + 1)) l;
  ignore (Sys.opaque_identity (!m, h));
  (now () -. t0) *. 1000.0

(* the kernel process's request and reply pipes *)
let kernel_pipes : (Unix.file_descr * Unix.file_descr) option ref = ref None

let really_read fd b =
  let rec go off =
    if off < Bytes.length b then begin
      let n = Unix.read fd b off (Bytes.length b - off) in
      if n = 0 then failwith "calibration kernel exited";
      go (off + n)
    end
  in
  go 0

let start_kernel () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    (* never return into the harness, nor run its exit handlers *)
    (try
       Unix.close req_w;
       Unix.close rep_r;
       let b = Bytes.create 8 in
       while Unix.read req_r b 0 1 = 1 do
         Bytes.set_int64_le b 0 (Int64.bits_of_float (run_kernel ()));
         ignore (Unix.write rep_w b 0 8)
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    kernel_pipes := Some (req_w, rep_r);
    let owner = Unix.getpid () in
    at_exit (fun () ->
        (* the engine's forked racers inherit this handler; only the
           harness owns the kernel process *)
        if Unix.getpid () = owner then begin
          Unix.close req_w;
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
        end)

let kernel () =
  match !kernel_pipes with
  | None -> invalid_arg "kernel: not started"
  | Some (req, rep) ->
    let b = Bytes.make 8 '\000' in
    ignore (Unix.write req b 0 1);
    really_read rep b;
    Int64.float_of_bits (Bytes.get_int64_le b 0)

(* [f ()] and its time in seconds, rescaled when calibrating *)
let measured f =
  let before = if !calibrating then kernel () else 0.0 in
  let t0 = now () in
  let r = f () in
  let s = now () -. t0 in
  (r, if !calibrating then s *. 2.0 *. kernel_ref_ms /. (before +. kernel ()) else s)

let time_s f = snd (measured (fun () -> ignore (Sys.opaque_identity (f ()))))

(* Run [f] as one unit: a root span when tracing, timed either way;
   milliseconds. *)
let unit_counter = ref 0

let timed_unit f =
  incr unit_counter;
  current_req := !unit_counter;
  let r, s = measured (fun () -> span "unit" f) in
  current_req := 0;
  (r, s *. 1000.0)

let cert_checked = function R.Checked_unsat_proof _ | R.Checked_model -> true | _ -> false

let render r = span "json.render" (fun () -> ignore (Sys.opaque_identity (R.to_json r)))

let parse_text text = span "config.parse" (fun () -> Config.Parser.parse_network text)

let add_solver_stats (st : S.stats) =
  count "smt.propagations" (float_of_int st.S.propagations);
  count "smt.conflicts" (float_of_int st.S.conflicts);
  count "smt.decisions" (float_of_int st.S.decisions);
  count "smt.restarts" (float_of_int st.S.restarts);
  count "smt.theory_rounds" (float_of_int st.S.theory_rounds);
  count "smt.theory_propagations" (float_of_int st.S.theory_propagations);
  count "smt.preprocessed_clauses" (float_of_int st.S.preprocessed_clauses);
  count "smt.lbd_reductions" (float_of_int st.S.lbd_reductions);
  count "smt.learned_clauses" (float_of_int st.S.learned_clauses);
  count "smt.minor_words" st.S.minor_words;
  count_max "smt.arena_bytes" (float_of_int (st.S.arena_words * (Sys.word_size / 8)))

let add_encode_counts enc =
  let assertions, nodes = MS.Encode.stats enc in
  count "encode.assertions" (float_of_int assertions);
  count "encode.term_nodes" (float_of_int nodes);
  count "encode.devices_encoded" (float_of_int (List.length (MS.Encode.devices enc)))

(* The traced twin of [Encode.build] with its pre-flight lint: the lint
   is called on its own, exactly once, and its check kept. *)
let traced_encode ?pins net opts =
  span "analysis.lint" (fun () -> Analysis.Lint.preflight net);
  let enc =
    span "encode.encode" (fun () ->
        MS.Encode.build ?pins net { opts with MS.Options.preflight_lint = false })
  in
  add_encode_counts enc;
  enc

(* The traced twin of [Verify.run_query]: the same public calls, each
   timed as its own layer. *)
let traced_run_query enc (label, make) =
  let opts = MS.Encode.options enc in
  let prop = span "property.build" (fun () -> make enc) in
  let t0 = now () in
  let solver =
    span "smt.cnf" (fun () ->
        let s =
          S.create ~certify:opts.MS.Options.certify ~strategy:opts.MS.Options.strategy
            ~features:opts.MS.Options.solver_features ()
        in
        List.iter (S.assert_term s) (MS.Encode.assertions enc);
        List.iter (S.assert_term s) prop.MS.Property.instrumentation;
        List.iter (S.assert_term s) prop.MS.Property.assumptions;
        S.assert_term s (Smt.Term.not_ prop.MS.Property.goal);
        s)
  in
  let before = S.stats solver in
  count "smt.sat_vars" (float_of_int before.S.sat_vars);
  count "smt.sat_clauses" (float_of_int before.S.sat_clauses);
  let result = span "smt.check" (fun () -> S.check solver) in
  let stats = S.stats solver in
  add_solver_stats stats;
  let verdict, certificate =
    match result with
    | S.Unsat ->
      let cert =
        if not opts.MS.Options.certify then R.Uncertified
        else
          match span "proof.certify" (fun () -> Proof.Certify.unsat solver) with
          | Ok s ->
            count "proof.trace_steps" (float_of_int s.Proof.Certify.trace_steps);
            count "proof.lemmas" (float_of_int s.Proof.Certify.lemmas);
            R.Checked_unsat_proof
              { trace_steps = s.trace_steps; clauses = s.clauses; lemmas = s.lemmas }
          | Error m -> R.Certification_failed m
      in
      (R.Verified, cert)
    | S.Sat model ->
      let cx = span "routing.replay" (fun () -> MS.Counterexample.decode enc model) in
      let cert =
        if not opts.MS.Options.certify then R.Uncertified
        else
          match span "proof.certify" (fun () -> Proof.Certify.model solver model) with
          | Error m -> R.Certification_failed m
          | Ok () -> (
            match span "routing.replay" (fun () -> MS.Counterexample.replay enc cx) with
            | Ok () -> R.Checked_model
            | Error m -> R.Certification_failed m)
      in
      (R.Violated cx, cert)
  in
  {
    R.label;
    verdict;
    certificate;
    wall_ms = (now () -. t0) *. 1000.0;
    stats;
    worker = 0;
    strategy = None;
    support = None;
    replayed = false;
    method_ = None;
  }

let verdict_of (r : R.t) = R.verdict_name r.R.verdict

let guard f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

(* The outcome of a guarded call that returns a report. *)
let checked key ~want r ms =
  match r with
  | Ok r -> outcome key ~want ~got:(verdict_of r) ms
  | Error e -> outcome key ~want ~got:("error: " ^ e) ms

let devices_of (net : A.network) = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices

(* ---------------- workloads ---------------- *)

type workload = {
  pass : unit -> float * outcome list;
      (* one pass: the seconds its set-up took (not part of any unit),
         then its units; spans and counters when tracing *)
  sizing : unit -> outcome list;
      (* traced run only: calls made next to the production path to size its parts *)
  daemon_rss_mb : (unit -> float) option;
      (* peak memory of the process doing the work when that is not this
         one or its children *)
}

(* [f] with tracing off, whatever the pass is *)
let untraced f =
  let was = !tracing in
  tracing := false;
  Fun.protect ~finally:(fun () -> tracing := was) f

(* Peak resident set of the largest waited-for child process (the
   engine's forked racers), from getrusage(RUSAGE_CHILDREN). *)
external children_maxrss_kb : unit -> float = "e2e_children_maxrss_kb"

external pin_to_current_cpu : unit -> int = "e2e_pin_to_current_cpu"

let proc_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2) else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Linear-interpolated percentile, [q] in [0, 1]. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = truncate pos in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let default_timeout = 60.0

(* The front end the CLI runs on every input before it encodes: parse
   and the pre-flight lint.  The set-up of the batch workloads, timed
   once per pass with tracing off; a lint error surfaces in the units. *)
let front_end texts =
  untraced (fun () ->
      time_s (fun () ->
          List.iter
            (fun text -> ignore (guard (fun () -> Analysis.Lint.preflight (Config.Parser.parse_network text))))
            texts))

(* -- fleet-audit: Fig. 7 / §8.1 -- *)

(* The fleet's injected-class mix (Enterprise.fleet: 67 hijacks, 29 ACL
   gaps, 24 deep drops, 16 single-homed racks, 16 clean, of 152) and the
   minimum size each class needs. *)
let fleet_classes =
  let nb = G.Enterprise.no_bugs in
  [
    ("hijack", { nb with G.Enterprise.hijack = true }, 67, 4);
    ("acl_gap", { nb with G.Enterprise.acl_gap = true }, 29, 8);
    ("deep_drop", { nb with G.Enterprise.deep_drop = true }, 24, 5);
    ("single_homed", { nb with G.Enterprise.single_homed = true }, 16, 5);
    ("clean", nb, 16, 4);
  ]

let fleet_networks = 6

(* The draw's router counts: the lower part of the fleet's 4..25 range,
   so that a pass stays short enough to repeat several times a run. *)
let fleet_min_routers = 4
let fleet_max_routers = 12

(* The deep-drop injection puts the bogon ACL on a core's link to the
   first rack, with a random OSPF cost; when a cheaper path around it
   exists, no packet crosses it and nothing is dropped.  Cost 1 makes
   that link the core's only best route into the rack (any other path
   has two hops or more), so the core's own packets to the rack's upper
   half are dropped there: the blackhole the class stands for. *)
let pin_bogon_link (t : G.Enterprise.t) =
  let pin (i : A.interface) =
    if i.A.if_acl_out = Some "CORE_BOGON" then { i with A.if_cost = 1 } else i
  in
  let net = t.G.Enterprise.network in
  {
    t with
    G.Enterprise.network =
      {
        net with
        A.net_devices =
          List.map (fun (d : A.device) -> { d with A.dev_interfaces = List.map pin d.A.dev_interfaces }) net.A.net_devices;
      };
  }

(* A class-stratified draw of [n] networks.  The classes get the fleet's
   proportions (largest remainder); the router-count range is cut
   into [n] equal strata, and each class's networks are spread evenly
   over them, the same way for every seed; each network takes its
   stratum's middle size.  The seed picks each generator seed (wiring,
   link costs, external peers, addresses).  ACL padding is fixed at the
   generator's mean for the size, so seeds differ in how the networks
   are built, not in how much configuration there is. *)
let fleet_draw ~seed n =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let total = List.fold_left (fun a (_, _, w, _) -> a + w) 0 fleet_classes in
  let quota = List.map (fun (_, _, w, _) -> float_of_int (n * w) /. float_of_int total) fleet_classes in
  let floors = List.map truncate quota in
  let short = n - List.fold_left ( + ) 0 floors in
  let extra =
    List.mapi (fun i q -> (q -. Float.of_int (truncate q), i)) quota
    |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
    |> List.filteri (fun k _ -> k < short)
    |> List.map snd
  in
  let counts = List.mapi (fun i f -> if List.mem i extra then f + 1 else f) floors in
  let layout =
    List.concat
      (List.map2
         (fun c k -> List.init k (fun j -> ((float_of_int j +. 0.5) /. float_of_int k, c)))
         fleet_classes counts)
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  List.mapi
    (fun j (cls, inject, _, min_routers) ->
      let span = fleet_max_routers - fleet_min_routers + 1 in
      let lo = fleet_min_routers + (span * j / n)
      and hi = fleet_min_routers + (span * (j + 1) / n) - 1 in
      let routers = max min_routers ((lo + hi + 1) / 2) in
      let gseed = Random.State.bits rng in
      let t = G.Enterprise.make ~bulk:(8 + (15 * routers)) ~seed:gseed ~routers ~inject () in
      (cls, if cls = "deep_drop" then pin_bogon_link t else t))
    layout

let fleet_audit ~seed =
  let inputs =
    List.mapi
      (fun i (cls, (t : G.Enterprise.t)) ->
        (i, cls, t, Config.Printer.network_to_string t.G.Enterprise.network))
      (fleet_draw ~seed fleet_networks)
  in
  let texts = List.map (fun (_, _, _, text) -> text) inputs in
  let opts = MS.Options.with_certify MS.Options.default in
  (* the three §8.1 audits, each with the verdict the injected class implies *)
  let queries cls (t : G.Enterprise.t) =
    let devices = devices_of t.G.Enterprise.network in
    let target = List.hd (List.rev devices) in
    let want b = if b then "violated" else "verified" in
    let mgmt =
      ( "mgmt-reachability",
        want (cls = "hijack"),
        fun enc ->
          MS.Property.reachability enc ~sources:devices
            (MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target)) )
    in
    let blackholes =
      ( "no-blackholes",
        want (cls = "deep_drop"),
        let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
        fun enc -> MS.Property.no_blackholes enc ~allowed () )
    in
    match t.G.Enterprise.rack_role with
    | r1 :: r2 :: _ ->
      [ mgmt; ("acl-equivalence", want (cls = "acl_gap"), fun enc -> MS.Property.acl_equivalence enc r1 r2); blackholes ]
    | _ -> [ mgmt; blackholes ]
  in
  let pass () =
    let setup = front_end texts in
    ( setup,
      List.concat_map
      (fun (i, cls, t, text) ->
        List.map
          (fun (label, want, make) ->
            let key = Printf.sprintf "net%02d-%s-%s" i cls label in
            let r, ms =
              timed_unit (fun () ->
                  guard (fun () ->
                      let r =
                        if !tracing then
                          traced_run_query (traced_encode (parse_text text) opts) (label, make)
                        else
                          MS.Verify.run_query
                            (MS.Encode.build (Config.Parser.parse_network text) opts)
                            (MS.Verify.Query.v ~timeout:default_timeout label make)
                      in
                      render r;
                      r))
            in
            match r with
            | Ok r ->
              let certified = cert_checked r.R.certificate in
              (match r.R.certificate with
               | R.Certification_failed m -> Printf.eprintf "%s: certification failed: %s\n%!" key m
               | R.Uncertified -> Printf.eprintf "%s: verdict uncertified\n%!" key
               | _ -> ());
              outcome ~certified key ~want ~got:(verdict_of r) ms
            | Error e -> outcome key ~want ~got:("error: " ^ e) ms)
          (queries cls t))
      inputs )
  in
  {
    pass;
    sizing = (fun () -> []);
    daemon_rss_mb = None;
  }

(* -- fabric-scale: Fig. 8 / 9 -- *)

(* The full fabric's size and the quotient's.  A pass is one
   incremental session over the full encoding (its creation is the
   set-up) answering the destination pair cold then warm, then the same
   pair over the quotient, one pinned one-shot encoding per
   destination, each parsed from text as [verify --symmetry] does. *)
let fabric_full_pods = 4
let fabric_quot_pods = 18

(* destinations the full session answers: the first cold, the rest warm *)
let fabric_full_dsts = 5

let fabric_scale () =
  let full = G.Fattree.make ~pods:fabric_full_pods in
  let quot = G.Fattree.make ~pods:fabric_quot_pods in
  let text_full = Config.Printer.network_to_string full.G.Fattree.network in
  let text_quot = Config.Printer.network_to_string quot.G.Fattree.network in
  let opts = MS.Options.default in
  let pair (ft : G.Fattree.t) =
    (* two destination ToRs in different pods *)
    let tors = ft.G.Fattree.tors in
    [ List.hd tors; List.hd (List.rev tors) ]
  in
  (* every ToR subnet is originated by its ToR, the cores filter
     external announcements of internal space, and no link fails in
     these queries: every ToR reaches every other ToR's subnet *)
  let want = "verified" in
  let all_tor (ft : G.Fattree.t) dst =
    let srcs = List.filter (fun t -> t <> dst) ft.G.Fattree.tors in
    ( "all-tor-reach-" ^ dst,
      fun enc ->
        MS.Property.reachability enc ~sources:(MS.Encode.project_devices enc srcs)
          (MS.Property.Subnet (dst, ft.G.Fattree.tor_subnet dst)) )
  in
  let full_dsts =
    (* spread over the pods, the first and the last ToR included *)
    let tors = Array.of_list full.G.Fattree.tors in
    let n = Array.length tors in
    List.init fabric_full_dsts (fun j -> tors.(j * (n - 1) / (fabric_full_dsts - 1)))
  in
  let full_key = Printf.sprintf "full-pods%d-%s-%s" fabric_full_pods in
  let quot_key = Printf.sprintf "quotient-pods%d-%s" fabric_quot_pods in
  let pass () =
    let session, setup =
      measured @@ fun () ->
      let net = parse_text text_full in
      if !tracing then begin
        let enc = traced_encode net opts in
        let s = span "smt.cnf" (fun () -> MS.Verify.Session.of_encoding enc) in
        let st = MS.Verify.Session.stats s in
        count "smt.sat_vars" (float_of_int st.S.sat_vars);
        count "smt.sat_clauses" (float_of_int st.S.sat_clauses);
        s
      end
      else MS.Verify.Session.create net opts
    in
    let full_units =
      List.mapi
        (fun i dst ->
          let round = if i = 0 then "cold" else "warm" in
          let label, make = all_tor full dst in
          let r, ms =
            timed_unit (fun () ->
                guard (fun () ->
                    let q =
                      if !tracing then
                        let enc = MS.Verify.Session.encoding session in
                        MS.Verify.Query.of_property ~timeout:default_timeout label
                          (span "property.build" (fun () -> make enc))
                      else MS.Verify.Query.v ~timeout:default_timeout label make
                    in
                    let r = span "smt.check" (fun () -> MS.Verify.Session.run_one session q) in
                    add_solver_stats r.R.stats;
                    render r;
                    r))
          in
          checked (full_key round label) ~want r ms)
        full_dsts
    in
    if !tracing then begin
      let st = MS.Verify.Session.stats session in
      count_max "smt.arena_bytes" (float_of_int (st.S.arena_words * (Sys.word_size / 8)))
    end;
    let qopts = MS.Options.with_symmetry opts in
    let quot_units =
      List.map
        (fun dst ->
          let label, make = all_tor quot dst in
          let r, ms =
            timed_unit (fun () ->
                guard (fun () ->
                    let qnet = parse_text text_quot in
                    let r =
                      if !tracing then traced_run_query (traced_encode ~pins:[ dst ] qnet qopts) (label, make)
                      else
                        MS.Verify.run_query
                          (MS.Encode.build ~pins:[ dst ] qnet qopts)
                          (MS.Verify.Query.v ~timeout:default_timeout label make)
                    in
                    render r;
                    r))
          in
          checked (quot_key label) ~want r ms)
        (pair quot)
    in
    (setup, full_units @ quot_units)
  in
  { pass; sizing = (fun () -> []); daemon_rss_mb = None }

(* -- fault-sweep: <k>-failure invariance through Faults.hybrid -- *)

let fault_inputs () =
  let ft = G.Fattree.make ~pods:4 in
  let ft_text = Config.Printer.network_to_string ft.G.Fattree.network in
  let tors = ft.G.Fattree.tors in
  (* pods/2 = 2 uplinks per ToR: no single failure disconnects anything,
     failing both uplinks of the destination ToR isolates it *)
  let ft_cases =
    List.concat_map
      (fun dst ->
        List.map
          (fun k ->
            ( Printf.sprintf "fattree-pods4-%s-k%d" dst k,
              ft_text,
              MS.Property.Subnet (dst, ft.G.Fattree.tor_subnet dst),
              k,
              if k < 2 then "verified" else "violated" ))
          [ 1; 2 ])
      [ List.hd tors; List.hd (List.rev tors) ]
  in
  (* OSPF enterprises are outside the graph tier, so these fall back to
     SMT; the single-homed injection removes the last rack's redundant
     uplink, so one failure partitions its subnet *)
  let ent_cases =
    List.map
      (fun (name, inject, want) ->
        let t = G.Enterprise.make ~seed:7 ~routers:6 ~inject () in
        let target = List.hd (List.rev t.G.Enterprise.rack_role) in
        ( Printf.sprintf "enterprise-%s-k1" name,
          Config.Printer.network_to_string t.G.Enterprise.network,
          MS.Property.Subnet (target, t.G.Enterprise.rack_subnet target),
          1,
          want ))
      [
        ("clean", G.Enterprise.no_bugs, "verified");
        ("single-homed", { G.Enterprise.no_bugs with G.Enterprise.single_homed = true }, "violated");
      ]
  in
  ft_cases @ ent_cases

let fault_sweep () =
  let cases = fault_inputs () in
  let texts = List.sort_uniq compare (List.map (fun (_, text, _, _, _) -> text) cases) in
  let opts = MS.Options.default in
  let hybrid_ms = Hashtbl.create 8 in
  let pass () =
    let setup = front_end texts in
    ( setup,
      List.map
      (fun (key, text, dest, k, want) ->
        let r, ms =
          timed_unit (fun () ->
              guard (fun () ->
                  let net = parse_text text in
                  let sources = devices_of net in
                  let t0 = now () in
                  let r =
                    span "faults.hybrid" (fun () ->
                        Faults.hybrid ~timeout:default_timeout net opts ~k ~sources dest)
                  in
                  if !tracing then Hashtbl.replace hybrid_ms key ((now () -. t0) *. 1000.0);
                  render r;
                  r))
        in
        checked key ~want r ms)
      cases )
  in
  (* graph tier alone and SMT alone on the same queries: what a
     graph-first change has to beat *)
  let sizing () =
    List.concat_map
      (fun (key, text, dest, k, want) ->
        let net = Config.Parser.parse_network text in
        let sources = devices_of net in
        let g, g_ms =
          timed_unit (fun () ->
              guard (fun () -> span "faults.graph" (fun () -> Faults.report net ~k ~sources dest)))
        in
        let s, s_ms =
          timed_unit (fun () ->
              guard (fun () ->
                  span "faults.smt" (fun () ->
                      MS.Verify.fault_invariant ~timeout:default_timeout net opts ~k ~sources dest)))
        in
        let graph_decided =
          match g with
          | Ok r -> (match r.R.verdict with R.Verified | R.Violated _ -> true | _ -> false)
          | Error _ -> false
        in
        if graph_decided then count "faults.graph_decided" 1.0;
        count "faults.cases" 1.0;
        let best = if graph_decided then g_ms else s_ms in
        (match Hashtbl.find_opt hybrid_ms key with
         | Some h -> count "engine.race_overhead_ms" (h -. best)
         | None -> ());
        let graph_outcome =
          if graph_decided then [ checked (key ^ "-graph") ~want g g_ms ] else []
        in
        graph_outcome @ [ checked (key ^ "-smt") ~want s s_ms ])
      cases
  in
  { pass; sizing; daemon_rss_mb = None }

(* -- serve-churn: the daemon as its own process, one closed-loop client -- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

(* Daemons still running; stopped at exit whatever happens. *)
let live_daemons : int list ref = ref []

let reap pid =
  live_daemons := List.filter (fun p -> p <> pid) !live_daemons;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live_daemons)

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let recv c =
  let rec go () =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
      String.sub s 0 i
    | None ->
      let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
      if n = 0 then failwith "serve-churn: daemon closed the connection";
      Buffer.add_subbytes c.buf c.chunk 0 n;
      go ()
  in
  go ()

type daemon = { pid : int; conn : conn }

(* Spawn [cli serve] and return once it accepts a connection. *)
let spawn_daemon cli sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli [| cli; "serve"; "--socket"; sock |] devnull devnull Unix.stderr
  in
  Unix.close devnull;
  live_daemons := pid :: !live_daemons;
  let deadline = now () +. 60.0 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { pid; conn = { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 } }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline && fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 ->
      Unix.close fd;
      Unix.sleepf 0.002;
      connect ()
    | exception e ->
      Unix.close fd;
      raise e
  in
  connect ()

let stop_daemon d =
  (try
     send d.conn {|{"schema":2,"op":"shutdown"}|};
     ignore (recv d.conn)
   with _ -> ());
  Unix.close d.conn.fd;
  reap d.pid

let parse_response line =
  match span "client.parse" (fun () -> J.parse line) with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok v -> (
    match Option.bind (J.member "ok" v) J.get_bool with
    | Some true -> Ok v
    | _ ->
      Error (Option.value ~default:line (Option.bind (J.member "error" v) J.get_string)))

let report_verdicts v =
  Option.value ~default:[] (Option.bind (J.member "reports" v) J.get_list)
  |> List.map (fun r ->
         Printf.sprintf "%s=%s"
           (Option.value ~default:"?" (Option.bind (J.member "label" r) J.get_string))
           (Option.value ~default:"?" (Option.bind (J.member "verdict" r) J.get_string)))
  |> String.concat ","

(* The base network and its rack roles: the suite asks ACL equivalence of
   three rack pairs; the remaining racks are outside every queried pair. *)
let serve_base () = G.Enterprise.make ~seed:11 ~routers:12 ~inject:G.Enterprise.no_bugs ()

let edit_hosts_acl (net : A.network) rack f =
  {
    net with
    A.net_devices =
      List.map
        (fun (d : A.device) ->
          if d.A.dev_name <> rack then d
          else
            {
              d with
              A.dev_acls =
                List.map
                  (fun (acl : A.acl) ->
                    if acl.A.acl_name = "HOSTS" then { acl with A.acl_entries = f acl.A.acl_entries }
                    else acl)
                  d.A.dev_acls;
            })
        net.A.net_devices;
  }

type step = { kind : string; op : string; req : string; want : string }

(* The seeded request stream of one pass, as episodes.  Every edit is
   made to the clean base, so the daemon's network is always the base
   plus at most one edit:
   - remote: a diff adding an inert deny of one address inside
     10.66.0.0/16 (already denied by the next entry) to a rack outside
     the suite, then the query — every verdict replays;
   - inert: the same edit on a queried rack, the query (its pair is
     re-solved and still holds), then a [load] of the base text again,
     A->B->A, which hits the encoding cache, and the query;
   - gap: the rack's 10.66.0.0/16 deny removed, the query (its pair is
     violated), then the same flap back to the base and the query.
   The mix per pass is fixed, and so is the rack each queried episode
   edits (inert ones take the queried racks in turn, gaps every other
   one), so every seed re-solves the same pairs; the seed orders the
   episodes and picks the remote racks and addresses.  With R remote
   and Q queried episodes a pass has 2R+4Q requests: R replayed queries
   (fastest), R+2Q diffs and loads, then 2Q re-solving queries.  p50
   lies among the diffs and loads whenever R >= 1; R = 3Q-4.5 puts p90
   in the middle of the re-solves, so neither falls on the edge between
   two kinds of request. *)
let serve_remote = 10
let serve_inert = 3
let serve_gap = 2

let serve_stream ~seed =
  let t = serve_base () in
  let net = t.G.Enterprise.network in
  let racks = Array.of_list t.G.Enterprise.rack_role in
  let pairs = [ (racks.(0), racks.(1)); (racks.(2), racks.(3)); (racks.(4), racks.(5)) ] in
  let queried = Array.sub racks 0 6 and remote = Array.sub racks 6 (Array.length racks - 6) in
  let label (a, b) = Printf.sprintf "eq-%s-%s" a b in
  let quote = J.quote in
  let query_req =
    Printf.sprintf {|{"schema":2,"op":"query","queries":[%s]}|}
      (String.concat ","
         (List.map
            (fun ((a, b) as p) ->
              Printf.sprintf {|{"property":"acl-equivalence","label":%s,"devices":[%s,%s]}|}
                (quote (label p)) (quote a) (quote b))
            pairs))
  in
  let want_query gap =
    String.concat ","
      (List.map
         (fun ((a, b) as p) ->
           label p ^ "=" ^ if gap = Some a || gap = Some b then "violated" else "verified")
         pairs)
  in
  let base_text = Config.Printer.network_to_string net in
  let load_base = Printf.sprintf {|{"schema":2,"op":"load","config":%s}|} (quote base_text) in
  let diff text = Printf.sprintf {|{"schema":2,"op":"diff","config":%s}|} (quote text) in
  let rng = Random.State.make [| 0xc4a7; seed |] in
  let mix =
    Array.of_list
      (List.concat
         [ List.init serve_remote (fun _ -> "remote"); List.init serve_inert (fun _ -> "inert");
           List.init serve_gap (fun _ -> "gap") ])
  in
  for i = Array.length mix - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = mix.(i) in
    mix.(i) <- mix.(j);
    mix.(j) <- x
  done;
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let turn = Hashtbl.create 2 in
  let next_queried kind =
    let k = Option.value ~default:0 (Hashtbl.find_opt turn kind) in
    Hashtbl.replace turn kind (k + 1);
    let n = Array.length queried in
    queried.(if kind = "gap" then ((2 * k) + 1) mod n else k mod n)
  in
  let inert_deny () =
    let x = Random.State.int rng 256 and y = Random.State.int rng 256 in
    fun entries ->
      { A.acl_action = A.Deny; acl_dst = Net.Prefix.make (Net.Ipv4.of_octets 10 66 x y) 32 }
      :: entries
  in
  let gap_edit = function
    | { A.acl_action = A.Deny; acl_dst } :: rest
      when Net.Prefix.to_string acl_dst = "10.66.0.0/16" -> rest
    | _ -> failwith "serve-churn: rack ACL does not start with the 10.66.0.0/16 deny"
  in
  let edited kind rack f =
    { kind; op = "diff"; req = diff (Config.Printer.network_to_string (edit_hosts_acl net rack f)); want = "ok" }
  in
  let query kind gap = { kind; op = "query"; req = query_req; want = want_query gap } in
  let flap = [ { kind = "flap"; op = "load"; req = load_base; want = "ok" }; query "flap" None ] in
  let steps =
    Array.to_list mix
    |> List.concat_map (fun kind ->
           match kind with
           | "remote" -> [ edited kind (pick remote) (inert_deny ()); query kind None ]
           | "inert" -> [ edited kind (next_queried kind) (inert_deny ()); query kind None ] @ flap
           | _ ->
             let r = next_queried kind in
             [ edited kind r gap_edit; query kind (Some r) ] @ flap)
  in
  (load_base, query_req, want_query None, steps)

let serve_churn ~seed ~cli ~dir =
  let base_req, query_req, base_want, steps = serve_stream ~seed in
  let sock = Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let exchange d ~op line =
    span ("serve." ^ op) (fun () ->
        send d.conn line;
        parse_response (recv d.conn))
  in
  let checked_response key want r ms =
    match r with
    | Error e -> outcome key ~want ~got:("error: " ^ e) ms
    | Ok v -> outcome key ~want ~got:(if want = "ok" then "ok" else report_verdicts v) ms
  in
  let request d ~op key want line =
    let r, ms = timed_unit (fun () -> exchange d ~op line) in
    checked_response key want r ms
  in
  let hwm = ref [] in
  (* the set-up: spawn, the initial load and the first query, timed
     as a whole and not as units *)
  let open_daemon () =
    let d = spawn_daemon cli sock in
    let a = checked_response "setup-load" "ok" (exchange d ~op:"load" base_req) 0.0 in
    let b = checked_response "setup-query" base_want (exchange d ~op:"query" query_req) 0.0 in
    (d, [ a; b ])
  in
  let pass () =
    let (d, first), setup = measured open_daemon in
    Fun.protect
      ~finally:(fun () ->
        hwm := proc_hwm_mb (string_of_int d.pid) :: !hwm;
        stop_daemon d)
      (fun () ->
        let units =
          List.mapi
            (fun i s -> request d ~op:s.op (Printf.sprintf "req%03d-%s-%s" i s.kind s.op) s.want s.req)
            steps
        in
        if !tracing then begin
          send d.conn {|{"schema":2,"op":"stats"}|};
          match J.parse (recv d.conn) with
          | Ok v ->
            let get k = float_of_int (Option.value ~default:0 (Option.bind (J.member k v) J.get_int)) in
            let replays = get "delta_replays" and solves = get "solves" in
            count "serve.replayed_frac" (if replays +. solves > 0.0 then replays /. (replays +. solves) else 0.0);
            count "serve.verdict_hit_frac"
              (if get "queries_answered" > 0.0 then get "verdict_hits" /. get "queries_answered" else 0.0);
            count "serve.encoding_cache_hits" (get "enc_cache_hits");
            count "serve.solved_queries" solves
          | Error _ -> ()
        end;
        (* a failed set-up request is reported; a good one is not a stream unit *)
        (setup, List.filter (fun o -> not o.ok) first @ units))
  in
  {
    pass;
    sizing = (fun () -> []);
    daemon_rss_mb = Some (fun () -> median !hwm);
  }

(* ---------------- the harness ---------------- *)

let workload_names = [ "fleet-audit"; "fabric-scale"; "fault-sweep"; "serve-churn" ]

(* Per-layer metrics: name, unit, and how a traced pass's value is read
   off its self times and counters. *)
let ms_layers =
  [
    ("config.parse_ms", [ "config.parse" ]);
    ("analysis.lint_ms", [ "analysis.lint" ]);
    ("encode.encode_ms", [ "encode.encode" ]);
    ("property.build_ms", [ "property.build" ]);
    ("smt.cnf_ms", [ "smt.cnf" ]);
    ("smt.check_ms", [ "smt.check" ]);
    ("proof.certify_ms", [ "proof.certify" ]);
    ("routing.replay_ms", [ "routing.replay" ]);
    ("faults.hybrid_ms", [ "faults.hybrid" ]);
    ("serve.load_ms", [ "serve.load" ]);
    ("serve.diff_ms", [ "serve.diff" ]);
    ("serve.query_ms", [ "serve.query" ]);
    ("json.render_ms", [ "json.render" ]);
  ]

let count_layers =
  [
    ("encode.assertions", "count"); ("encode.term_nodes", "count");
    ("encode.devices_encoded", "count"); ("smt.sat_vars", "count"); ("smt.sat_clauses", "count");
    ("smt.propagations", "count"); ("smt.conflicts", "count"); ("smt.decisions", "count");
    ("smt.restarts", "count"); ("smt.theory_rounds", "count");
    ("smt.theory_propagations", "count"); ("smt.preprocessed_clauses", "count");
    ("smt.lbd_reductions", "count"); ("smt.learned_clauses", "count");
    ("smt.arena_bytes", "bytes"); ("proof.trace_steps", "count"); ("proof.lemmas", "count");
    ("serve.replayed_frac", "fraction"); ("serve.verdict_hit_frac", "fraction");
    ("serve.encoding_cache_hits", "count"); ("serve.solved_queries", "count");
  ]

type pass_record = {
  traced : bool;
  setup : float;  (* seconds *)
  wall : float;  (* seconds: the pass's units, back to back *)
  elapsed : float;  (* seconds: the whole pass, set-up and tear-down included *)
  outcomes : outcome list;
  self : (string, float) Hashtbl.t;
  child : (int, float) Hashtbl.t;  (* span id -> seconds its children cover *)
  spans : span list;
  counts : (string * float) list;
}

let pass_count p k = Option.value ~default:0.0 (List.assoc_opt k p.counts)

let run_pass w ~traced =
  (* every pass starts from a compacted heap, as a fresh CLI process
     would: otherwise garbage left by earlier passes slows the forked
     racers of later ones (their collections touch the inherited heap) *)
  Gc.compact ();
  tracing := traced;
  finished := [];
  Hashtbl.reset counters;
  let t0 = now () in
  let setup, outcomes = w.pass () in
  let elapsed = now () -. t0 in
  tracing := false;
  let spans = !finished in
  let self, child = self_times spans in
  let counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [] in
  let wall = List.fold_left (fun a o -> a +. o.ms) 0.0 outcomes /. 1000.0 in
  { traced; setup; wall; elapsed; outcomes; self; child; spans; counts }

(* Each unit's median time over the passes, and how many passes ran
   it, in the first pass's order. *)
let unit_times passes =
  match passes with
  | [] -> []
  | first :: _ ->
    List.map
      (fun o ->
        let times =
          List.concat_map
            (fun p -> List.filter_map (fun u -> if u.key = o.key then Some u.ms else None) p.outcomes)
            passes
        in
        (o.key, (median times, List.length times)))
      first.outcomes

let usage () =
  prerr_endline
    "usage: main.exe --workload fleet-audit|fabric-scale|fault-sweep|serve-churn --seed N \
     --seconds S --trace 0|1 [--cli PATH] [--counts FILE] [--verbose 1]";
  exit 2

let () =
  (* a daemon that dies mid-request must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = List.assoc_opt k o in
  let workload = match get "workload" with Some w when List.mem w workload_names -> w | _ -> usage () in
  let num k = match Option.bind (get k) float_of_string_opt with Some v -> v | None -> usage () in
  let seed = int_of_float (num "seed") and seconds = num "seconds" in
  let traced_run = match get "trace" with Some "0" -> false | Some "1" -> true | _ -> usage () in
  calibrating := not traced_run;
  (* The calibration kernel must run on the CPU that does the work: the
     host's two vCPUs are not equally fast at the same moment.  Pin this
     process, and the kernel process and serve daemon it starts (the
     daemon answers in-process), to one CPU, except in fault-sweep,
     whose engine races its solvers across every CPU. *)
  if workload <> "fault-sweep" then ignore (pin_to_current_cpu ());
  if !calibrating then start_kernel ();
  (* traces and the daemon's socket; relative, so a socket path stays
     short wherever the checkout lives *)
  let dir = ".e2ebench" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let w =
    match workload with
    | "fleet-audit" -> fleet_audit ~seed
    | "fabric-scale" -> fabric_scale ()
    | "fault-sweep" -> fault_sweep ()
    | _ ->
      let cli =
        Option.value ~default:"_build/default/bin/minesweeper_cli.exe" (get "cli")
      in
      if not (Sys.file_exists cli) then begin
        prerr_endline ("serve-churn: no CLI binary at " ^ cli);
        exit 2
      end;
      serve_churn ~seed ~cli ~dir
  in
  (* passes until the next one would overrun [seconds]; a traced run
     alternates untraced and traced passes *)
  let t_meas = now () in
  let first_rss = ref 0.0 in
  let rec loop acc =
    let n = List.length acc in
    (* peak memory after the first pass: this process's, or that of the
       largest child it forked and reaped (the engine's racers) *)
    if n = 1 then first_rss := Float.max (proc_hwm_mb "self") (children_maxrss_kb () /. 1024.0);
    let typical = median (List.map (fun p -> p.elapsed) acc) in
    let min_passes = if traced_run then 2 else 1 in
    if n >= min_passes && now () -. t_meas +. typical > seconds then List.rev acc
    else loop (run_pass w ~traced:(traced_run && n mod 2 = 1) :: acc)
  in
  let passes = loop [] in
  let sizing =
    if traced_run then begin
      tracing := true;
      finished := [];
      Hashtbl.reset counters;
      let outcomes = w.sizing () in
      tracing := false;
      let self, _ = self_times !finished in
      Some (outcomes, self, Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [], !finished)
    end
    else None
  in
  let peak_rss = match w.daemon_rss_mb with Some f -> f () | None -> !first_rss in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let all_outcomes =
    List.concat_map (fun p -> p.outcomes) passes
    @ match sizing with Some (os, _, _, _) -> os | None -> []
  in
  let wrong = List.filter (fun o -> not o.ok) all_outcomes in
  (* traced-run integrity: same verdict on every unit as the untraced
     pass, and every unit's spans cover its wall time *)
  let reference = match untraced with p :: _ -> p.outcomes | [] -> [] in
  let diverged =
    List.concat_map
      (fun p ->
        List.filter
          (fun o ->
            match List.find_opt (fun r -> r.key = o.key) reference with
            | Some r -> r.got <> o.got
            | None -> true)
          p.outcomes)
      traced
  in
  let uncovered =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun s ->
            if s.name <> "unit" then None
            else
              let dur = (s.t1 -. s.t0) *. 1000.0 in
              let cov = 1000.0 *. Option.value ~default:0.0 (Hashtbl.find_opt p.child s.id) in
              Some (dur, dur -. cov))
          p.spans)
      traced
  in
  let cover_ok =
    List.for_all (fun (dur, gap) -> gap <= (cover_tolerance *. dur) +. cover_slack_ms) uncovered
  in
  List.iter
    (fun o -> Printf.eprintf "MISMATCH %s: got %s, want %s\n" o.key o.got o.want)
    wrong;
  List.iter (fun o -> Printf.eprintf "TRACED DIVERGES %s: %s\n" o.key o.got) diverged;
  if not cover_ok then prerr_endline "trace: unit spans do not cover the unit wall time";
  let failed = List.length (List.filter (fun o -> (not o.ok) || List.memq o diverged) all_outcomes) in
  let attempted = List.length all_outcomes in
  let correct = failed = 0 && cover_ok && attempted > 0 in
  let metrics =
    if not traced_run then begin
      let times = List.map (fun (_, (ms, _)) -> ms) (unit_times passes) in
      [
        ("setup_s", median (List.map (fun p -> p.setup) passes), "s");
        ("wall_s", List.fold_left ( +. ) 0.0 times /. 1000.0, "s");
        ("latency_ms.p50", percentile 0.5 times, "ms");
        ("latency_ms.p90", percentile 0.9 times, "ms");
        ("peak_rss_mb", peak_rss, "MB");
      ]
    end
    else begin
      let per_pass f = median (List.map f traced) in
      let self_of p names =
        List.fold_left (fun a n -> a +. Option.value ~default:0.0 (Hashtbl.find_opt p.self n)) 0.0 names
      in
      let sz_self, sz_counts =
        match sizing with Some (_, self, c, _) -> (self, c) | None -> (Hashtbl.create 1, [])
      in
      let sz_cnt k = Option.value ~default:0.0 (List.assoc_opt k sz_counts) in
      let ratio a b = if b > 0.0 then a /. b else 0.0 in
      let decided p = List.length (List.filter (fun o -> o.decided) p.outcomes) in
      let certified p = List.length (List.filter (fun o -> o.certified) p.outcomes) in
      let untraced_wall = median (List.map (fun p -> p.wall) untraced) in
      List.map (fun (name, spans) -> (name, per_pass (fun p -> self_of p spans), "ms")) ms_layers
      @ List.map (fun (name, unit) -> (name, per_pass (fun p -> pass_count p name), unit)) count_layers
      @ [
          ( "smt.propagations_per_s",
            per_pass (fun p -> ratio (pass_count p "smt.propagations") (self_of p [ "smt.check" ] /. 1000.0)),
            "1/s" );
          ( "smt.minor_words_per_propagation",
            per_pass (fun p -> ratio (pass_count p "smt.minor_words") (pass_count p "smt.propagations")),
            "words" );
          ( "proof.certified_frac",
            per_pass (fun p -> ratio (float_of_int (certified p)) (float_of_int (decided p))),
            "fraction" );
          ("faults.graph_ms", Option.value ~default:0.0 (Hashtbl.find_opt sz_self "faults.graph"), "ms");
          ("faults.smt_ms", Option.value ~default:0.0 (Hashtbl.find_opt sz_self "faults.smt"), "ms");
          ("faults.decided_frac", ratio (sz_cnt "faults.graph_decided") (sz_cnt "faults.cases"), "fraction");
          ( "engine.racers",
            (if workload = "fault-sweep" then float_of_int (List.length MS.Options.portfolio + 1) else 0.0),
            "count" );
          ("engine.race_overhead_ms", sz_cnt "engine.race_overhead_ms", "ms");
          ("trace.overhead_frac", ratio (per_pass (fun p -> p.wall)) untraced_wall -. 1.0, "fraction");
          ( "trace.uncovered_frac",
            List.fold_left (fun m (dur, gap) -> Float.max m (ratio gap dur)) 0.0 uncovered,
            "fraction" );
        ]
    end
  in
  if traced_run then begin
    let all_spans =
      List.concat_map (fun p -> p.spans) traced
      @ match sizing with Some (_, _, _, s) -> s | None -> []
    in
    let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
    write_trace path all_spans;
    Printf.eprintf "trace: %d spans written to %s\n" (List.length all_spans) path
  end;
  (match get "counts" with
   | None -> ()
   | Some path ->
     (* exact counts for the determinism self-check *)
     let first = List.hd passes in
     let tally =
       List.fold_left
         (fun acc o ->
           let n = Option.value ~default:0 (List.assoc_opt o.got acc) in
           (o.got, n + 1) :: List.remove_assoc o.got acc)
         [] first.outcomes
       |> List.sort compare
     in
     let oc = open_out path in
     Printf.fprintf oc "{\"verdict_counts\":{%s},\"verdicts\":{%s}"
       (String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%s:%d" (J.quote k) n) tally))
       (String.concat ","
          (List.map (fun o -> Printf.sprintf "%s:%s" (J.quote o.key) (J.quote o.got)) first.outcomes));
     (match traced with
      | p :: _ ->
        List.iter
          (fun k -> Printf.fprintf oc ",%s:%.17g" (J.quote k) (pass_count p k))
          [ "encode.assertions"; "smt.sat_clauses"; "serve.replayed_frac" ]
      | [] -> ());
     output_string oc "}\n";
     close_out oc);
  Printf.eprintf "%s seed=%d trace=%d: %d units, %d failed; pass set-up+units (s):%s\n" workload seed
    (if traced_run then 1 else 0) attempted failed
    (String.concat ""
       (List.map
          (fun p -> Printf.sprintf " %.3f+%.3f%s" p.setup p.wall (if p.traced then "t" else ""))
          passes));
  if get "verbose" = Some "1" then
    List.iter
      (fun (key, (ms, n)) -> Printf.eprintf "  %-48s median %10.2f ms of %d\n" key ms n)
      (unit_times untraced);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct attempted
    failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (J.quote name) v (J.quote unit))
          metrics));
  exit (if correct then 0 else 1)
