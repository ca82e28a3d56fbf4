(* Benchmark harness regenerating the tables and figures of the paper's
   evaluation (§8) and the gated benches of `make check`.  Each
   sub-benchmark is one entry of [benches] at the end of this file: its
   name, what it measures and which bounds it gates, and a [run] that
   returns the artifact's JSON fields and its gates.  One runner writes
   BENCH_<name>.json with a "gates" array, prints every gate that did
   not pass, and exits 1 if any failed.

   Usage: dune exec bench/main.exe -- [NAME|all] [--full|--smoke] [--resume]
   (an unknown NAME prints the table).  By default the expensive sweeps
   are subsampled so the whole harness finishes in minutes; --full runs
   them at paper scale (the largest fabrics take minutes per query). *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast
module J = Msutil.Json
module R = MS.Verify.Report

let full = ref false
let resume = ref false

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let outcome_str = function MS.Verify.Holds -> "verified" | MS.Verify.Violation _ -> "violated"

(* shims over the Query/Report API for the single-shot outcomes the
   benchmarks time *)
let verify_check enc prop =
  R.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.of_property "query" prop))

let verify_net net opts make =
  let enc = MS.Encode.build net opts in
  R.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.v "query" make))

let query_with_stats enc prop =
  let r = MS.Verify.run_query enc (MS.Verify.Query.of_property "query" prop) in
  (R.to_outcome r, r.R.stats)

let device_names (net : A.network) = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices
let verdict_of (r : R.t) = R.verdict_name r.R.verdict
let verdict_sig rs = List.map (fun (r : R.t) -> (r.R.label, verdict_of r)) rs
let total_ms rs = List.fold_left (fun a (r : R.t) -> a +. r.R.wall_ms) 0.0 rs
let faster (a : R.t) (b : R.t) = if b.R.wall_ms < a.R.wall_ms then b else a

(* Artifact numbers keep the precision the text output shows: two
   decimals for milliseconds, three for ratios. *)
let dec2 x = J.Num (Float.round (x *. 100.0) /. 100.0)
let dec3 x = J.Num (Float.round (x *. 1000.0) /. 1000.0)

let enterprise_json seed routers =
  J.Obj [ ("kind", J.Str "enterprise"); ("seed", J.int seed); ("routers", J.int routers) ]

(* ---------------- gates ---------------- *)

(* A gate is one bound checked on one measured value.  Its outcome is
   data in the artifact's "gates" array, so an artifact says which
   bound it passed and by how much.  A gate is skipped, with the reason
   recorded, where its measurement would be noise: a speedup on fewer
   cores than workers, or a ratio whose baseline is under a timing
   floor. *)
type outcome = Passed | Failed | Skipped of string

type gate = { name : string; value : J.value; bound : string; outcome : outcome }

let gate ?skip name value bound ok =
  let outcome =
    match skip with Some why -> Skipped why | None -> if ok then Passed else Failed
  in
  { name; value; bound; outcome }

let holds name ok = gate name (J.Bool ok) "true" ok

let compare_gate op test ?skip name v limit =
  gate ?skip name (J.Num v) (Printf.sprintf "%s %g" op limit) (test v limit)

let at_least = compare_gate ">=" ( >= )
let above = compare_gate ">" ( > )
let at_most = compare_gate "<=" ( <= )

(* The noise-floor convention of the timing gates: a ratio is signal
   only when its baseline side took at least [floor_ms]. *)
let below_floor ~floor_ms what t =
  if t >= floor_ms then None
  else Some (Printf.sprintf "%s %.1f ms under the %.0f ms floor" what t floor_ms)

(* Gates checked only by the --smoke runs of `make check`; other runs
   record them as skipped. *)
let smoke_only ~smoke gates =
  if smoke then gates
  else List.map (fun g -> { g with outcome = Skipped "gated under --smoke only" }) gates

let gate_json g =
  let outcome =
    match g.outcome with
    | Passed -> [ ("outcome", J.Str "passed") ]
    | Failed -> [ ("outcome", J.Str "failed") ]
    | Skipped why -> [ ("outcome", J.Str "skipped"); ("reason", J.Str why) ]
  in
  J.Obj ([ ("name", J.Str g.name); ("value", g.value); ("bound", J.Str g.bound) ] @ outcome)

let write_artifact name (fields, gates) =
  let file = "BENCH_" ^ name ^ ".json" in
  let doc =
    J.Obj
      ((("schema", J.int R.schema_version) :: ("benchmark", J.Str name) :: fields)
      @ [ ("gates", J.Arr (List.map gate_json gates)) ])
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (J.to_string ~pretty:true doc));
  file

(* ---------------- Figure 7: the enterprise fleet ---------------- *)

(* The four §8.1 checks, each returning (outcome, milliseconds) of
   encoding plus solving. *)
let timed_check net make = time (fun () -> verify_net net MS.Options.default make)

let check_mgmt (t : G.Enterprise.t) =
  let devices = device_names t.G.Enterprise.network in
  let target = List.hd (List.rev devices) in
  let dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  timed_check t.G.Enterprise.network (fun enc -> MS.Property.reachability enc ~sources:devices dest)

let check_equiv (t : G.Enterprise.t) =
  match t.G.Enterprise.rack_role with
  | r1 :: r2 :: _ ->
    Some (timed_check t.G.Enterprise.network (fun enc -> MS.Property.acl_equivalence enc r1 r2))
  | _ -> None

let check_blackholes (t : G.Enterprise.t) =
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  timed_check t.G.Enterprise.network (fun enc -> MS.Property.no_blackholes enc ~allowed ())

(* Fault invariance over day-to-day (host-space) reachability, matching
   the paper's all-router-pairs check; management reachability is the
   separate hijack audit. *)
let check_fault_invariance (t : G.Enterprise.t) =
  let net = t.G.Enterprise.network in
  let devices = device_names net in
  let target, prefix =
    match List.rev t.G.Enterprise.rack_role with
    | r :: _ -> (r, t.G.Enterprise.rack_subnet r)
    | [] ->
      let d = List.hd (List.rev devices) in
      (d, t.G.Enterprise.mgmt_prefix d)
  in
  time (fun () ->
      R.to_outcome
        (MS.Verify.fault_invariant net MS.Options.default ~k:1 ~sources:devices
           (MS.Property.Subnet (target, prefix))))

let summarize name times =
  match times with
  | [] -> ()
  | _ ->
    let n = List.length times in
    let total = List.fold_left ( +. ) 0.0 times in
    let sorted = List.sort compare times in
    Printf.printf
      "  %-28s n=%-4d min=%8.1f ms  median=%8.1f ms  max=%8.1f ms  mean=%8.1f ms\n%!" name n
      (List.nth sorted 0)
      (List.nth sorted (n / 2))
      (List.nth sorted (n - 1))
      (total /. float_of_int n)

let fleet_sample () =
  let fleet = G.Enterprise.fleet () in
  if !full then fleet else List.filteri (fun i _ -> i mod 4 = 0) fleet

let fig7 () =
  print_endline "== Figure 7: per-network verification time, enterprise fleet ==";
  print_endline "   (rows sorted by configuration size, as in the paper)";
  Printf.printf "   %-4s %-6s %12s %12s %12s\n%!" "rtrs" "lines" "mgmt-reach" "local-equiv"
    "blackholes";
  let nets = fleet_sample () in
  let m_times = ref [] and e_times = ref [] and b_times = ref [] and f_times = ref [] in
  List.iter
    (fun (t : G.Enterprise.t) ->
      let lines = Config.Printer.network_config_lines t.G.Enterprise.network in
      let routers = List.length t.G.Enterprise.network.A.net_devices in
      let _, mt = check_mgmt t in
      m_times := mt :: !m_times;
      let et =
        match check_equiv t with
        | Some (_, et) ->
          e_times := et :: !e_times;
          Printf.sprintf "%10.1f" et
        | None -> "         -"
      in
      let _, bt = check_blackholes t in
      b_times := bt :: !b_times;
      Printf.printf "   %-4d %-6d %10.1f %12s %10.1f\n%!" routers lines mt et bt)
    (List.sort
       (fun a b ->
         compare
           (Config.Printer.network_config_lines a.G.Enterprise.network)
           (Config.Printer.network_config_lines b.G.Enterprise.network))
       nets);
  (* fault-invariance doubles the encoding; sample it *)
  let fi_nets = List.filteri (fun i _ -> i mod 2 = 0) nets in
  List.iter
    (fun t ->
      let _, ft = check_fault_invariance t in
      f_times := ft :: !f_times)
    fi_nets;
  print_endline
    "  -- summary (paper, 2-25 rtr networks: 2-60ms reach, 5-400ms equiv, <1.5s others) --";
  summarize "management reachability" !m_times;
  summarize "local equivalence" !e_times;
  summarize "no blackholes" !b_times;
  summarize "fault invariance" !f_times

(* ---------------- §8.1 violation counts ---------------- *)

let violations () =
  print_endline
    "== Violations across the 152-network fleet (paper: 67 / 29 / 24 / 0; fleet adds 16 \
     injected single-homed racks) ==";
  let fleet = G.Enterprise.fleet () in
  let hijacks = ref 0 and equivs = ref 0 and holes = ref 0 and fault = ref 0 in
  let checked_fi = ref 0 in
  List.iteri
    (fun i (t : G.Enterprise.t) ->
      (match fst (check_mgmt t) with MS.Verify.Violation _ -> incr hijacks | MS.Verify.Holds -> ());
      (match check_equiv t with
       | Some (MS.Verify.Violation _, _) -> incr equivs
       | Some (MS.Verify.Holds, _) | None -> ());
      (match fst (check_blackholes t) with
       | MS.Verify.Violation _ -> incr holes
       | MS.Verify.Holds -> ());
      if !full || i mod 8 = 0 then begin
        incr checked_fi;
        match fst (check_fault_invariance t) with
        | MS.Verify.Violation _ -> incr fault
        | MS.Verify.Holds -> ()
      end;
      if i mod 19 = 18 then Printf.printf "  ... %d/152 networks audited\n%!" (i + 1))
    fleet;
  Printf.printf "  management-interface hijacks : %d (paper: 67)\n" !hijacks;
  Printf.printf "  local-equivalence violations : %d (paper: 29)\n" !equivs;
  Printf.printf "  blackhole violations         : %d (paper: 24)\n" !holes;
  Printf.printf
    "  fault-invariance violations  : %d of %d checked (fleet injects 16 single-homed racks; \
     paper found 0)\n%!"
    !fault !checked_fi

(* ---------------- Figure 8: folded-Clos sweep ---------------- *)

let fig8_one pods =
  let ft = G.Fattree.make ~pods in
  let net = ft.G.Fattree.network in
  let n = List.length net.A.net_devices in
  Printf.printf "  -- %d pods (%d routers) --\n%!" pods n;
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  (* ToRs of one pod other than the destination's, for the equal-length query *)
  let other_pod_tors =
    List.filter
      (fun t ->
        match String.split_on_char '_' t with
        | [ _; p; _ ] -> p = "1"
        | _ -> false)
      ft.G.Fattree.tors
  in
  let run name prop =
    let o, ms = timed_check net prop in
    Printf.printf "     %-28s %-9s %10.1f ms\n%!" name (outcome_str o) ms
  in
  run "no blackholes" (fun enc -> MS.Property.no_blackholes enc ~allowed:ft.G.Fattree.cores ());
  run "multipath consistency" (fun enc -> MS.Property.multipath_consistency enc dest);
  (match ft.G.Fattree.cores with
   | c1 :: c2 :: _ ->
     run "local consistency (spines)" (fun enc -> MS.Property.local_equivalence enc c1 c2)
   | _ -> ());
  run "single-ToR reachability" (fun enc ->
      MS.Property.reachability enc ~sources:[ List.hd other_tors ] dest);
  run "all-ToR reachability" (fun enc -> MS.Property.reachability enc ~sources:other_tors dest);
  run "single-ToR bounded length" (fun enc ->
      MS.Property.bounded_length enc ~sources:[ List.hd other_tors ] dest ~bound:4);
  run "all-ToR bounded length" (fun enc ->
      MS.Property.bounded_length enc ~sources:other_tors dest ~bound:4);
  match other_pod_tors with
  | _ :: _ :: _ ->
    run "equal length (one pod)" (fun enc ->
        MS.Property.equal_lengths enc ~sources:other_pod_tors dest)
  | _ -> ()

let fig8 () =
  print_endline "== Figure 8: property verification time vs fabric size ==";
  let sizes = if !full then [ 2; 4; 6; 8; 10 ] else [ 2; 4; 6 ] in
  print_endline
    (if !full then
       "   (pods 2-10, i.e. 5-125 routers; the paper runs 2-18 pods on Z3 - same shape, reduced scale)"
     else "   (pods 2-6, i.e. 5-45 routers, by default; pass --full for pods 8-10)");
  List.iter fig8_one sizes

(* ---------------- §8.3 optimization ablation ---------------- *)

let opts_bench () =
  print_endline "== \xc2\xa78.3: optimization effectiveness (single-source reachability) ==";
  let scenarios =
    [
      ("fattree pods=2 (5 rtrs)", (G.Fattree.make ~pods:2).G.Fattree.network, "tor_0_0", "tor_1_0");
      ("fattree pods=4 (20 rtrs)", (G.Fattree.make ~pods:4).G.Fattree.network, "tor_0_0", "tor_1_0");
    ]
  in
  let variants =
    [
      ("naive (bit-vector prefixes)", MS.Options.naive);
      ("+ prefix hoisting", { MS.Options.naive with MS.Options.hoist_prefixes = true });
      ("+ slicing and merging", MS.Options.default);
    ]
  in
  List.iter
    (fun (name, net, src, dst_tor) ->
      Printf.printf "  -- %s --\n%!" name;
      let dst_prefix =
        match String.split_on_char '_' dst_tor with
        | [ _; p; i ] ->
          Net.Prefix.make (Net.Ipv4.of_octets 10 (int_of_string p) (int_of_string i) 0) 24
        | _ -> assert false
      in
      let baseline = ref None in
      List.iter
        (fun (vname, opts) ->
          let o, ms =
            time (fun () ->
                let enc = MS.Encode.build net opts in
                verify_check enc
                  (MS.Property.reachability enc ~sources:[ src ]
                     (MS.Property.Subnet (dst_tor, dst_prefix))))
          in
          let speedup =
            match !baseline with
            | None ->
              baseline := Some ms;
              ""
            | Some b -> Printf.sprintf "  (%.1fx vs naive)" (b /. ms)
          in
          Printf.printf "     %-30s %-9s %10.1f ms%s\n%!" vname (outcome_str o) ms speedup)
        variants)
    scenarios;
  print_endline "  (paper: hoisting ~200x on average, slicing a further ~2.3x, up to 460x total)"

(* ---------------- incremental batch verification ---------------- *)

(* The fig7 §8.1 suite over one enterprise network, as labelled query
   builders sharing an encoding (fault invariance is excluded: its
   two-copy encoding cannot share a session). *)
let batch_suite (t : G.Enterprise.t) =
  let devices = device_names t.G.Enterprise.network in
  let target = List.hd (List.rev devices) in
  let mgmt_dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  let equiv =
    match t.G.Enterprise.rack_role with
    | r1 :: r2 :: _ -> [ ("acl-equivalence", fun enc -> MS.Property.acl_equivalence enc r1 r2) ]
    | _ -> []
  in
  [
    ("mgmt-reachability", fun enc -> MS.Property.reachability enc ~sources:devices mgmt_dest);
    ("no-blackholes", fun enc -> MS.Property.no_blackholes enc ~allowed ());
    ("no-loops", fun enc -> MS.Property.no_loops enc ());
  ]
  @ equiv

let batch ~smoke =
  print_endline "== batch verification: one incremental session vs N fresh solvers ==";
  let routers = if smoke then 8 else if !full then 24 else 12 in
  let seed = 3 in
  let t = G.Enterprise.make ~seed ~routers ~inject:G.Enterprise.no_bugs () in
  let net = t.G.Enterprise.network in
  let opts = MS.Options.default in
  let suite = batch_suite t in
  let n = List.length suite in
  Printf.printf "   enterprise seed=%d routers=%d, %d-property suite (fig7)\n%!" seed routers n;
  (* Baseline: each query pays for its own encoding and its own solver,
     exactly what N independent fresh-solver run_query calls do. *)
  let baseline =
    List.map
      (fun (name, make) ->
        let o, ms = time (fun () -> verify_net net opts make) in
        Printf.printf "   fresh    %-20s %-9s %10.1f ms\n%!" name (outcome_str o) ms;
        (name, o, ms))
      suite
  in
  (* Session: encode and assert the network once, then check each
     property under a fresh activation literal on the same solver. *)
  let session, setup_ms = time (fun () -> MS.Verify.Session.create net opts) in
  Printf.printf "   session  %-20s %20.1f ms\n%!" "(encode + assert)" setup_ms;
  let reports =
    MS.Verify.Session.run session
      (List.map (fun (name, make) -> MS.Verify.Query.v name make) suite)
  in
  List.iter
    (fun (r : R.t) ->
      Printf.printf "   session  %-20s %-9s %10.1f ms\n%!" r.R.label (verdict_of r) r.R.wall_ms)
    reports;
  let baseline_total = List.fold_left (fun a (_, _, ms) -> a +. ms) 0.0 baseline in
  let session_total = setup_ms +. total_ms reports in
  let speedup = baseline_total /. session_total in
  let agree = List.for_all2 (fun (_, o, _) r -> outcome_str o = verdict_of r) baseline reports in
  let st = MS.Verify.Session.stats session in
  Printf.printf
    "   baseline %.1f ms | session %.1f ms (setup %.1f) | speedup %.2fx | amortized %.1f \
     ms/query\n%!"
    baseline_total session_total setup_ms speedup (session_total /. float_of_int n);
  Printf.printf "   session solver: %d conflicts, %d learned clauses, %d restarts over %d checks\n%!"
    st.Smt.Solver.conflicts st.Smt.Solver.learned_clauses st.Smt.Solver.restarts
    st.Smt.Solver.checks;
  ( [
      ("network", enterprise_json seed routers);
      (* the session side is Report.json, the renderer behind
         `verify --format json`, so the schemas agree *)
      ( "queries",
        J.Arr
          (List.map2
             (fun (name, o, ms) r ->
               J.Obj
                 [ ("name", J.Str name); ("fresh_verdict", J.Str (outcome_str o));
                   ("fresh_ms", dec2 ms); ("session", R.json r) ])
             baseline reports) );
      ("session_setup_ms", dec2 setup_ms);
      ("baseline_total_ms", dec2 baseline_total);
      ("session_total_ms", dec2 session_total);
      ("amortized_ms_per_query", dec2 (session_total /. float_of_int n));
      ("speedup", dec3 speedup);
      ("learned_clauses", J.int st.Smt.Solver.learned_clauses);
      ("restarts", J.int st.Smt.Solver.restarts);
      ("verdicts_agree", J.Bool agree);
    ],
    smoke_only ~smoke
      [ holds "verdicts_agree" agree; above "session_vs_fresh_speedup" speedup 1.0 ] )

(* ---------------- parallel verification (process pool) ---------------- *)

(* The fig7 suite plus a per-destination all-pairs fan-out over one
   enterprise network: enough independent queries for sharding to
   matter.  Verdict agreement with the in-process sequential session is
   gated in every run; the speedup of -jN only where the machine
   exposes N cores, because a fork pool cannot beat sequential on fewer
   cores than workers. *)
let parallel ~smoke =
  print_endline "== parallel verification: process-pool sharding of the fig7 suite ==";
  let cores = Engine.available_cores () in
  let routers = if smoke then 10 else if !full then 20 else 14 in
  let seed = 3 in
  let t = G.Enterprise.make ~seed ~routers ~inject:G.Enterprise.no_bugs () in
  let enc = MS.Encode.build t.G.Enterprise.network MS.Options.default in
  let all_pairs =
    MS.Verify.Protocol.queries_of_spec enc
      { MS.Verify.Protocol.default_spec with MS.Verify.Protocol.property = "all-pairs" }
  in
  let queries =
    List.map (fun (name, make) -> MS.Verify.Query.v name make) (batch_suite t)
    @ Result.get_ok all_pairs
  in
  let n = List.length queries in
  Printf.printf "   enterprise seed=%d routers=%d: %d queries, %d core(s) visible\n%!" seed
    routers n cores;
  let seq_reports, seq_ms = time (fun () -> Engine.run ~jobs:1 enc queries) in
  Printf.printf "   -j1 (in-process)  %10.1f ms\n%!" seq_ms;
  let runs =
    List.map
      (fun jobs ->
        let reports, ms = time (fun () -> Engine.run ~jobs enc queries) in
        Printf.printf "   -j%-2d              %10.1f ms  speedup %5.2fx\n%!" jobs ms (seq_ms /. ms);
        (jobs, ms, verdict_sig reports = verdict_sig seq_reports))
      (if smoke then [ 2 ] else [ 2; 4 ])
  in
  let target = if smoke then 1.3 else 2.0 in
  ( [
      ("network", enterprise_json seed routers);
      ("cores", J.int cores);
      ("queries", J.int n);
      ("sequential_ms", dec2 seq_ms);
      ( "runs",
        J.Arr
          (List.map
             (fun (jobs, ms, agree) ->
               J.Obj
                 [ ("jobs", J.int jobs); ("ms", dec2 ms); ("speedup", dec3 (seq_ms /. ms));
                   ("verdicts_agree", J.Bool agree) ])
             runs) );
      ("reports", J.Arr (List.map R.json seq_reports));
    ],
    holds "verdicts_agree" (List.for_all (fun (_, _, agree) -> agree) runs)
    :: List.map
         (fun (jobs, ms, _) ->
           let skip =
             if cores >= jobs then None
             else Some (Printf.sprintf "skipped_low_cores: %d core(s) for %d jobs" cores jobs)
           in
           at_least ?skip (Printf.sprintf "speedup_j%d" jobs) (seq_ms /. ms) target)
         runs )

(* ---------------- solver-throughput ablation ---------------- *)

(* The fattree property suite as labelled query builders (the fig8
   checks that share one encoding). *)
let fattree_suite (ft : G.Fattree.t) =
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  [
    ( "single-tor-reachability",
      fun enc -> MS.Property.reachability enc ~sources:[ List.hd other_tors ] dest );
    ("all-tor-reachability", fun enc -> MS.Property.reachability enc ~sources:other_tors dest);
    ( "bounded-length",
      fun enc -> MS.Property.bounded_length enc ~sources:other_tors dest ~bound:4 );
    ("multipath-consistency", fun enc -> MS.Property.multipath_consistency enc dest);
    ("no-blackholes", fun enc -> MS.Property.no_blackholes enc ~allowed:ft.G.Fattree.cores ())
  ]

(* The enterprise and fattree suites the solver and certify benches
   answer ([ft_extra] adds queries to the fattree one), with the
   artifact's description of the two networks. *)
let suite_nets ~smoke ~ft_extra =
  let seed = 3 and routers = if smoke then 8 else if !full then 16 else 12 in
  let pods = if smoke then 2 else 4 in
  let ent = G.Enterprise.make ~seed ~routers ~inject:G.Enterprise.no_bugs () in
  let ft = G.Fattree.make ~pods in
  let nets =
    [
      ("ent", ent.G.Enterprise.network, batch_suite ent);
      ("ft", ft.G.Fattree.network, fattree_suite ft @ ft_extra ft);
    ]
  in
  Printf.printf "   enterprise seed=%d routers=%d + fattree pods=%d: %d queries per pass\n%!"
    seed routers pods
    (List.fold_left (fun a (_, _, qs) -> a + List.length qs) 0 nets);
  ( J.Obj
      [
        ("enterprise", J.Obj [ ("seed", J.int seed); ("routers", J.int routers) ]);
        ("fattree", J.Obj [ ("pods", J.int pods) ]);
      ],
    nets )

(* Every query of [nets] on a fresh single-shot solver, in two passes.
   The search is deterministic per configuration, so both passes do
   identical solver work: the per-query minimum wall time filters
   scheduler/GC noise without changing what is measured. *)
let min_of_two_passes nets opts =
  let pass () =
    List.concat_map
      (fun (nname, net, suite) ->
        let enc = MS.Encode.build net opts in
        List.map
          (fun (qname, make) ->
            MS.Verify.run_query enc (MS.Verify.Query.v (nname ^ ":" ^ qname) make))
          suite)
      nets
  in
  let first = pass () in
  List.map2 faster first (pass ())

(* Ablation of the four solver-throughput fronts: every query of the
   enterprise + fattree suites is answered on a fresh single-shot
   solver under six feature configurations (all off, each front alone,
   all on).  Verdicts must agree everywhere — the fronts only change
   how fast the search converges — and the JSON records per-front
   speedups plus the decisions-per-conflict ratio on the hardest query
   (how much blind walking over don't-care variables each front
   eliminates). *)
let solver_bench ~smoke =
  print_endline "== solver throughput: four-front ablation (fresh solver per query) ==";
  let networks, nets = suite_nets ~smoke ~ft_extra:(fun _ -> []) in
  let run name opts =
    let reports = min_of_two_passes nets opts in
    Printf.printf "   %-12s %10.1f ms total (min over 2 passes)\n%!" name (total_ms reports);
    (name, total_ms reports, reports)
  in
  let off = Smt.Solver.no_features in
  let results =
    List.map
      (fun (name, feats) -> run name (MS.Options.with_features feats MS.Options.default))
      [
        ("all-off", off);
        ("pg-cnf", { off with Smt.Solver.pg_cnf = true });
        ("preprocess", { off with Smt.Solver.preprocess = true });
        ("theory-prop", { off with Smt.Solver.theory_prop = true });
        ("lbd", { off with Smt.Solver.lbd = true });
        ("all-on", Smt.Solver.default_features);
      ]
  in
  let _, off_total, off_reports = List.hd results in
  let _, on_total, on_reports = List.hd (List.rev results) in
  let base_verdicts = verdict_sig off_reports in
  let agree = List.for_all (fun (_, _, rs) -> verdict_sig rs = base_verdicts) results in
  (* Restart-mode / rephasing grid: the same suites under the four
     corners of {Luby, Ema_lbd} x {rephase off, rephase on}, with the
     production feature set.  Any strategy is sound and complete, so
     the verdicts must agree; the wall totals and the scheduler
     counters (adaptive restarts, blocked restarts, rephases) show what
     each scheduler actually did on these instances. *)
  let d = Smt.Solver.default_strategy in
  let strat_results =
    List.map
      (fun (name, strategy) ->
        let _, total, reports = run name (MS.Options.with_strategy strategy MS.Options.default) in
        let sum f = List.fold_left (fun a (r : R.t) -> a + f r.R.stats) 0 reports in
        let counts =
          [
            ("restarts", sum (fun st -> st.Smt.Solver.restarts));
            ("ema_restarts", sum (fun st -> st.Smt.Solver.ema_restarts));
            ("blocked_restarts", sum (fun st -> st.Smt.Solver.blocked_restarts));
            ("rephases", sum (fun st -> st.Smt.Solver.rephases));
          ]
        in
        Printf.printf "   %-12s %s\n%!" ""
          (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) counts));
        (name, total, reports, counts))
      [
        ("luby", d);
        ("luby+rephase", { d with Smt.Solver.rephase = true });
        ("ema", { d with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd });
        ("ema+rephase", { d with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd; rephase = true });
      ]
  in
  let strat_agree =
    List.for_all (fun (_, _, rs, _) -> verdict_sig rs = base_verdicts) strat_results
  in
  let _, luby_total, _, _ = List.hd strat_results in
  (* hardest query under the baseline configuration *)
  let hlabel =
    (List.fold_left
       (fun (a : R.t) (b : R.t) -> if b.R.wall_ms > a.R.wall_ms then b else a)
       (List.hd off_reports) off_reports)
      .R.label
  in
  let hardest rs = List.find (fun (r : R.t) -> r.R.label = hlabel) rs in
  let dpc rs = R.decisions_per_conflict (hardest rs).R.stats in
  List.iter
    (fun (name, total, rs) ->
      if name <> "all-off" then
        Printf.printf "   %-12s speedup %5.2fx vs all-off  (hardest query %s: %.1f dec/cfl)\n%!"
          name (off_total /. total) hlabel (dpc rs))
    results;
  let hardest_off_ms = (hardest off_reports).R.wall_ms in
  let hardest_on_ms = (hardest on_reports).R.wall_ms in
  ( [
      ("networks", networks);
      ( "configs",
        J.Arr
          (List.map
             (fun (name, total, rs) ->
               J.Obj
                 [ ("name", J.Str name); ("total_ms", dec2 total);
                   ("speedup_vs_all_off", dec3 (off_total /. total));
                   ("reports", J.Arr (List.map R.json rs)) ])
             results) );
      ( "strategies",
        J.Arr
          (List.map
             (fun (name, total, _, counts) ->
               J.Obj
                 ([ ("name", J.Str name); ("total_ms", dec2 total);
                    ("speedup_vs_luby", dec3 (luby_total /. total)) ]
                 @ List.map (fun (k, n) -> (k, J.int n)) counts))
             strat_results) );
      ("strategy_verdicts_agree", J.Bool strat_agree);
      ( "hardest_query",
        J.Obj
          [
            ("label", J.Str hlabel);
            ("all_off_ms", dec2 hardest_off_ms);
            ("all_on_ms", dec2 hardest_on_ms);
            ("all_on_speedup", dec3 (hardest_off_ms /. hardest_on_ms));
            ( "decisions_per_conflict",
              J.Obj (List.map (fun (name, _, rs) -> (name, dec2 (dpc rs))) results) );
          ] );
      ("all_off_total_ms", dec2 off_total);
      ("all_on_total_ms", dec2 on_total);
      ("all_on_speedup", dec3 (off_total /. on_total));
      ("verdicts_agree", J.Bool agree);
    ],
    (* the 2x hardest-query floor is gated by bench arena, which runs
       that query at a size where the ratio is meaningful *)
    smoke_only ~smoke
      [
        holds "feature_verdicts_agree" agree;
        holds "strategy_verdicts_agree" strat_agree;
        at_least
          ?skip:(below_floor ~floor_ms:300.0 "all-off baseline" off_total)
          "all_on_speedup" (off_total /. on_total) 1.1;
      ] )

(* ---------------- certification overhead ---------------- *)

(* Certified verdicts: every query of the enterprise + fattree suites
   answered twice — plain, then with [Options.certify] so UNSAT
   verdicts replay their DRAT-style trace through the independent
   checker and SAT verdicts are model-evaluated and replayed through
   the concrete simulator.  A deliberately-violated isolation query
   guarantees the SAT side is exercised even when both suites hold. *)
let certify_bench ~smoke =
  print_endline "== certified verdicts: independent-checker overhead and proof sizes ==";
  let networks, nets =
    suite_nets ~smoke ~ft_extra:(fun ft ->
        (* isolating a ToR that can reach the destination is false, so
           this query yields a model whose counterexample must replay
           cleanly *)
        match ft.G.Fattree.tors with
        | dst :: src :: _ ->
          let dest = MS.Property.Subnet (dst, ft.G.Fattree.tor_subnet dst) in
          [ ("isolation-should-fail", fun enc -> MS.Property.isolation enc ~sources:[ src ] dest) ]
        | _ -> [])
  in
  let base = min_of_two_passes nets MS.Options.default in
  let cert = min_of_two_passes nets (MS.Options.with_certify MS.Options.default) in
  let proofs = ref 0 and models = ref 0 and uncert = ref 0 and failed = ref 0 in
  List.iter2
    (fun (b : R.t) (c : R.t) ->
      let detail =
        match c.R.certificate with
        | R.Checked_unsat_proof { trace_steps; clauses; lemmas } ->
          incr proofs;
          Printf.sprintf "proof: %d steps, %d clauses, %d lemmas" trace_steps clauses lemmas
        | R.Checked_model ->
          incr models;
          "model evaluated + replayed"
        | R.Uncertified ->
          incr uncert;
          "UNCERTIFIED"
        | R.Certification_failed msg ->
          incr failed;
          "FAILED: " ^ msg
      in
      Printf.printf "   %-28s %-9s %8.1f -> %8.1f ms  (%s)\n%!" c.R.label (verdict_of c)
        b.R.wall_ms c.R.wall_ms detail)
    base cert;
  let base_total = total_ms base and cert_total = total_ms cert in
  let overhead = cert_total /. base_total in
  let agree = verdict_sig base = verdict_sig cert in
  Printf.printf
    "   plain %.1f ms | certified %.1f ms | overhead %.2fx | %d proofs checked, %d models \
     replayed\n%!"
    base_total cert_total overhead !proofs !models;
  ( [
      ("networks", networks);
      (* the certified side is Report.json, which renders the
         certificate object: the schema of `verify --format json` *)
      ( "queries",
        J.Arr
          (List.map2
             (fun (b : R.t) (c : R.t) ->
               J.Obj
                 [ ("name", J.Str c.R.label); ("plain_ms", dec2 b.R.wall_ms);
                   ("certified", R.json c) ])
             base cert) );
      ("plain_total_ms", dec2 base_total);
      ("certified_total_ms", dec2 cert_total);
      ("overhead", dec3 overhead);
      ("unsat_proofs_checked", J.int !proofs);
      ("models_replayed", J.int !models);
      ("uncertified", J.int !uncert);
      ("certification_failures", J.int !failed);
      ("verdicts_agree", J.Bool agree);
    ],
    [
      holds "verdicts_agree" agree;
      at_most "uncertified" (float_of_int !uncert) 0.0;
      at_most "certification_failures" (float_of_int !failed) 0.0;
      at_least "unsat_proofs_checked" (float_of_int !proofs) 1.0;
      at_least "models_replayed" (float_of_int !models) 1.0;
      at_most
        ?skip:(below_floor ~floor_ms:300.0 "plain pass" base_total)
        "certify_overhead" overhead 2.0;
    ] )

(* ---------------- symmetry-reduction scale sweep ---------------- *)

(* The paper-scale fat-tree curve (pods 2-18, 5-405 routers): the
   all-ToR reachability query set — every ToR must reach each of two
   pinned destination ToR subnets — answered on the symmetry quotient
   (one pinned encoding per destination, sources projected through the
   class map) and on the full encoding, where one incremental session
   per pod size encodes once and answers the whole set: the second
   query rides the first query's learnt clauses instead of re-earning
   them, which is the batch bench's warm-session win carried to paper
   scale.

   The quotient points run at every size; the full encoding gets a
   wall-clock budget, and once one point blows it the remaining full
   points are recorded as skipped_off_budget, so a missing number is a
   recorded decision, not a silent gap.  Under --full every completed
   point is checkpointed to BENCH_scale.rows.jsonl (and BENCH_scale.json
   is rewritten) as it finishes; --resume restores checkpointed points,
   so a multi-hour sweep killed at pods=14 does not re-earn pods=10.

   The quotient-vs-full ratio is a speedup only where the quotient
   actually collapsed devices; at pods=2 a pinned destination leaves
   every class a singleton, the quotient is pure bookkeeping, and the
   ratio is recorded as "overhead" instead of pretending 0.86x is a
   win. *)

let scale_ckpt_file = "BENCH_scale.rows.jsonl"

(* The field of a scale row at [path].  The gates read only the rows,
   so a checkpointed row restores everything a resumed run needs. *)
let row_get row path f =
  Option.bind (List.fold_left (fun v k -> Option.bind v (J.member k)) (Some row) path) f

let row_num row path = Option.value ~default:0.0 (row_get row path J.get_float)
let row_true row path = row_get row path J.get_bool = Some true
let has_off row = row_get row [ "ratio" ] J.get_float <> None

(* The artifact of the rows completed so far.  Gates: verdict
   agreement on every point (quotient vs full, Ema_lbd vs Luby on the
   quotient), and a quotient speedup at the largest point where both
   modes completed and the reduction is real, above a noise floor;
   --smoke also gates a fresh Luby solve on the full encoding agreeing
   with the session's adaptive-restart verdict. *)
let scale_result ~smoke ~off_budget_ms ~luby_agree rows =
  let last p = List.fold_left (fun acc r -> if p r then Some r else acc) None rows in
  let reduced r =
    row_num r [ "symmetry_on"; "classes" ] > 0.0
    && row_num r [ "symmetry_on"; "devices_encoded" ] < row_num r [ "routers" ]
  in
  let agree =
    List.for_all
      (fun r -> row_true r [ "agreement"; "quotient_vs_full" ] && row_true r [ "agreement"; "ema_vs_luby" ])
      rows
  in
  let speedup_gate =
    match last (fun r -> has_off r && reduced r) with
    | Some r ->
      at_least
        ?skip:(below_floor ~floor_ms:300.0 "full encoding" (row_num r [ "symmetry_off"; "total_ms" ]))
        "quotient_speedup" (row_num r [ "ratio" ]) 2.0
    | None ->
      gate ~skip:"no completed point with a real reduction" "quotient_speedup" J.Null ">= 2" true
  in
  ( [ ("off_budget_ms", J.Num off_budget_ms); ("queries_per_point", J.int 2); ("sizes", J.Arr rows) ]
    @ (match last has_off with
       | Some r ->
         [
           ("largest_both_modes_pods", J.Num (row_num r [ "pods" ]));
           ( Option.value ~default:"ratio" (row_get r [ "ratio_kind" ] J.get_string) ^ "_at_largest_both",
             dec3 (row_num r [ "ratio" ]) );
         ]
       | None -> [])
    @ [ ("verdicts_agree", J.Bool agree) ],
    [ holds "verdicts_agree" agree; speedup_gate ]
    @ smoke_only ~smoke [ holds "luby_agrees_on_full_encoding" luby_agree ] )

let scale ~smoke =
  print_endline "== symmetry reduction: quotient vs full encoding across fabric sizes ==";
  let sizes = if smoke then [ 2; 6 ] else [ 2; 6; 10; 14; 18 ] in
  (* The arena core's propagation throughput moved the full-encoding
     frontier: the budget is raised from the pre-arena 300 s so points
     that newly complete get recorded instead of skipped. *)
  let off_budget_ms = if smoke then 20_000.0 else 600_000.0 in
  let checkpointing = not smoke in
  let prior =
    if !resume && checkpointing && Sys.file_exists scale_ckpt_file then
      In_channel.with_open_text scale_ckpt_file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun line -> Result.to_option (J.parse line))
    else []
  in
  if checkpointing && not !resume then (try Sys.remove scale_ckpt_file with Sys_error _ -> ());
  Printf.printf "   pods %s; full-encoding budget %.0f s per point; 2 queries per point%s\n%!"
    (String.concat "," (List.map string_of_int sizes))
    (off_budget_ms /. 1000.0)
    (if prior <> [] then
       Printf.sprintf "; resuming past %d checkpointed point(s)" (List.length prior)
     else "");
  (* once one full-mode point blows the budget, the larger ones are
     skipped *)
  let off_exhausted =
    ref
      (List.exists
         (fun r ->
           row_get r [ "symmetry_off"; "status" ] J.get_string <> Some "ok"
           || row_num r [ "symmetry_off"; "total_ms" ] > off_budget_ms)
         prior)
  in
  let luby_agree = ref true in
  let measure pods =
    let ft = G.Fattree.make ~pods in
    let net = ft.G.Fattree.network in
    let routers = List.length net.A.net_devices in
    let tors = ft.G.Fattree.tors in
    (* the all-ToR query set: every ToR reaches each of two pinned
       destination ToR subnets (every fat-tree, pods >= 2, has >= 2
       ToRs) *)
    let dsts = [ List.nth tors 0; List.nth tors 1 ] in
    let dst0 = List.hd dsts in
    let reach enc srcs dst =
      MS.Property.reachability enc ~sources:srcs (MS.Property.Subnet (dst, ft.G.Fattree.tor_subnet dst))
    in
    let srcs_of dst = List.filter (fun t -> t <> dst) tors in
    let pps solve_ms props =
      if solve_ms <= 0.0 then 0.0 else float_of_int props /. (solve_ms /. 1000.0)
    in
    let agg = function
      | [] -> "mixed"
      | (_, v) :: tl -> if List.for_all (fun (_, v') -> v' = v) tl then v else "mixed"
    in
    (* -- quotient side: one pinned encoding per destination -- *)
    let on_opts = MS.Options.with_symmetry MS.Options.default in
    let on_q =
      List.map
        (fun dst ->
          let enc, enc_ms = time (fun () -> MS.Encode.build ~pins:[ dst ] net on_opts) in
          let srcs = MS.Encode.project_devices enc (srcs_of dst) in
          let (o, st), solve_ms = time (fun () -> query_with_stats enc (reach enc srcs dst)) in
          (dst, enc, enc_ms, solve_ms, outcome_str o, st.Smt.Solver.propagations))
        dsts
    in
    let sum f = List.fold_left (fun a q -> a +. f q) 0.0 on_q in
    let on_encode_ms = sum (fun (_, _, e, _, _, _) -> e) in
    let on_solve_ms = sum (fun (_, _, _, s, _, _) -> s) in
    let on_total = on_encode_ms +. on_solve_ms in
    let on_pps = pps on_solve_ms (int_of_float (sum (fun (_, _, _, _, _, p) -> float_of_int p))) in
    let enc_on0 = match on_q with (_, e, _, _, _, _) :: _ -> e | [] -> assert false in
    let q_devices = List.length (MS.Encode.devices enc_on0) in
    let classes = List.length (MS.Encode.sym_classes enc_on0) in
    let reduced = classes > 0 && q_devices < routers in
    let on_verdicts = List.map (fun (dst, _, _, _, v, _) -> (dst, v)) on_q in
    Printf.printf
      "   pods=%-2d (%3d rtrs)  quotient %3d devices, %d classes  %-9s %10.1f ms  %.2e props/s\n%!"
      pods routers q_devices classes (agg on_verdicts) on_total on_pps;
    (* restart-mode agreement on this point's quotient instance: the
       strategy is baked into the encoding options, so each mode gets a
       fresh pinned encoding of the same query *)
    let quotient_verdict_under strategy =
      let enc = MS.Encode.build ~pins:[ dst0 ] net (MS.Options.with_strategy strategy on_opts) in
      outcome_str (verify_check enc (reach enc (MS.Encode.project_devices enc (srcs_of dst0)) dst0))
    in
    let dstrat = Smt.Solver.default_strategy in
    let v_luby = quotient_verdict_under dstrat in
    let v_ema =
      quotient_verdict_under { dstrat with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd }
    in
    let modes_agree = v_luby = v_ema && v_luby = List.assoc dst0 on_verdicts in
    if not modes_agree then
      Printf.printf "   pods=%-2d !! quotient cross-checks diverge (luby %s, ema %s)\n%!" pods
        v_luby v_ema;
    (* -- full side: one incremental session answers the whole set,
       unless an earlier point blew the budget -- *)
    let off_fields, full_agree =
      if !off_exhausted then begin
        Printf.printf
          "   pods=%-2d (%3d rtrs)  full      skipped_off_budget (an earlier point blew \
           the %.0f s budget)\n%!"
          pods routers (off_budget_ms /. 1000.0);
        ([ ("symmetry_off", J.Obj [ ("status", J.Str "skipped_off_budget") ]) ], true)
      end
      else begin
        let enc_off, off_encode_ms = time (fun () -> MS.Encode.build net MS.Options.default) in
        let session = MS.Verify.Session.of_encoding enc_off in
        let reports =
          List.map
            (fun dst ->
              MS.Verify.Session.run_one session
                (MS.Verify.Query.v ("all-tor->" ^ dst) (fun enc -> reach enc (srcs_of dst) dst)))
            dsts
        in
        let cold = (List.hd reports).R.wall_ms and warm = total_ms (List.tl reports) in
        let off_total = off_encode_ms +. cold +. warm in
        if off_total > off_budget_ms then off_exhausted := true;
        let off_props =
          List.fold_left (fun a (r : R.t) -> a + r.R.stats.Smt.Solver.propagations) 0 reports
        in
        let off_pps = pps (cold +. warm) off_props in
        let off_verdicts = List.map2 (fun dst r -> (dst, verdict_of r)) dsts reports in
        let full_agree = off_verdicts = on_verdicts in
        let ratio, kind =
          if reduced then (off_total /. on_total, "speedup") else (on_total /. off_total, "overhead")
        in
        Printf.printf
          "   pods=%-2d (%3d rtrs)  full      %3d devices  %-9s cold %10.1f ms + warm \
           %8.1f ms  %.2e props/s  %s %5.2fx%s\n%!"
          pods routers routers (agg off_verdicts) cold warm off_pps kind ratio
          (if full_agree then "" else "  !! verdicts diverge");
        if smoke then begin
          (* a fresh Luby-restart solve of the cold query must agree
             with the session's adaptive-restart verdict *)
          let enc = MS.Encode.build net (MS.Options.with_strategy dstrat MS.Options.default) in
          if outcome_str (verify_check enc (reach enc (srcs_of dst0) dst0)) <> List.assoc dst0 off_verdicts
          then luby_agree := false
        end;
        ( [
            ( "symmetry_off",
              J.Obj
                [
                  ("status", J.Str "ok");
                  ("encode_ms", dec2 off_encode_ms);
                  ("cold_solve_ms", dec2 cold);
                  ("warm_solve_ms", dec2 warm);
                  ("solve_ms", dec2 (cold +. warm));
                  ("total_ms", dec2 off_total);
                  ("verdict", J.Str (agg off_verdicts));
                  ("agrees_with_symmetry", J.Bool full_agree);
                  ("propagations_per_sec", J.Num (Float.round off_pps));
                  ( "queries",
                    J.Arr
                      (List.mapi
                         (fun i (r : R.t) ->
                           J.Obj
                             [ ("dst", J.Str (List.nth dsts i)); ("solve_ms", dec2 r.R.wall_ms);
                               ("verdict", J.Str (verdict_of r)); ("warm", J.Bool (i > 0)) ])
                         reports) );
                ] );
            (* unrounded: the speedup gate reads it back from the row *)
            ("ratio", J.Num ratio);
            ("ratio_kind", J.Str kind);
          ],
          full_agree )
      end
    in
    J.Obj
      ([
         ("pods", J.int pods);
         ("routers", J.int routers);
         ( "symmetry_on",
           J.Obj
             [
               ("encode_ms", dec2 on_encode_ms);
               ("solve_ms", dec2 on_solve_ms);
               ("total_ms", dec2 on_total);
               ("verdict", J.Str (agg on_verdicts));
               ("devices_encoded", J.int q_devices);
               ("classes", J.int classes);
               ("propagations_per_sec", J.Num (Float.round on_pps));
               ( "queries",
                 J.Arr
                   (List.map
                      (fun (dst, _, e, s, v, _) ->
                        J.Obj
                          [ ("dst", J.Str dst); ("encode_ms", dec2 e); ("solve_ms", dec2 s);
                            ("verdict", J.Str v) ])
                      on_q) );
             ] );
         ( "agreement",
           J.Obj [ ("quotient_vs_full", J.Bool full_agree); ("ema_vs_luby", J.Bool modes_agree) ] );
       ]
      @ off_fields)
  in
  let result rows = scale_result ~smoke ~off_budget_ms ~luby_agree:!luby_agree rows in
  result
    (List.fold_left
       (fun acc pods ->
         match List.find_opt (fun r -> row_num r [ "pods" ] = float_of_int pods) prior with
         | Some r ->
           Printf.printf "   pods=%-2d restored from %s\n%!" pods scale_ckpt_file;
           acc @ [ r ]
         | None ->
           let r = measure pods in
           if checkpointing then begin
             (* rewrite the artifact after every point, so a killed
                sweep leaves a valid document *)
             Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 scale_ckpt_file (fun oc ->
                 output_string oc (J.to_string r ^ "\n"));
             ignore (write_artifact "scale" (result (acc @ [ r ])));
             Printf.printf "   checkpointed pods=%d\n%!" pods
           end;
           acc @ [ r ])
       [] sizes)

(* ---------------- arena memory behavior ---------------- *)

(* Pigeonhole: [holes + 1] pigeons into [holes] holes, unsatisfiable. *)
let pigeonhole s holes =
  let v = Array.init (holes + 1) (fun _ -> Array.init holes (fun _ -> Smt.Sat.new_var s)) in
  for p = 0 to holes do
    Smt.Sat.add_clause s (List.init holes (fun h -> Smt.Sat.pos_lit v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to holes do
      for p2 = p1 + 1 to holes do
        Smt.Sat.add_clause s [ Smt.Sat.neg_lit v.(p1).(h); Smt.Sat.neg_lit v.(p2).(h) ]
      done
    done
  done

(* The claims the arena refactor makes, measured and gated (--smoke):

   1. Allocation-free propagation.  A long implication chain is solved
      repeatedly on one solver: after the first (warm-up) solve every
      internal vector is sized, so the later solves — one decision,
      then ~N propagations through the flat arena — are pure hot-loop
      work.  [Sat.minor_words] (a [Gc.minor_words] delta around each
      solve) divided by the propagation delta must stay near zero; the
      constant per-solve bookkeeping (a closure, a few refs) is why the
      ceiling is 0.05 words rather than exactly 0.

   2. The speedup the flat representation buys on real queries.  The
      hardest fig7-class query (enterprise no-loops) is answered
      all-off and all-on, interleaved, min over three passes each —
      interleaving decorrelates sustained machine noise from the
      ratio, a slow spell hits both sides: verdicts must agree and
      all-on must clear 2x above the noise floor.

   3. Compaction actually runs and stays bounded: a reduction-stressed
      pigeonhole solve must report at least one compaction and end with
      a mostly-live arena. *)
let arena_bench ~smoke =
  print_endline "== arena SAT core: allocation, compaction and hot-query speedup ==";
  (* -- 1: steady-state allocation per propagation -- *)
  let n = if smoke then 50_000 else 200_000 in
  let s = Smt.Sat.create () in
  Smt.Sat.set_strategy s { Smt.Sat.default_strategy with Smt.Sat.default_phase = true };
  let v = Array.init n (fun _ -> Smt.Sat.new_var s) in
  for i = 0 to n - 2 do
    Smt.Sat.add_clause s [ Smt.Sat.neg_lit v.(i); Smt.Sat.pos_lit v.(i + 1) ]
  done;
  ignore (Smt.Sat.solve s);
  let props0 = Smt.Sat.num_propagations s and words0 = Smt.Sat.minor_words s in
  let repeats = 5 in
  for _ = 1 to repeats do
    ignore (Smt.Sat.solve s)
  done;
  let props = Smt.Sat.num_propagations s - props0 in
  let words = Smt.Sat.minor_words s -. words0 in
  let words_per_prop = if props = 0 then infinity else words /. float_of_int props in
  Printf.printf
    "   propagation: %d propagations over %d solves, %.0f minor words -> %.4f words/propagation\n%!"
    props repeats words words_per_prop;
  (* -- 2: hardest-query speedup, all-off vs all-on -- *)
  let routers = if smoke then 12 else if !full then 16 else 12 in
  let ent = G.Enterprise.make ~seed:3 ~routers ~inject:G.Enterprise.no_bugs () in
  let run_once feats =
    let opts = MS.Options.with_features feats MS.Options.default in
    let enc = MS.Encode.build ent.G.Enterprise.network opts in
    MS.Verify.run_query enc
      (MS.Verify.Query.v "ent:no-loops" (fun enc -> MS.Property.no_loops enc ()))
  in
  let r_off = ref (run_once Smt.Solver.no_features) in
  let r_on = ref (run_once Smt.Solver.default_features) in
  for _ = 2 to 3 do
    r_off := faster !r_off (run_once Smt.Solver.no_features);
    r_on := faster !r_on (run_once Smt.Solver.default_features)
  done;
  let r_off = !r_off and r_on = !r_on in
  let off_ms = r_off.R.wall_ms and on_ms = r_on.R.wall_ms in
  let agree = verdict_of r_off = verdict_of r_on in
  let arena_bytes (r : R.t) = r.R.stats.Smt.Solver.arena_words * (Sys.word_size / 8) in
  Printf.printf
    "   hardest query ent:no-loops (routers=%d): all-off %.1f ms, all-on %.1f ms -> %.2fx\n%!"
    routers off_ms on_ms (off_ms /. on_ms);
  Printf.printf "   arena: %d bytes all-off, %d bytes all-on, %d compaction(s) all-on\n%!"
    (arena_bytes r_off) (arena_bytes r_on) r_on.R.stats.Smt.Solver.arena_compactions;
  (* -- 3: compaction under reduction stress -- *)
  let sc = Smt.Sat.create () in
  Smt.Sat.set_max_learnts sc 3;
  let holes = 6 in
  pigeonhole sc holes;
  let php_unsat = Smt.Sat.solve sc = Smt.Sat.Unsat in
  let compactions = Smt.Sat.num_compactions sc in
  let live_fraction =
    let total = Smt.Sat.arena_words sc in
    if total = 0 then 1.0
    else float_of_int (total - Smt.Sat.arena_wasted_words sc) /. float_of_int total
  in
  Printf.printf "   compaction stress: php(%d) %s, %d compactions, %.0f%% of arena live\n%!"
    holes
    (if php_unsat then "unsat" else "SAT (wrong!)")
    compactions (100.0 *. live_fraction);
  ( [
      ( "propagation",
        J.Obj
          [ ("chain_vars", J.int n); ("solves", J.int repeats); ("propagations", J.int props);
            ("minor_words", J.Num (Float.round words));
            ("words_per_propagation", J.Num (Float.round (words_per_prop *. 1e5) /. 1e5)) ] );
      ( "hardest_query",
        J.Obj
          [ ("label", J.Str "ent:no-loops"); ("routers", J.int routers);
            ("all_off_ms", dec2 off_ms); ("all_on_ms", dec2 on_ms);
            ("speedup", dec3 (off_ms /. on_ms)); ("verdicts_agree", J.Bool agree);
            ("arena_bytes_all_on", J.int (arena_bytes r_on));
            ("compactions_all_on", J.int r_on.R.stats.Smt.Solver.arena_compactions) ] );
      ( "compaction_stress",
        J.Obj
          [ ("pigeonhole", J.int holes); ("unsat", J.Bool php_unsat);
            ("compactions", J.int compactions); ("live_fraction", dec3 live_fraction) ] );
    ],
    smoke_only ~smoke
      [
        holds "verdicts_agree" agree;
        holds "pigeonhole_unsat" php_unsat;
        at_least "compactions" (float_of_int compactions) 1.0;
        at_most "words_per_propagation" words_per_prop 0.05;
        at_least
          ?skip:(below_floor ~floor_ms:300.0 "all-off baseline" off_ms)
          "hardest_query_speedup" (off_ms /. on_ms) 2.0;
      ] )

(* ---------------- serve: delta re-verification vs cold daemons ---------------- *)

(* The verification-as-a-service loop an operator actually runs: load a
   network once, then per change push a [diff] and re-ask a suite of
   localized invariants.  The delta daemon migrates core-disjoint
   verdicts across each diff; ground truth (and the timing baseline) is
   a cold daemon that loads the same mutated text from scratch each
   step. *)

let serve_req op fields =
  J.to_string (J.Obj (("schema", J.int R.schema_version) :: ("op", J.Str op) :: fields))

let serve_ask d line =
  let resp, _ = Serve.handle_line d line in
  match J.parse resp with
  | Error e -> failwith ("bench serve: unparseable response: " ^ e)
  | Ok v -> (
    match Option.bind (J.member "ok" v) J.get_bool with
    | Some true -> v
    | _ ->
      failwith
        ("bench serve: request failed: "
        ^ Option.value ~default:resp (Option.bind (J.member "error" v) J.get_string)))

let serve_int v k =
  match Option.bind (J.member k v) J.get_int with
  | Some n -> n
  | None -> failwith ("bench serve: response lacks " ^ k)

let serve_verdicts v =
  match Option.bind (J.member "reports" v) J.get_list with
  | None -> failwith "bench serve: query response lacks reports"
  | Some rs ->
    let field r k = Option.value ~default:"?" (Option.bind (J.member k r) J.get_string) in
    List.map (fun r -> (field r "label", field r "verdict")) rs

let serve_bench ~smoke =
  let routers = if !full then 20 else 14 in
  let steps = if !full then 6 else 4 in
  let seed = 11 in
  print_endline "== serve: delta re-verification vs cold full verification ==";
  let t = G.Enterprise.make ~seed ~routers ~inject:G.Enterprise.no_bugs () in
  let racks = t.G.Enterprise.rack_role in
  if List.length racks < 4 then failwith "bench serve: enterprise too small for a remote suite";
  (* the suite: ACL equivalence over consecutive pairs of racks the
     churn never touches — the invariants an operator re-checks after a
     change somewhere else *)
  let remote = List.filteri (fun i _ -> i >= 2) racks in
  let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
  let suite = pairs remote in
  let query =
    serve_req "query"
      [
        ( "queries",
          J.Arr
            (List.map
               (fun (a, b) ->
                 J.Obj
                   [ ("property", J.Str "acl-equivalence");
                     ("label", J.Str (Printf.sprintf "eq-%s-%s" a b));
                     ("devices", J.Arr [ J.Str a; J.Str b ]) ])
               suite) );
      ]
  in
  let req_load text = serve_req "load" [ ("config", J.Str text) ] in
  let req_diff text = serve_req "diff" [ ("config", J.Str text) ] in
  let base_text = Config.Printer.network_to_string t.G.Enterprise.network in
  let delta = Serve.create MS.Options.default in
  ignore (serve_ask delta (req_load base_text));
  let (_ : J.value), warm_ms = time (fun () -> serve_ask delta query) in
  Printf.printf "   %d devices, %d-query suite, warm solve %.1f ms\n%!" routers (List.length suite) warm_ms;
  let net = ref t.G.Enterprise.network in
  let steps =
    List.init steps (fun step ->
        net := G.Enterprise.churn_rack_acl t step !net;
        let text = Config.Printer.network_to_string !net in
        let (dresp, got), delta_ms =
          time (fun () ->
              let dresp = serve_ask delta (req_diff text) in
              (dresp, serve_verdicts (serve_ask delta query)))
        in
        let want, full_ms =
          time (fun () ->
              let cold = Serve.create MS.Options.default in
              ignore (serve_ask cold (req_load text));
              serve_verdicts (serve_ask cold query))
        in
        let mode = Option.value ~default:"?" (Option.bind (J.member "mode" dresp) J.get_string) in
        let replayed = serve_int dresp "replayed" in
        Printf.printf "   step %d: %s diff, %d replayed, delta %.1f ms vs full %.1f ms%s\n%!" step
          mode replayed delta_ms full_ms
          (if got = want then "" else "  ** VERDICTS DIVERGE **");
        (step, mode, replayed, delta_ms, full_ms, got = want))
  in
  (* A -> B -> A flap: reloading the base text must hit the encoding cache *)
  ignore (serve_ask delta (req_load base_text));
  ignore (serve_ask delta query);
  let stats = serve_ask delta (serve_req "stats" []) in
  let replays = serve_int stats "delta_replays" in
  let verdict_hits = serve_int stats "verdict_hits" in
  let enc_hits = serve_int stats "enc_cache_hits" in
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 steps in
  let delta_total = sum (fun (_, _, _, d, _, _) -> d) in
  let full_total = sum (fun (_, _, _, _, f, _) -> f) in
  let speedup = full_total /. delta_total in
  let agree = List.for_all (fun (_, _, _, _, _, a) -> a) steps in
  Printf.printf
    "   totals: delta %.1f ms, full %.1f ms (%.1fx); %d replays, %d verdict hits, %d encoding \
     cache hits\n%!"
    delta_total full_total speedup replays verdict_hits enc_hits;
  ( [
      ("network", enterprise_json seed routers);
      ( "suite",
        J.Obj [ ("queries", J.int (List.length suite)); ("kind", J.Str "localized acl-equivalence") ]
      );
      ("warm_solve_ms", dec2 warm_ms);
      ( "steps",
        J.Arr
          (List.map
             (fun (step, mode, replayed, dms, fms, agree) ->
               J.Obj
                 [ ("step", J.int step); ("mode", J.Str mode); ("replayed", J.int replayed);
                   ("delta_ms", dec2 dms); ("full_ms", dec2 fms); ("verdicts_agree", J.Bool agree) ])
             steps) );
      ("delta_total_ms", dec2 delta_total);
      ("full_total_ms", dec2 full_total);
      ("speedup", dec3 speedup);
      ("delta_replays", J.int replays);
      ("verdict_cache_hits", J.int verdict_hits);
      ("encoding_cache_hits", J.int enc_hits);
      ("verdicts_agree", J.Bool agree);
    ],
    (* replayed verdicts must be indistinguishable from freshly solved
       ones in every run *)
    holds "verdicts_agree" agree
    :: smoke_only ~smoke
         [
           at_least "delta_replays" (float_of_int replays) 1.0;
           at_least "verdict_cache_hits" (float_of_int verdict_hits) 1.0;
           at_least "encoding_cache_hits" (float_of_int enc_hits) 1.0;
           at_least
             ?skip:(below_floor ~floor_ms:50.0 "full path" full_total)
             "delta_speedup" speedup 2.0;
         ] )

(* ---------------- fault: k-failure invariance, hybrid vs SMT ---------------- *)

(* Every query is answered twice: by [Faults.hybrid] (the graph min-cut
   fast path first, the two-copy SMT encoding only when it declines) and
   by the two-copy SMT encoding alone.  Cross-path verdict agreement is
   the differential gate.  The speed gates cover the graph-decided
   subset, every fallback row (declining must stay cheap) and the
   whole workload (the claim must hold end to end). *)
let fault_bench ~smoke =
  print_endline "== fault: <=k-failure invariance, hybrid (graph first) vs SMT alone ==";
  let ks = [ 1; 2; 3 ] in
  let pods_list = if !full then [ 2; 4; 6 ] else [ 2; 4 ] in
  let fattree_cases =
    List.concat_map
      (fun pods ->
        let ft = G.Fattree.make ~pods in
        let case ?(suffix = "") dst ks =
          ( Printf.sprintf "fattree-pods%d%s" pods suffix,
            ft.G.Fattree.network,
            MS.Property.Subnet (dst, ft.G.Fattree.tor_subnet dst),
            ks )
        in
        let primary = case (List.hd ft.G.Fattree.tors) ks in
        (* a second destination ToR at k=1 for the larger fabrics: the
           invariant holds there (min-cut 2 > 1), which is the expensive
           UNSAT side of the SMT encoding and the cheap side of the
           graph path *)
        match List.rev ft.G.Fattree.tors with
        | last :: _ when pods >= 4 -> [ primary; case ~suffix:"-torB" last [ 1 ] ]
        | _ -> [ primary ])
      pods_list
  in
  let enterprise_cases =
    (* OSPF-internal networks are ineligible for the graph path by
       design, so these rows exercise the fall-back-to-SMT leg of the
       hybrid; k is capped in smoke mode because each verdict is solved
       twice on a doubled encoding. *)
    List.map
      (fun (label, inject) ->
        let t = G.Enterprise.make ~seed:7 ~routers:6 ~inject () in
        let target = List.hd (List.rev t.G.Enterprise.rack_role) in
        ( label,
          t.G.Enterprise.network,
          MS.Property.Subnet (target, t.G.Enterprise.rack_subnet target),
          if !full then ks else [ 1 ] ))
      [
        ("enterprise-clean", G.Enterprise.no_bugs);
        ("enterprise-single-homed", { G.Enterprise.no_bugs with G.Enterprise.single_homed = true });
      ]
  in
  let fallback_reps = 25 in
  let rows =
    List.concat_map
      (fun (name, net, dest, ks) ->
        let sources = device_names net in
        List.map
          (fun k ->
            let hybrid () = Faults.hybrid net MS.Options.default ~k ~sources dest in
            let smt () = MS.Verify.fault_invariant net MS.Options.default ~k ~sources dest in
            let hr, hyb_ms = time hybrid in
            let sr, smt_ms = time smt in
            let hv = verdict_of hr and sv = verdict_of sr in
            let meth = match hr.R.method_ with Some m -> R.method_name m | None -> "?" in
            (* on a fallback row both sides run the same SMT solve and one
               timing is mostly host noise (runs of one solve ranged over 5x
               on a shared 2-core host): re-time both, alternating which
               goes first, and keep each side's minimum *)
            let hyb_ms, smt_ms =
              if meth <> "fallback" then (hyb_ms, smt_ms)
              else begin
                let h = ref hyb_ms and s = ref smt_ms in
                let once f r = r := Float.min !r (snd (time f)) in
                for rep = 2 to fallback_reps do
                  if rep mod 2 = 0 then (once smt s; once hybrid h) else (once hybrid h; once smt s)
                done;
                (!h, !s)
              end
            in
            Printf.printf "   %-26s k=%d %-9s [%-8s] hybrid %8.1f ms vs smt %8.1f ms%s%s\n%!" name
              k hv meth hyb_ms smt_ms
              (if meth = "fallback" then Printf.sprintf " (min of %d)" fallback_reps else "")
              (if hv = sv then "" else "  ** VERDICTS DIVERGE **");
            (name, k, hv, sv, meth, hyb_ms, smt_ms))
          ks)
      (fattree_cases @ enterprise_cases)
  in
  let sum only f =
    List.fold_left (fun a ((_, _, _, _, m, _, _) as row) -> if only m then a +. f row else a) 0.0 rows
  in
  let hyb (_, _, _, _, _, h, _) = h and smt (_, _, _, _, _, _, s) = s in
  let graph m = m = "graph" and any _ = true in
  let g_hyb = sum graph hyb and g_smt = sum graph smt in
  let all_hyb = sum any hyb and all_smt = sum any smt in
  let graph_decided = List.length (List.filter (fun (_, _, _, _, m, _, _) -> graph m) rows) in
  let speedup = if g_hyb > 0.0 then g_smt /. g_hyb else 0.0 in
  let all_speedup = if all_hyb > 0.0 then all_smt /. all_hyb else 0.0 in
  let agree = List.for_all (fun (_, _, hv, sv, _, _, _) -> hv = sv) rows in
  Printf.printf
    "   totals: %d queries, %d graph-decided; on that subset hybrid %.1f ms vs smt %.1f ms \
     (%.1fx); all rows hybrid %.1f ms vs smt %.1f ms (%.2fx)\n%!"
    (List.length rows) graph_decided g_hyb g_smt speedup all_hyb all_smt all_speedup;
  let floor_ms = 50.0 in
  ( [
      ( "rows",
        J.Arr
          (List.map
             (fun (name, k, hv, sv, meth, hyb_ms, smt_ms) ->
               J.Obj
                 [ ("network", J.Str name); ("k", J.int k); ("verdict", J.Str hv);
                   ("verdict_smt", J.Str sv); ("method", J.Str meth); ("hybrid_ms", dec2 hyb_ms);
                   ("smt_ms", dec2 smt_ms); ("verdicts_agree", J.Bool (hv = sv)) ])
             rows) );
      ("queries", J.int (List.length rows));
      ("graph_decided", J.int graph_decided);
      ("graph_subset_hybrid_ms", dec2 g_hyb);
      ("graph_subset_smt_ms", dec2 g_smt);
      ("graph_subset_speedup", dec3 speedup);
      ("all_rows_hybrid_ms", dec2 all_hyb);
      ("all_rows_smt_ms", dec2 all_smt);
      ("all_rows_speedup", dec3 all_speedup);
      ("verdicts_agree", J.Bool agree);
    ],
    (* the graph fast path must be observationally identical to the
       SMT encoding in every run *)
    holds "verdicts_agree" agree
    :: smoke_only ~smoke
         ([
            at_least "graph_decided" (float_of_int graph_decided) 1.0;
            at_least
              ?skip:(below_floor ~floor_ms "graph-decided SMT total" g_smt)
              "graph_subset_speedup" speedup 2.0;
            (* the fast path may not lose overall what it wins on its
               subset *)
            at_least
              ?skip:(below_floor ~floor_ms "SMT total" all_smt)
              "all_rows_speedup" all_speedup 1.0;
          ]
         @ (* a declined graph attempt must cost next to nothing *)
         List.filter_map
           (fun (name, k, _, _, meth, hyb_ms, smt_ms) ->
             if meth <> "fallback" then None
             else
               Some
                 (at_most
                    ?skip:(below_floor ~floor_ms "SMT" smt_ms)
                    (Printf.sprintf "fallback_overhead:%s:k=%d" name k)
                    (hyb_ms /. smt_ms) 1.10))
           rows) )

(* ---------------- Bechamel micro-benchmarks ---------------- *)

let micro () =
  print_endline "== SMT substrate micro-benchmarks (Bechamel, monotonic clock) ==";
  let open Bechamel in
  let sat_test =
    Test.make ~name:"sat: pigeonhole 5 into 4"
      (Staged.stage (fun () ->
           let s = Smt.Sat.create () in
           pigeonhole s 4;
           ignore (Smt.Sat.solve s)))
  in
  let idl_test =
    Test.make ~name:"idl: 200-var chain"
      (Staged.stage (fun () ->
           let cs = List.init 199 (fun i -> { Smt.Idl.x = i + 1; y = i; k = 1; tag = i }) in
           ignore (Smt.Idl.check ~nvars:200 cs)))
  in
  let encode_test =
    Test.make ~name:"encode: fattree pods=4"
      (Staged.stage (fun () ->
           let ft = G.Fattree.make ~pods:4 in
           ignore (MS.Encode.build ft.G.Fattree.network MS.Options.default)))
  in
  let run_test t =
    let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
    let measure = Toolkit.Instance.monotonic_clock in
    let raw = Benchmark.all cfg [ measure ] t in
    let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
    let results = Analyze.all ols measure raw in
    Hashtbl.iter
      (fun name r ->
        match Analyze.OLS.estimates r with
        | Some (est :: _) -> Printf.printf "  %-28s %14.1f ns/run\n%!" name est
        | Some [] | None -> ())
      results
  in
  List.iter run_test [ sat_test; idl_test; encode_test ];
  (* Accumulated statistics of one incremental solver across a small
     session: bound a difference-logic chain, then probe it three times
     under increasingly tight assumptions. *)
  let module T = Smt.Term in
  let module Solver = Smt.Solver in
  let s = Solver.create ~incremental:true () in
  let xs = Array.init 40 (fun i -> T.var (Printf.sprintf "micro!x%d" i) Smt.Sort.Int) in
  for i = 0 to 38 do
    Solver.assert_term s (T.lt xs.(i) xs.(i + 1))
  done;
  Solver.assert_term s (T.leq (T.int_const 0) xs.(0));
  List.iter
    (fun bound -> ignore (Solver.check s ~assumptions:[ T.leq xs.(39) (T.int_const bound) ]))
    [ 100; 39; 38 ];
  let st = Solver.stats s in
  Printf.printf
    "  incremental session: %d checks, %d conflicts, %d decisions, %d propagations, %d learned \
     clauses, %d restarts\n\
     %!"
    st.Solver.checks st.Solver.conflicts st.Solver.decisions st.Solver.propagations
    st.Solver.learned_clauses st.Solver.restarts

(* ---------------- the bench table ---------------- *)

(* [run] returns the artifact's fields and gates, or [None] for a
   bench that prints its table and writes no artifact. *)
type bench = {
  name : string;
  doc : string;
  run : smoke:bool -> ((string * J.value) list * gate list) option;
}

let printed f ~smoke:_ = f (); None
let gated f ~smoke = Some (f ~smoke)

(* A run records every gate's value, bound and outcome in the
   "gates" array of the artifact. *)
let benches =
  [
    { name = "fig7"; run = printed fig7;
      doc = "per-network verification time across the 152-network enterprise fleet (Figure 7)" };
    { name = "fig8"; run = printed fig8;
      doc = "property verification time across folded-Clos fabrics of growing size (Figure 8)" };
    { name = "opts"; run = printed opts_bench;
      doc = "naive bit-vector encoding vs prefix hoisting vs hoisting + slicing (§8.3)" };
    { name = "violations"; run = printed violations;
      doc = "violation counts per property class across the fleet (§8.1)" };
    { name = "batch"; run = gated batch;
      doc = "one incremental session vs N fresh solvers on the fig7 suite; --smoke gates \
             verdict agreement and the session being faster" };
    { name = "parallel"; run = gated parallel;
      doc = "process-pool sharding (-j1/-j2/-j4) of the fig7 suite plus an all-pairs fan-out; \
             gates verdict agreement and, on N cores, -jN >= 1.3x (--smoke) or >= 2x" };
    { name = "solver"; run = gated solver_bench;
      doc = "the four solver features and the restart/rephase strategy grid, ablated; --smoke \
             gates agreement in both grids and all-on >= 1.1x above a 300 ms floor" };
    { name = "certify"; run = gated certify_bench;
      doc = "plain vs --certify verdicts; gates agreement, every verdict certified, both \
             certificate kinds, and overhead <= 2x above a 300 ms floor" };
    { name = "scale"; run = gated scale;
      doc = "symmetry quotient vs full encoding on fat-trees up to 405 routers (Figures 8/9); \
             gates agreement and a 2x quotient speedup above a 300 ms floor; --full \
             checkpoints, --resume restores" };
    { name = "arena"; run = gated arena_bench;
      doc = "arena SAT core; --smoke gates agreement, <= 0.05 minor words per propagation, \
             a compaction, and a 2x hardest-query speedup above a 300 ms floor" };
    { name = "serve"; run = gated serve_bench;
      doc = "delta daemon absorbing config churn vs cold re-verification; gates agreement; \
             --smoke also replay and cache hits, and 2x above a 50 ms floor" };
    { name = "fault"; run = gated fault_bench;
      doc = "<=k-failure invariance, graph-first hybrid vs SMT alone; gates agreement; \
             --smoke also a graph-decided query and, above a 50 ms floor, 2x on that subset, \
             >= 1x over all rows, and every fallback row within SMT + 10%" };
    { name = "micro"; run = printed micro; doc = "Bechamel micro-benchmarks of the SMT substrate" };
  ]

let usage () =
  "usage: dune exec bench/main.exe -- [NAME|all] [--full|--smoke] [--resume]\n"
  ^ String.concat "" (List.map (fun b -> Printf.sprintf "  %-10s %s\n" b.name b.doc) benches)

(* Run one bench, write its artifact and print every gate that did
   not pass; false when a gate failed. *)
let run_bench ~smoke b =
  match b.run ~smoke with
  | None -> true
  | Some ((_, gates) as result) ->
    Printf.printf "   wrote %s\n%!" (write_artifact b.name result);
    List.for_all
      (fun g ->
        match g.outcome with
        | Passed -> true
        | Skipped why ->
          Printf.printf "   (gate %s skipped: %s)\n%!" g.name why;
          true
        | Failed ->
          Printf.eprintf "bench %s: gate %s failed: %s, bound %s\n%!" b.name g.name
            (J.to_string g.value) g.bound;
          false)
      gates

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  full := List.mem "--full" args;
  resume := List.mem "--resume" args;
  let smoke = List.mem "--smoke" args in
  let which =
    match List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args with
    | [] -> "all"
    | w :: _ -> w
  in
  let selected = if which = "all" then benches else List.filter (fun b -> b.name = which) benches in
  if selected = [] then begin
    Printf.eprintf "unknown benchmark %s\n%s" which (usage ());
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  let ok =
    List.fold_left
      (fun ok b ->
        let passed = run_bench ~smoke b in
        print_newline ();
        ok && passed)
      true selected
  in
  Printf.printf "total bench time: %.1f s\n" (Unix.gettimeofday () -. t0);
  if not ok then exit 1
