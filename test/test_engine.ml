(* Differential and fault-injection tests for the parallel engine: on
   enterprise and fattree networks, Engine.run at -j 1 and -j 4 must
   reproduce exactly the verdicts of a sequential Verify.Session over
   the same queries, in the same order; a worker killed mid-shard must
   not lose or reorder any result. *)

module MS = Minesweeper
module G = Generators
module A = Config.Ast
module Query = MS.Verify.Query
module Report = MS.Verify.Report

let verdicts reports = List.map (fun r -> Report.verdict_name r.Report.verdict) reports
let labels reports = List.map (fun r -> r.Report.label) reports

let check_same_reports name (expected : Report.t list) (got : Report.t list) =
  Alcotest.(check (list string)) (name ^ ": labels in query order") (labels expected) (labels got);
  Alcotest.(check (list string)) (name ^ ": verdicts") (verdicts expected) (verdicts got)

(* ---- suites -------------------------------------------------------------- *)

let enterprise_queries (t : G.Enterprise.t) =
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target = List.hd (List.rev devices) in
  let mgmt_dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  let base =
    [
      Query.v "mgmt-reachability" (fun enc -> MS.Property.reachability enc ~sources:devices mgmt_dest);
      Query.v "no-blackholes" (fun enc -> MS.Property.no_blackholes enc ~allowed ());
      Query.v "no-loops" (fun enc -> MS.Property.no_loops enc ());
      Query.v "isolation" (fun enc -> MS.Property.isolation enc ~sources:devices mgmt_dest);
    ]
  in
  match t.G.Enterprise.rack_role with
  | r1 :: r2 :: _ ->
    base @ [ Query.v "acl-equivalence" (fun enc -> MS.Property.acl_equivalence enc r1 r2) ]
  | _ -> base

let fattree_queries (ft : G.Fattree.t) =
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  [
    Query.v "single-tor-reachability" (fun enc ->
        MS.Property.reachability enc ~sources:[ List.hd other_tors ] dest);
    Query.v "all-tor-reachability" (fun enc -> MS.Property.reachability enc ~sources:other_tors dest);
    Query.v "bounded-length" (fun enc ->
        MS.Property.bounded_length enc ~sources:other_tors dest ~bound:4);
    Query.v "multipath-consistency" (fun enc -> MS.Property.multipath_consistency enc dest);
    Query.v "no-blackholes" (fun enc ->
        MS.Property.no_blackholes enc ~allowed:ft.G.Fattree.cores ());
    Query.v "isolation-should-fail" (fun enc ->
        MS.Property.isolation enc ~sources:[ List.hd other_tors ] dest);
  ]

let differential name net queries =
  let enc = MS.Encode.build net MS.Options.default in
  let sequential = MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) queries in
  Alcotest.(check int) (name ^ ": report count") (List.length queries) (List.length sequential);
  let j1 = Engine.run ~jobs:1 enc queries in
  check_same_reports (name ^ " -j1") sequential j1;
  let j4 = Engine.run ~jobs:4 enc queries in
  check_same_reports (name ^ " -j4") sequential j4;
  (* parallel reports must come from real workers *)
  if List.for_all (fun r -> r.Report.worker = 0) j4 then
    Alcotest.failf "%s: no -j4 report carries a worker id" name

let test_enterprise_clean () =
  let t = G.Enterprise.make ~seed:3 ~routers:8 ~inject:G.Enterprise.no_bugs () in
  differential "enterprise clean" t.G.Enterprise.network (enterprise_queries t)

let test_enterprise_hijack () =
  let t =
    G.Enterprise.make ~seed:5 ~routers:8
      ~inject:{ G.Enterprise.hijack = true; acl_gap = false; deep_drop = false; single_homed = false }
      ()
  in
  differential "enterprise hijack" t.G.Enterprise.network (enterprise_queries t)

let test_fattree () =
  let ft = G.Fattree.make ~pods:2 in
  differential "fattree pods=2" ft.G.Fattree.network (fattree_queries ft)

(* Ordering under heavy sharding: an all-pairs style fan-out at -j 3
   must come back in query order with every query answered. *)
let test_ordering () =
  let t = G.Enterprise.make ~seed:3 ~routers:10 ~inject:G.Enterprise.no_bugs () in
  let net = t.G.Enterprise.network in
  let enc = MS.Encode.build net MS.Options.default in
  let devices = MS.Encode.devices enc in
  let queries =
    List.filter_map
      (fun d ->
        if MS.Encode.subnets enc d = [] then None
        else
          let srcs = List.filter (fun s -> s <> d) devices in
          Some
            (Query.v
               ("reach *->" ^ d)
               (fun enc -> MS.Property.reachability enc ~sources:srcs (MS.Property.Device d))))
      devices
  in
  let sequential = MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) queries in
  let j3 = Engine.run ~jobs:3 enc queries in
  check_same_reports "all-pairs -j3" sequential j3

(* ---- fault injection ----------------------------------------------------- *)

(* A query whose property thunk SIGKILLs the calling process — but only
   in engine workers (never in the test runner), and only while the
   marker file does not exist yet.  Workers share the filesystem, so
   the first victim leaves a marker and the requeued attempt succeeds. *)
let poison_query label marker ~always parent_pid =
  Query.v label (fun enc ->
      if Unix.getpid () <> parent_pid && (always || not (Sys.file_exists marker)) then begin
        (if not always then
           let oc = open_out marker in
           close_out oc);
        Unix.kill (Unix.getpid ()) Sys.sigkill
      end;
      MS.Property.no_loops enc ())

let fault_net () =
  let t = G.Enterprise.make ~seed:3 ~routers:8 ~inject:G.Enterprise.no_bugs () in
  t.G.Enterprise.network

let test_worker_killed_once () =
  let net = fault_net () in
  let enc = MS.Encode.build net MS.Options.default in
  let marker = Filename.temp_file "ms_poison" ".marker" in
  Sys.remove marker;
  let plain = Query.v "no-loops" (fun enc -> MS.Property.no_loops enc ()) in
  let others =
    [
      Query.v "isolation" (fun enc ->
          MS.Property.isolation enc
            ~sources:(MS.Encode.devices enc)
            (MS.Property.Device (List.hd (MS.Encode.devices enc))));
      Query.v "blackholes" (fun enc -> MS.Property.no_blackholes enc ());
      Query.v "loops-2" (fun enc -> MS.Property.no_loops enc ());
    ]
  in
  let sequential =
    MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) (plain :: others)
  in
  let poisoned = poison_query "no-loops" marker ~always:false (Unix.getpid ()) :: others in
  let reports = Engine.run ~jobs:2 enc poisoned in
  if Sys.file_exists marker then Sys.remove marker;
  (* the killed worker's query was requeued and answered correctly *)
  check_same_reports "kill-once" sequential reports

let test_worker_killed_always () =
  let net = fault_net () in
  let enc = MS.Encode.build net MS.Options.default in
  let others =
    [
      Query.v "isolation" (fun enc ->
          MS.Property.isolation enc
            ~sources:(MS.Encode.devices enc)
            (MS.Property.Device (List.hd (MS.Encode.devices enc))));
      Query.v "blackholes" (fun enc -> MS.Property.no_blackholes enc ());
      Query.v "loops-2" (fun enc -> MS.Property.no_loops enc ());
    ]
  in
  let sequential = MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) others in
  let poisoned =
    poison_query "poison" "/nonexistent-marker" ~always:true (Unix.getpid ()) :: others
  in
  let reports = Engine.run ~jobs:2 enc poisoned in
  Alcotest.(check int) "kill-always: complete report" 4 (List.length reports);
  Alcotest.(check (list string))
    "kill-always: order preserved"
    ("poison" :: labels sequential)
    (labels reports);
  (match reports with
   | poison :: rest ->
     (match poison.Report.verdict with
      | Report.Error _ -> ()
      | v -> Alcotest.failf "poison query should be an error, got %s" (Report.verdict_name v));
     Alcotest.(check (list string)) "kill-always: other verdicts" (verdicts sequential)
       (verdicts rest)
   | [] -> Alcotest.fail "empty report")

(* ---- timeouts ------------------------------------------------------------ *)

let timeout_queries () =
  [
    Query.v ~timeout:0.0 "doomed" (fun enc ->
        MS.Property.no_blackholes enc ());
    Query.v "normal" (fun enc -> MS.Property.no_loops enc ());
  ]

let check_timeout_reports name reports expected_normal =
  match reports with
  | [ doomed; normal ] ->
    Alcotest.(check string) (name ^ ": doomed verdict") "timeout"
      (Report.verdict_name doomed.Report.verdict);
    Alcotest.(check string) (name ^ ": later query unaffected") expected_normal
      (Report.verdict_name normal.Report.verdict)
  | rs -> Alcotest.failf "%s: expected 2 reports, got %d" name (List.length rs)

let test_timeout () =
  let net = fault_net () in
  let enc = MS.Encode.build net MS.Options.default in
  let expected =
    match MS.Verify.Session.run (MS.Verify.Session.of_encoding enc)
            [ Query.v "normal" (fun enc -> MS.Property.no_loops enc ()) ]
    with
    | [ r ] -> Report.verdict_name r.Report.verdict
    | _ -> Alcotest.fail "baseline"
  in
  (* in-process sequential path *)
  check_timeout_reports "sequential"
    (MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) (timeout_queries ()))
    expected;
  (* forked path: the worker reports the timeout itself and survives *)
  check_timeout_reports "-j2" (Engine.run ~jobs:2 enc (timeout_queries ())) expected

(* ---- strategies ---------------------------------------------------------- *)

(* Every named strategy variant is sound and complete: same verdicts on the
   same session-run suite. *)
let test_strategies_agree () =
  let ft = G.Fattree.make ~pods:2 in
  let enc = MS.Encode.build ft.G.Fattree.network MS.Options.default in
  let queries = fattree_queries ft in
  let baseline =
    verdicts (MS.Verify.Session.run (MS.Verify.Session.of_encoding enc) queries)
  in
  List.iter
    (fun (name, strategy) ->
      let got =
        verdicts (MS.Verify.Session.run (MS.Verify.Session.of_encoding ~strategy enc) queries)
      in
      Alcotest.(check (list string)) ("strategy " ^ name) baseline got)
    MS.Options.portfolio

(* ---- report surface ------------------------------------------------------ *)

let test_report_json () =
  let net = fault_net () in
  let enc = MS.Encode.build net MS.Options.default in
  let reports =
    MS.Verify.Session.run
      (MS.Verify.Session.of_encoding enc)
      [
        Query.v "no-loops" (fun enc -> MS.Property.no_loops enc ());
        Query.v "isolation \"quoted\"" (fun enc ->
            MS.Property.isolation enc
              ~sources:(MS.Encode.devices enc)
              (MS.Property.Device (List.hd (MS.Encode.devices enc))));
      ]
  in
  List.iter
    (fun r ->
      let j = Report.to_json r in
      List.iter
        (fun key ->
          let re = Str.regexp_string key in
          (try ignore (Str.search_forward re j 0)
           with Not_found -> Alcotest.failf "missing %s in %s" key j))
        [ "\"label\""; "\"verdict\""; "\"wall_ms\""; "\"worker\""; "\"stats\""; "\"conflicts\"" ])
    reports;
  (* escaping: the quoted label must not break the object *)
  (match reports with
   | [ _; quoted ] ->
     let j = Report.to_json quoted in
     (try ignore (Str.search_forward (Str.regexp_string "isolation \\\"quoted\\\"") j 0)
      with Not_found -> Alcotest.failf "label not escaped: %s" j)
   | _ -> Alcotest.fail "expected two reports");
  let arr = Report.list_to_json reports in
  if String.length arr < 2 || arr.[0] <> '[' then Alcotest.failf "not an array: %s" arr

let mk label verdict =
  {
    Report.label;
    verdict;
    certificate = Report.Uncertified;
    wall_ms = 1.0;
    stats = Report.empty_stats;
    worker = 0;
    strategy = None;
    support = None;
    replayed = false;
    method_ = None;
  }

let test_exit_codes () =
  let cx_free = mk "a" Report.Verified in
  Alcotest.(check int) "all hold" 0 (Report.exit_code [ cx_free; cx_free ]);
  Alcotest.(check int) "timeout" 3 (Report.exit_code [ cx_free; mk "t" Report.Timeout ]);
  Alcotest.(check int) "error" 3 (Report.exit_code [ mk "e" (Report.Error "x") ]);
  Alcotest.(check int) "empty" 0 (Report.exit_code [])

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "enterprise clean" `Quick test_enterprise_clean;
          Alcotest.test_case "enterprise hijack" `Quick test_enterprise_hijack;
          Alcotest.test_case "fattree pods=2" `Quick test_fattree;
          Alcotest.test_case "all-pairs ordering -j3" `Quick test_ordering;
        ] );
      ( "faults",
        [
          Alcotest.test_case "worker killed once: requeued" `Quick test_worker_killed_once;
          Alcotest.test_case "worker killed always: error" `Quick test_worker_killed_always;
          Alcotest.test_case "per-query timeout" `Quick test_timeout;
        ] );
      ("strategies", [ Alcotest.test_case "strategy variants agree" `Quick test_strategies_agree ]);
      ( "reports",
        [
          Alcotest.test_case "json shape" `Quick test_report_json;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
    ]
