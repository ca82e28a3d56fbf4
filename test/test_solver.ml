(* Differential coverage for the four solver-throughput fronts
   (polarity-aware CNF, level-0 preprocessing, theory propagation, LBD
   clause management): every one of the 2^4 feature combinations must
   give exactly the verdicts of the all-off baseline on the enterprise
   and fattree suites, with well-formed counterexamples; a QCheck
   differential pits random feature combinations against the concrete
   routing simulator; and unit tests pin down pure-literal model
   reconstruction, including the frozen-theory-atom case the Solver
   layer depends on. *)

module MS = Minesweeper

(* shims over the Query/Report API for the bare outcomes these tests match on *)
let verify_check enc prop =
  MS.Verify.Report.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.of_property "query" prop))
module G = Generators
module A = Config.Ast
module T = Smt.Term
module P = Net.Prefix
module Ip = Net.Ipv4

let parse = Config.Parser.parse_network
let violated = function MS.Verify.Violation _ -> true | MS.Verify.Holds -> false

(* All 16 feature combinations, all-off first. *)
let combos =
  List.init 16 (fun bits ->
      let feats =
        {
          Smt.Solver.pg_cnf = bits land 1 <> 0;
          preprocess = bits land 2 <> 0;
          theory_prop = bits land 4 <> 0;
          lbd = bits land 8 <> 0;
        }
      in
      let name =
        if bits = 0 then "off"
        else
          String.concat "+"
            (List.filter_map
               (fun (b, n) -> if bits land b <> 0 then Some n else None)
               [ (1, "pg"); (2, "pre"); (4, "tp"); (8, "lbd") ])
      in
      (name, feats))

(* Every forwarding edge of a decoded counterexample must be a next-hop
   the encoding actually offers. *)
let check_cx_valid name enc (cx : MS.Counterexample.t) =
  List.iter
    (fun (d, hop) ->
      if not (List.mem d (MS.Encode.devices enc)) then
        Alcotest.failf "%s: counterexample forwards at unknown device %s" name d;
      (match hop with
       | MS.Nexthop.To_device n ->
         if not (List.mem n (MS.Encode.internal_neighbors enc d)) then
           Alcotest.failf "%s: counterexample edge %s -> %s is not in the model" name d n
       | _ -> ());
      if not (List.mem hop (MS.Encode.hops enc d)) then
        Alcotest.failf "%s: counterexample hop at %s is not offered by the encoding" name d)
    cx.MS.Counterexample.forwarding

(* For each feature combination, run the whole suite on encodings built
   with that combination (fresh single-shot solver per query) and
   demand the all-off verdicts. *)
let feature_grid name net (props : (string * (MS.Encode.t -> MS.Property.t)) list) =
  let run feats =
    let opts = MS.Options.with_features feats MS.Options.default in
    let enc = MS.Encode.build net opts in
    ( enc,
      List.map
        (fun (pname, make) -> (pname, MS.Verify.run_query enc (MS.Verify.Query.v pname make)))
        props )
  in
  let _, baseline = run Smt.Solver.no_features in
  List.iter
    (fun (cname, feats) ->
      let enc, reports = run feats in
      List.iter2
        (fun (pname, (base : MS.Verify.Report.t)) (_, (r : MS.Verify.Report.t)) ->
          let basev = MS.Verify.Report.verdict_name base.MS.Verify.Report.verdict in
          let rv = MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict in
          if basev <> rv then
            Alcotest.failf "%s/%s on %s: all-off says %s, %s says %s" name cname pname basev
              cname rv;
          match r.MS.Verify.Report.verdict with
          | MS.Verify.Report.Violated cx ->
            check_cx_valid (name ^ "/" ^ cname ^ "/" ^ pname) enc cx
          | _ -> ())
        baseline reports)
    combos

let test_enterprise_grid () =
  (* hijack injected: the grid must agree on violations too *)
  let t =
    G.Enterprise.make ~seed:5 ~routers:8
      ~inject:{ G.Enterprise.hijack = true; acl_gap = false; deep_drop = false; single_homed = false }
      ()
  in
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target = List.hd (List.rev devices) in
  let mgmt_dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  let allowed = t.G.Enterprise.edge_routers @ t.G.Enterprise.rack_role in
  feature_grid "enterprise" net
    [
      ("mgmt-reachability", fun enc -> MS.Property.reachability enc ~sources:devices mgmt_dest);
      ("no-blackholes", fun enc -> MS.Property.no_blackholes enc ~allowed ());
      ("no-loops", fun enc -> MS.Property.no_loops enc ());
    ]

let test_fattree_grid () =
  let ft = G.Fattree.make ~pods:2 in
  let net = ft.G.Fattree.network in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  feature_grid "fattree" net
    [
      ( "all-tor-reachability",
        fun enc -> MS.Property.reachability enc ~sources:other_tors dest );
      ("multipath-consistency", fun enc -> MS.Property.multipath_consistency enc dest);
      ( "isolation-should-fail",
        fun enc -> MS.Property.isolation enc ~sources:[ List.hd other_tors ] dest );
    ]

(* -- QCheck: random nets, random feature combination, simulator oracle ----- *)

(* Random OSPF networks (a random tree plus an optional chord, random
   costs, one subnet per device, an optional ACL): subnet-to-subnet
   reachability under a random feature combination must coincide with
   the concrete simulator. *)
let build_random_net seed =
  let rng = Random.State.make [| seed |] in
  let n = 3 + Random.State.int rng 3 in
  let b = Buffer.create 1024 in
  let link_id = ref 0 in
  let iface_count = Array.make n 0 in
  let links = ref [] in
  let add_link i j =
    let id = !link_id in
    incr link_id;
    links := (i, j, id) :: !links
  in
  for i = 1 to n - 1 do
    add_link (Random.State.int rng i) i
  done;
  if n > 3 && Random.State.bool rng then begin
    let i = Random.State.int rng n and j = Random.State.int rng n in
    if i <> j && not (List.exists (fun (a, b, _) -> (a = i && b = j) || (a = j && b = i)) !links)
    then add_link (min i j) (max i j)
  end;
  let acl_router = if Random.State.int rng 3 = 0 then Some (Random.State.int rng n) else None in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "hostname R%d\n" i);
    List.iter
      (fun (a, b', id) ->
        if a = i || b' = i then begin
          let side = if a = i then 1 else 2 in
          Buffer.add_string b
            (Printf.sprintf "interface e%d\n ip address 172.31.%d.%d/30\n ip ospf cost %d\n"
               iface_count.(i) id side
               (1 + ((id + i) mod 3)))
        end;
        if a = i || b' = i then iface_count.(i) <- iface_count.(i) + 1)
      !links;
    let acl = acl_router = Some i in
    Buffer.add_string b (Printf.sprintf "interface lan\n ip address 10.50.%d.1/24\n" i);
    if acl then begin
      Buffer.add_string b " ip access-group G out\n";
      Buffer.add_string b "access-list G deny ip any 10.50.0.0/16\naccess-list G permit ip any any\n"
    end;
    Buffer.add_string b "router ospf 1\n network 0.0.0.0/0\n!\n"
  done;
  (parse (Buffer.contents b), n)

let prop_feature_oracle =
  QCheck.Test.make ~name:"random feature combos match the routing simulator" ~count:20
    (QCheck.make QCheck.Gen.(int_range 0 99999))
    (fun seed ->
      let net, n = build_random_net seed in
      let _, feats = List.nth combos (seed mod 16) in
      let opts = MS.Options.with_features feats MS.Options.default in
      let state = Routing.Simulator.run net Routing.Simulator.empty_env in
      let src = "R0" in
      for dst = 1 to min 2 (n - 1) do
        let subnet = P.make (Ip.of_octets 10 50 dst 0) 24 in
        let concrete =
          Routing.Dataplane.reachable net state ~src ~dst:(Ip.of_octets 10 50 dst 77)
        in
        let enc = MS.Encode.build net opts in
        let prop =
          MS.Property.reachability enc ~sources:[ src ]
            (MS.Property.Subnet (Printf.sprintf "R%d" dst, subnet))
        in
        let symbolic = not (violated (verify_check enc prop)) in
        if concrete <> symbolic then
          QCheck.Test.fail_reportf "seed %d combo %d dst R%d: simulator=%b encoder=%b" seed
            (seed mod 16) dst concrete symbolic
      done;
      true)

(* -- pure-literal elimination: model reconstruction ------------------------ *)

(* Pure literals are fixed at level 0, so the SAT model must still
   satisfy every original clause — including the ones the fixing
   removed from the live database. *)
let test_pure_literal_model () =
  let s = Smt.Sat.create () in
  Smt.Sat.set_simplify s true;
  Smt.Sat.set_pure_elim s true;
  let p = Smt.Sat.new_var s in
  let a = Smt.Sat.new_var s in
  let b = Smt.Sat.new_var s in
  (* p occurs only positively; a and b both ways. *)
  let clauses =
    [
      [ Smt.Sat.pos_lit p; Smt.Sat.pos_lit a ];
      [ Smt.Sat.pos_lit p; Smt.Sat.pos_lit b ];
      [ Smt.Sat.neg_lit a; Smt.Sat.neg_lit b ];
    ]
  in
  List.iter (Smt.Sat.add_clause s) clauses;
  (match Smt.Sat.solve s with
   | Smt.Sat.Sat -> ()
   | Smt.Sat.Unsat -> Alcotest.fail "pure-literal instance is satisfiable");
  List.iteri
    (fun i c ->
      if not (List.exists (Smt.Sat.value_lit s) c) then
        Alcotest.failf "model violates original clause %d after pure-literal elimination" i)
    clauses

(* A frozen variable must survive pure-literal elimination even when it
   occurs with a single polarity. *)
let test_pure_literal_frozen () =
  let s = Smt.Sat.create () in
  Smt.Sat.set_simplify s true;
  Smt.Sat.set_pure_elim s true;
  let p = Smt.Sat.new_var s in
  let atom = Smt.Sat.new_var s in
  Smt.Sat.freeze_var s atom;
  Smt.Sat.add_clause s [ Smt.Sat.pos_lit p; Smt.Sat.pos_lit atom ];
  (* External (theory-style) veto: any full assignment with [atom] true
     is rejected.  If pure-literal elimination had fixed the frozen
     [atom] true, the search could never recover. *)
  let final_check s' =
    if Smt.Sat.value_var s' atom then [ [ Smt.Sat.neg_lit atom ] ] else []
  in
  (match Smt.Sat.solve ~final_check s with
   | Smt.Sat.Sat -> ()
   | Smt.Sat.Unsat -> Alcotest.fail "frozen-atom instance is satisfiable (p true, atom false)");
  Alcotest.(check bool) "p carries the clause" true (Smt.Sat.value_var s p);
  Alcotest.(check bool) "frozen atom respects the theory" false (Smt.Sat.value_var s atom)

(* Same shape at the Solver layer: [p \/ (x - y <= -1)] with the theory
   forcing x = y.  The atom occurs only positively in the CNF; it must
   stay open for the difference-logic solver to refute, leaving p to
   carry the disjunction.  All four fronts on — this is exactly the
   configuration Verify uses for single-shot queries. *)
let test_pure_literal_theory_atom () =
  let s = Smt.Solver.create ~features:Smt.Solver.default_features () in
  let x = T.var "x" Smt.Sort.Int in
  let y = T.var "y" Smt.Sort.Int in
  let p = T.var "p" Smt.Sort.Bool in
  Smt.Solver.assert_term s (T.or_ [ p; T.lt (T.sub x y) (T.int_const 0) ]);
  Smt.Solver.assert_term s (T.eq x y);
  (match Smt.Solver.check s with
   | Smt.Solver.Sat m ->
     Alcotest.(check bool) "p must be true" true (Smt.Model.bool_value m p);
     Alcotest.(check int) "x = y in the model" (Smt.Model.int_value m x)
       (Smt.Model.int_value m y)
   | Smt.Solver.Unsat -> Alcotest.fail "satisfiable: p true, x = y")

(* -- restart and phase scheduling: strategy differential ------------------- *)

(* The four restart-mode x rephasing corners.  Like the feature grid,
   every corner is sound and complete: identical verdicts, valid
   counterexamples. *)
let strategy_combos =
  let d = Smt.Solver.default_strategy in
  [
    ("luby", { d with Smt.Solver.restart_mode = Smt.Solver.Luby; rephase = false });
    ("luby+rephase", { d with Smt.Solver.restart_mode = Smt.Solver.Luby; rephase = true });
    ("ema", { d with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd; rephase = false });
    ("ema+rephase", { d with Smt.Solver.restart_mode = Smt.Solver.Ema_lbd; rephase = true });
  ]

let strategy_grid name net (props : (string * (MS.Encode.t -> MS.Property.t)) list) =
  let run strategy =
    let opts = MS.Options.with_strategy strategy MS.Options.default in
    let enc = MS.Encode.build net opts in
    ( enc,
      List.map
        (fun (pname, make) -> (pname, MS.Verify.run_query enc (MS.Verify.Query.v pname make)))
        props )
  in
  match strategy_combos with
  | [] -> assert false
  | (_, first) :: _ ->
    let _, baseline = run first in
    List.iter
      (fun (cname, strategy) ->
        let enc, reports = run strategy in
        List.iter2
          (fun (pname, (base : MS.Verify.Report.t)) (_, (r : MS.Verify.Report.t)) ->
            let basev = MS.Verify.Report.verdict_name base.MS.Verify.Report.verdict in
            let rv = MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict in
            if basev <> rv then
              Alcotest.failf "%s/%s on %s: %s vs baseline %s" name cname pname rv basev;
            match r.MS.Verify.Report.verdict with
            | MS.Verify.Report.Violated cx ->
              check_cx_valid (name ^ "/" ^ cname ^ "/" ^ pname) enc cx
            | _ -> ())
          baseline reports)
      strategy_combos

let test_enterprise_strategy_grid () =
  let t =
    G.Enterprise.make ~seed:5 ~routers:8
      ~inject:{ G.Enterprise.hijack = true; acl_gap = false; deep_drop = false; single_homed = false }
      ()
  in
  let net = t.G.Enterprise.network in
  let devices = List.map (fun (d : A.device) -> d.A.dev_name) net.A.net_devices in
  let target = List.hd (List.rev devices) in
  let mgmt_dest = MS.Property.Subnet (target, t.G.Enterprise.mgmt_prefix target) in
  strategy_grid "enterprise" net
    [
      ("mgmt-reachability", fun enc -> MS.Property.reachability enc ~sources:devices mgmt_dest);
      ("no-loops", fun enc -> MS.Property.no_loops enc ());
    ]

let test_fattree_strategy_grid () =
  let ft = G.Fattree.make ~pods:2 in
  let net = ft.G.Fattree.network in
  let dst_tor = List.hd ft.G.Fattree.tors in
  let other_tors = List.filter (fun t -> t <> dst_tor) ft.G.Fattree.tors in
  let dest = MS.Property.Subnet (dst_tor, ft.G.Fattree.tor_subnet dst_tor) in
  strategy_grid "fattree" net
    [
      ( "all-tor-reachability",
        fun enc -> MS.Property.reachability enc ~sources:other_tors dest );
      ( "isolation-should-fail",
        fun enc -> MS.Property.isolation enc ~sources:[ List.hd other_tors ] dest );
    ]

(* Pigeonhole: n+1 pigeons into n holes.  Unsatisfiable with an
   exponential resolution lower bound — the cheapest way to force
   thousands of conflicts (hence restarts, rephases and low-LBD learnt
   clauses) out of a few dozen variables. *)
let add_pigeonhole s n =
  let var = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Smt.Sat.new_var s)) in
  for p = 0 to n do
    Smt.Sat.add_clause s (List.init n (fun h -> Smt.Sat.pos_lit var.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Smt.Sat.add_clause s [ Smt.Sat.neg_lit var.(p1).(h); Smt.Sat.neg_lit var.(p2).(h) ]
      done
    done
  done

(* The adaptive machinery must actually engage on a conflict-heavy
   instance: EMA-triggered restarts, at least one blocked restart or
   none (blocking needs 5000+ conflicts; don't demand it), and
   rephasing on its widening cadence. *)
let test_ema_rephase_engage () =
  let s = Smt.Sat.create () in
  Smt.Sat.set_strategy s
    { Smt.Sat.default_strategy with Smt.Sat.restart_mode = Smt.Sat.Ema_lbd; rephase = true };
  Smt.Sat.set_lbd s true;
  add_pigeonhole s 7;
  (match Smt.Sat.solve s with
   | Smt.Sat.Unsat -> ()
   | Smt.Sat.Sat -> Alcotest.fail "pigeonhole 8->7 must be unsat");
  if Smt.Sat.num_conflicts s < 1000 then
    Alcotest.failf "expected a conflict-heavy run, got %d conflicts" (Smt.Sat.num_conflicts s);
  if Smt.Sat.num_ema_restarts s = 0 then
    Alcotest.fail "Ema_lbd mode performed no EMA-triggered restart";
  if Smt.Sat.num_rephases s = 0 then Alcotest.fail "rephasing never fired"

let () =
  Alcotest.run "solver-features"
    [
      ( "feature-grid",
        [
          Alcotest.test_case "enterprise 16 combos" `Quick test_enterprise_grid;
          Alcotest.test_case "fattree 16 combos" `Quick test_fattree_grid;
        ] );
      ( "strategy-grid",
        [
          Alcotest.test_case "enterprise restart x rephase" `Quick
            test_enterprise_strategy_grid;
          Alcotest.test_case "fattree restart x rephase" `Quick test_fattree_strategy_grid;
          Alcotest.test_case "ema + rephase engage" `Quick test_ema_rephase_engage;
        ] );
      ( "pure-literals",
        [
          Alcotest.test_case "model reconstruction" `Quick test_pure_literal_model;
          Alcotest.test_case "frozen var survives" `Quick test_pure_literal_frozen;
          Alcotest.test_case "theory atom stays open" `Quick test_pure_literal_theory_atom;
        ] );
      ("oracle", [ QCheck_alcotest.to_alcotest prop_feature_oracle ]);
    ]
