(* Tests for the static-analysis subsystem: one positive configuration
   and one clean configuration per diagnostic code, the JSON renderer,
   the encoder pre-flight hook, and differential tests showing that
   lint-driven slicing preserves verdicts while shrinking encodings. *)

module A = Config.Ast
module MS = Minesweeper

(* shims over the Query/Report API for the bare outcomes these tests match on *)
let verify_net net opts make =
  let enc = MS.Encode.build net opts in
  MS.Verify.Report.to_outcome (MS.Verify.run_query enc (MS.Verify.Query.v "query" make))
module D = Analysis.Diagnostic
module P = Net.Prefix

let parse = Config.Parser.parse_network
let codes text = List.map (fun (d : D.t) -> d.D.code) (Analysis.Lint.run (parse text))
let has code text = List.mem code (codes text)

let check_has code text =
  if not (has code text) then
    Alcotest.failf "expected %s, got [%s]" code (String.concat "; " (codes text))

let check_not code text =
  if has code text then Alcotest.failf "unexpected %s" code

(* A well-formed two-router eBGP pair: every object defined and used,
   sessions reciprocal with agreeing AS numbers, distinct router-ids. *)
let clean_pair =
  {|hostname C1
interface e0
 ip address 10.0.0.1/30
 ip access-group FILT in
interface e1
 ip address 10.1.0.1/24
!
ip prefix-list ALL permit 0.0.0.0/0 le 32
access-list FILT permit ip any any
route-map IMP permit 10
 match ip address prefix-list ALL
!
router bgp 100
 bgp router-id 1.1.1.1
 network 10.1.0.0/24
 neighbor 10.0.0.2 remote-as 200
 neighbor 10.0.0.2 route-map IMP in
!
hostname C2
interface e0
 ip address 10.0.0.2/30
interface e1
 ip address 10.2.0.1/24
!
router bgp 200
 bgp router-id 2.2.2.2
 network 10.2.0.0/24
 neighbor 10.0.0.1 remote-as 100
|}

let test_clean () =
  let diags = Analysis.Lint.run (parse clean_pair) in
  Alcotest.(check int) "no findings" 0 (List.length diags);
  Alcotest.(check int) "exit code" 0 (Analysis.Lint.exit_code diags)

(* -- reference analysis -------------------------------------------------------- *)

let one_router body =
  {|hostname R1
interface e0
 ip address 10.0.0.1/30
interface e1
 ip address 10.1.0.1/24
!
|}
  ^ body

let test_undefined_refs () =
  (* MS-E001: route-map applied but not defined *)
  check_has "MS-E001"
    (one_router
       "router bgp 100\n neighbor 10.0.0.2 remote-as 200\n neighbor 10.0.0.2 route-map NOPE in\n");
  (* MS-E002: route-map matches a prefix-list that is not defined *)
  check_has "MS-E002"
    (one_router
       "route-map RM permit 10\n match ip address prefix-list GHOST\n!\n\
        router bgp 100\n neighbor 10.0.0.2 remote-as 200\n neighbor 10.0.0.2 route-map RM in\n");
  (* MS-E003: interface applies an access-list that is not defined *)
  check_has "MS-E003" "hostname R1\ninterface e0\n ip address 10.0.0.1/30\n ip access-group NOACL in\n";
  List.iter (fun c -> check_not c clean_pair) [ "MS-E001"; "MS-E002"; "MS-E003" ]

let test_unused_defs () =
  (* MS-W101: route-map defined but applied nowhere *)
  check_has "MS-W101" (one_router "route-map LONELY permit 10\n");
  (* MS-W102: prefix-list defined but matched nowhere *)
  check_has "MS-W102" (one_router "ip prefix-list STRAY permit 10.0.0.0/8 le 32\n");
  (* MS-W103: access-list defined but applied nowhere *)
  check_has "MS-W103" (one_router "access-list STALE permit ip any any\n");
  List.iter (fun c -> check_not c clean_pair) [ "MS-W101"; "MS-W102"; "MS-W103" ]

(* -- dead-code analysis --------------------------------------------------------- *)

let test_dead_prefix_entries () =
  (* subsumed by an earlier entry *)
  check_has "MS-W201"
    (one_router
       "ip prefix-list L permit 10.0.0.0/8 le 32\nip prefix-list L permit 10.2.0.0/16 le 32\n");
  (* empty ge/le range *)
  check_has "MS-W201" (one_router "ip prefix-list L permit 10.0.0.0/16 ge 24 le 20\n");
  (* a narrower earlier entry does not subsume *)
  check_not "MS-W201"
    (one_router
       "ip prefix-list L deny 10.2.0.0/16 le 32\nip prefix-list L permit 10.0.0.0/8 le 32\n")

let test_shadowed_acl () =
  check_has "MS-W202"
    (one_router
       "access-list X deny ip any 10.9.9.0 0.0.0.255\naccess-list X deny ip any 10.9.9.128 0.0.0.127\n");
  check_not "MS-W202"
    (one_router "access-list X deny ip any 10.9.9.0 0.0.0.255\naccess-list X permit ip any any\n")

let rm_with_lists lists clauses =
  one_router
    (lists ^ clauses
    ^ "router bgp 100\n neighbor 10.0.0.2 remote-as 200\n neighbor 10.0.0.2 route-map RM in\n")

let test_never_matching_clause () =
  (* the referenced prefix-list permits nothing *)
  check_has "MS-W203"
    (rm_with_lists "ip prefix-list NONE deny 0.0.0.0/0 le 32\n"
       "route-map RM permit 10\n match ip address prefix-list NONE\n!\nroute-map RM permit 20\n!\n");
  (* a list with a live permit entry is fine *)
  check_not "MS-W203"
    (rm_with_lists "ip prefix-list SOME permit 10.0.0.0/8 le 32\n"
       "route-map RM permit 10\n match ip address prefix-list SOME\n!\nroute-map RM permit 20\n!\n")

let test_unreachable_clause () =
  (* clause 20 sits behind a match-anything clause *)
  check_has "MS-W204"
    (rm_with_lists "" "route-map RM permit 10\n!\nroute-map RM permit 20\n set metric 5\n!\n");
  check_not "MS-W204"
    (rm_with_lists "ip prefix-list SOME permit 10.0.0.0/8 le 32\n"
       "route-map RM permit 10\n match ip address prefix-list SOME\n!\nroute-map RM permit 20\n!\n")

(* -- cross-device consistency ---------------------------------------------------- *)

let pair ~c1_bgp ~c2_bgp ?(c1_extra = "") () =
  Printf.sprintf
    {|hostname C1
interface e0
 ip address 10.0.0.1/30
interface e1
 ip address 10.1.0.1/24
!
%s%s!
hostname C2
interface e0
 ip address 10.0.0.2/30
!
%s|}
    c1_extra c1_bgp c2_bgp

let test_remote_as_mismatch () =
  check_has "MS-E301"
    (pair
       ~c1_bgp:"router bgp 100\n neighbor 10.0.0.2 remote-as 999\n"
       ~c2_bgp:"router bgp 200\n neighbor 10.0.0.1 remote-as 100\n" ());
  check_not "MS-E301" clean_pair

let test_neighbor_without_bgp () =
  check_has "MS-E302"
    (pair ~c1_bgp:"router bgp 100\n neighbor 10.0.0.2 remote-as 200\n" ~c2_bgp:"" ());
  check_not "MS-E302" clean_pair

let test_self_neighbor () =
  check_has "MS-E304"
    (pair
       ~c1_bgp:"router bgp 100\n neighbor 10.0.0.1 remote-as 100\n"
       ~c2_bgp:"router bgp 200\n" ());
  check_not "MS-E304" clean_pair

let test_one_sided_session () =
  check_has "MS-W301"
    (pair ~c1_bgp:"router bgp 100\n neighbor 10.0.0.2 remote-as 200\n" ~c2_bgp:"router bgp 200\n" ());
  check_not "MS-W301" clean_pair

let test_duplicate_router_id () =
  check_has "MS-W302"
    (pair
       ~c1_bgp:"router bgp 100\n bgp router-id 9.9.9.9\n neighbor 10.0.0.2 remote-as 200\n"
       ~c2_bgp:"router bgp 200\n bgp router-id 9.9.9.9\n neighbor 10.0.0.1 remote-as 100\n" ());
  check_not "MS-W302" clean_pair

(* A hub and two spokes in AS 100: without route-reflector-client marks
   the group is a broken mesh (B and C never peer); with them, A covers
   the group as a route reflector. *)
let ibgp_star rr =
  let client ip = if rr then Printf.sprintf " neighbor %s route-reflector-client\n" ip else "" in
  Printf.sprintf
    {|hostname A
interface e0
 ip address 10.0.12.1/30
interface e1
 ip address 10.0.13.1/30
!
router bgp 100
 neighbor 10.0.12.2 remote-as 100
%s neighbor 10.0.13.2 remote-as 100
%s!
hostname B
interface e0
 ip address 10.0.12.2/30
!
router bgp 100
 neighbor 10.0.12.1 remote-as 100
!
hostname C
interface e0
 ip address 10.0.13.2/30
!
router bgp 100
 neighbor 10.0.13.1 remote-as 100
|}
    (client "10.0.12.2") (client "10.0.13.2")

let test_ibgp_mesh () =
  check_has "MS-W303" (ibgp_star false);
  check_not "MS-W303" (ibgp_star true)

let test_ospf_no_interface () =
  check_has "MS-W304"
    (pair ~c1_bgp:"" ~c2_bgp:"" ~c1_extra:"router ospf 1\n network 203.0.113.0/24 area 0\n!\n" ());
  check_not "MS-W304"
    (pair ~c1_bgp:"" ~c2_bgp:"" ~c1_extra:"router ospf 1\n network 10.0.0.0/8 area 0\n!\n" ())

let test_neighbor_off_subnet () =
  check_has "MS-W305"
    (pair ~c1_bgp:"router bgp 100\n neighbor 192.0.2.9 remote-as 65000\n" ~c2_bgp:"" ());
  check_not "MS-W305" clean_pair

(* MS-E303 can only be produced from a hand-built AST: the parser rejects
   the same situation up front (tested in test_config). *)
let test_shared_subnet_ast () =
  let iface name ip len =
    {
      A.if_name = name;
      if_ip = Some (Net.Ipv4.of_string ip);
      if_prefix = Some (P.make (Net.Ipv4.of_string ip) len);
      if_acl_in = None;
      if_acl_out = None;
      if_cost = 1;
    }
  in
  let dev =
    { (A.empty_device "X") with A.dev_interfaces = [ iface "e0" "10.0.0.1" 24; iface "e1" "10.0.0.2" 24 ] }
  in
  let net = { A.net_devices = [ dev ]; net_topology = Net.Topology.empty } in
  let diags = Analysis.Lint.run net in
  Alcotest.(check bool) "E303 found" true (List.exists (fun (d : D.t) -> d.D.code = "MS-E303") diags);
  Alcotest.(check int) "exit code" 2 (Analysis.Lint.exit_code diags)

(* -- rendering ------------------------------------------------------------------- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_render_text () =
  let diags =
    Analysis.Lint.run
      (parse
         (pair
            ~c1_bgp:"router bgp 100\n bgp router-id 9.9.9.9\n neighbor 10.0.0.2 remote-as 200\n"
            ~c2_bgp:"router bgp 200\n bgp router-id 9.9.9.9\n neighbor 10.0.0.1 remote-as 100\n" ()))
  in
  let text = D.render_text diags in
  Alcotest.(check bool) "code shown" true (contains ~needle:"[MS-W302]" text);
  Alcotest.(check bool) "network-level" true (contains ~needle:"network: warning" text);
  Alcotest.(check bool) "summary line" true (contains ~needle:"0 error(s)" text)

let test_render_json () =
  let module J = Msutil.Json in
  let diags =
    Analysis.Lint.run (parse (one_router "route-map LONELY permit 10\n"))
  in
  let v =
    match J.parse (D.render_json diags) with Ok v -> v | Error e -> Alcotest.fail e
  in
  let first =
    match Option.bind (J.member "diagnostics" v) J.get_list with
    | Some (d :: _) -> d
    | _ -> Alcotest.fail "no diagnostics"
  in
  let str k = Option.bind (J.member k first) J.get_string in
  Alcotest.(check (option string)) "code field" (Some "MS-W101") (str "code");
  Alcotest.(check (option string)) "severity field" (Some "warning") (str "severity");
  Alcotest.(check (option string)) "device field" (Some "R1") (str "device");
  Alcotest.(check bool) "summary" true
    (J.member "summary" v
    = Some (J.Obj [ ("errors", J.Num 0.); ("warnings", J.Num 1.); ("infos", J.Num 0.) ]));
  (* escaping and absent fields *)
  let d = D.make ~code:"X" ~severity:D.Info {|say "hi"|} in
  let v = match J.parse (J.to_string (D.to_json d)) with Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check (option string)) "escaped quote" (Some {|say "hi"|})
    (Option.bind (J.member "message" v) J.get_string);
  Alcotest.(check bool) "null device" true (J.member "device" v = Some J.Null)

(* -- encoder pre-flight ---------------------------------------------------------- *)

(* An Error-level finding (undefined prefix-list) the encoder would
   otherwise tolerate: Filter.match_cond treats the list as
   unsatisfiable. *)
let broken_ref =
  rm_with_lists "" "route-map RM permit 10\n match ip address prefix-list GHOST\n!\nroute-map RM permit 20\n!\n"

let test_preflight () =
  let net = parse broken_ref in
  (match MS.Encode.build net MS.Options.default with
   | exception Analysis.Lint.Lint_errors errs ->
     Alcotest.(check bool) "errors reported" true
       (List.exists (fun (d : D.t) -> d.D.code = "MS-E002") errs)
   | _ -> Alcotest.fail "expected Lint_errors");
  (* the gate can be disabled *)
  let opts = { MS.Options.default with MS.Options.preflight_lint = false } in
  ignore (MS.Encode.build net opts);
  (* clean networks pass the gate silently *)
  ignore (MS.Encode.build (parse clean_pair) MS.Options.default)

(* -- slicing --------------------------------------------------------------------- *)

(* A lint-warning-rich (but error-free) pair: dead prefix-list entry,
   shadowed ACL entry, never-matching clause, unreachable clause. *)
let redundant_pair =
  {|hostname S1
interface e0
 ip address 10.0.0.1/30
interface e1
 ip address 10.1.0.1/24
 ip access-group FILT out
!
ip prefix-list NONE deny 0.0.0.0/0 le 32
ip prefix-list SUB permit 10.0.0.0/8 le 32
ip prefix-list SUB permit 10.2.0.0/16 le 32
access-list FILT deny ip any 10.9.9.0 0.0.0.255
access-list FILT deny ip any 10.9.9.128 0.0.0.127
access-list FILT permit ip any any
route-map IMP permit 10
 match ip address prefix-list NONE
!
route-map IMP permit 20
 match ip address prefix-list SUB
!
route-map IMP permit 30
!
route-map IMP permit 40
 set local-preference 200
!
router bgp 100
 network 10.1.0.0/24
 neighbor 10.0.0.2 remote-as 200
 neighbor 10.0.0.2 route-map IMP in
!
hostname S2
interface e0
 ip address 10.0.0.2/30
interface e1
 ip address 10.2.0.1/24
!
router bgp 200
 network 10.2.0.0/24
 neighbor 10.0.0.1 remote-as 100
|}

let test_slice_removes_dead () =
  let net = parse redundant_pair in
  let pe, ae, cl = Analysis.Slice.removed_counts net in
  Alcotest.(check int) "prefix entries removed" 1 pe;
  Alcotest.(check int) "acl entries removed" 1 ae;
  Alcotest.(check int) "clauses removed" 2 cl;
  (* after slicing, the dead-code analysis finds nothing *)
  let dead_after =
    List.filter
      (fun (d : D.t) -> String.length d.D.code > 4 && String.sub d.D.code 0 5 = "MS-W2")
      (Analysis.Lint.run (Analysis.Slice.network net))
  in
  Alcotest.(check int) "sliced net is dead-code free" 0 (List.length dead_after)

let violated = function MS.Verify.Violation _ -> true | MS.Verify.Holds -> false

let verdicts net prop =
  let v opts = violated (verify_net net opts prop) in
  (v MS.Options.default, v (MS.Options.with_slicing MS.Options.default))

let test_slice_differential () =
  (* the redundant pair: reachability of S1's subnet from S2 *)
  let net = parse redundant_pair in
  let prop enc =
    MS.Property.reachability enc ~sources:[ "S2" ] (MS.Property.Subnet ("S1", P.of_string "10.1.0.0/24"))
  in
  let plain, sliced = verdicts net prop in
  Alcotest.(check bool) "redundant pair verdicts agree" plain sliced;
  (* generator networks, loop- and blackhole-freedom *)
  let ft = (Generators.Fattree.make ~pods:2).Generators.Fattree.network in
  let plain, sliced = verdicts ft (fun enc -> MS.Property.no_loops enc ()) in
  Alcotest.(check bool) "fattree verdicts agree" plain sliced;
  let ent =
    (Generators.Enterprise.make ~seed:3 ~routers:6
       ~inject:{ Generators.Enterprise.hijack = false; acl_gap = false; deep_drop = false; single_homed = false }
       ())
      .Generators.Enterprise.network
  in
  let plain, sliced = verdicts ent (fun enc -> MS.Property.no_blackholes enc ~allowed:[] ()) in
  Alcotest.(check bool) "enterprise verdicts agree" plain sliced

let test_slice_shrinks () =
  let net = parse redundant_pair in
  let _, size_plain = MS.Encode.stats (MS.Encode.build net MS.Options.default) in
  let _, size_sliced =
    MS.Encode.stats (MS.Encode.build net (MS.Options.with_slicing MS.Options.default))
  in
  Alcotest.(check bool)
    (Printf.sprintf "sliced encoding smaller (%d < %d)" size_sliced size_plain)
    true (size_sliced < size_plain)

let () =
  Alcotest.run "analysis"
    [
      ( "refs",
        [
          Alcotest.test_case "clean config" `Quick test_clean;
          Alcotest.test_case "undefined" `Quick test_undefined_refs;
          Alcotest.test_case "unused" `Quick test_unused_defs;
        ] );
      ( "deadcode",
        [
          Alcotest.test_case "dead prefix entries" `Quick test_dead_prefix_entries;
          Alcotest.test_case "shadowed acl" `Quick test_shadowed_acl;
          Alcotest.test_case "never matches" `Quick test_never_matching_clause;
          Alcotest.test_case "unreachable" `Quick test_unreachable_clause;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "remote-as mismatch" `Quick test_remote_as_mismatch;
          Alcotest.test_case "neighbor without bgp" `Quick test_neighbor_without_bgp;
          Alcotest.test_case "self neighbor" `Quick test_self_neighbor;
          Alcotest.test_case "one-sided session" `Quick test_one_sided_session;
          Alcotest.test_case "duplicate router-id" `Quick test_duplicate_router_id;
          Alcotest.test_case "ibgp mesh" `Quick test_ibgp_mesh;
          Alcotest.test_case "ospf no interface" `Quick test_ospf_no_interface;
          Alcotest.test_case "neighbor off subnet" `Quick test_neighbor_off_subnet;
          Alcotest.test_case "shared subnet (ast)" `Quick test_shared_subnet_ast;
        ] );
      ( "render",
        [
          Alcotest.test_case "text" `Quick test_render_text;
          Alcotest.test_case "json" `Quick test_render_json;
        ] );
      ( "preflight", [ Alcotest.test_case "error gate" `Quick test_preflight ] );
      ( "slicing",
        [
          Alcotest.test_case "removes dead config" `Quick test_slice_removes_dead;
          Alcotest.test_case "differential verdicts" `Quick test_slice_differential;
          Alcotest.test_case "shrinks encoding" `Quick test_slice_shrinks;
        ] );
    ]
