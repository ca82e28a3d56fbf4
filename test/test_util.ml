(* Tests of the one JSON module (Msutil.Json) — the printer behind
   lint --format json/sarif, verify --format json, the serve protocol
   and every bench artifact, and the parser of serve requests — plus
   the SARIF rendering built on it, checked as parsed values. *)

module D = Analysis.Diagnostic
module J = Msutil.Json

let parse_ok text =
  match J.parse text with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" text e

(* A string survives print-then-parse, and its printed form holds no
   raw control byte (the serve protocol is one line per response). *)
let check_string name s =
  let text = J.to_string (J.Str s) in
  String.iter
    (fun c -> if Char.code c < 0x20 then Alcotest.failf "%s: raw control byte in %S" name text)
    text;
  Alcotest.(check (option string)) name (Some s) (J.get_string (parse_ok text))

let test_escape_plain () =
  check_string "identity" "hello";
  check_string "empty" ""

let test_escape_specials () =
  List.iter
    (fun (name, s) -> check_string name s)
    [
      ("quote", "a\"b"); ("backslash", "a\\b"); ("newline", "a\nb"); ("cr", "a\rb");
      ("tab", "a\tb"); ("backspace", "a\bb"); ("formfeed", "a\012b");
    ]

let test_escape_control () =
  check_string "NUL" "\000";
  check_string "ESC" "\027";
  (* bytes >= 0x20 pass through untouched, including 8-bit ones *)
  Alcotest.(check string) "high byte" "\"\xc3\xa9\"" (J.to_string (J.Str "\xc3\xa9"))

let test_quote () =
  Alcotest.(check (option string)) "quote" (Some "a\"b") (J.get_string (parse_ok (J.quote "a\"b")));
  Alcotest.(check string) "quote is the printer" (J.to_string (J.Str "a\"b")) (J.quote "a\"b")

(* Integral values up to 2^53 print without a fraction, others in the
   shortest form that reads back; NaN and infinities print as null. *)
let test_numbers () =
  let show f = J.to_string (J.Num f) in
  Alcotest.(check string) "integral" "42" (show 42.0);
  Alcotest.(check string) "negative integral" "-7" (show (-7.0));
  Alcotest.(check string) "2^53" "9007199254740992" (show 9007199254740992.0);
  Alcotest.(check string) "shortest" "0.1" (show 0.1);
  Alcotest.(check string) "two decimals" "12.35" (show 12.35);
  List.iter
    (fun f ->
      if J.parse (show f) <> Ok (J.Num f) then Alcotest.failf "%h printed %s" f (show f))
    [ 9007199254740994.0; 1e300; -1e-300; 5e-324; Float.pi; 1.0 /. 3.0 ];
  List.iter
    (fun f -> Alcotest.(check string) "non-finite" "null" (show f))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check string) "inside containers" {|[null,{"x":null}]|}
    (J.to_string (J.Arr [ J.Num Float.nan; J.Obj [ ("x", J.Num Float.infinity) ] ]))

(* The report renderer goes through the shared printer. *)
let test_shared_everywhere () =
  let r =
    {
      Minesweeper.Verify.Report.label = "a\"b\\c\nd";
      verdict = Minesweeper.Verify.Report.Error "e\001";
      certificate = Minesweeper.Verify.Report.Uncertified;
      wall_ms = 1.5;
      stats = Minesweeper.Verify.Report.empty_stats;
      worker = 0;
      strategy = None;
      support = Some [ "x" ];
      replayed = false;
      method_ = None;
    }
  in
  Alcotest.(check string)
    "verify report text is the shared printer's"
    (J.to_string (Minesweeper.Verify.Report.json r))
    (Minesweeper.Verify.Report.to_json r)

(* Integral floats past 2^53 used to come back wrapped ([1e300] read as
   [Some 0]), so a request field like ["bound":1e300] ran with bound 0. *)
let test_get_int_range () =
  let get text = J.get_int (parse_ok text) in
  let check_opt = Alcotest.(check (option int)) in
  check_opt "small" (Some 42) (get "42");
  check_opt "negative" (Some (-7)) (get "-7");
  check_opt "2^53" (Some 9007199254740992) (get "9007199254740992");
  check_opt "-2^53" (Some (-9007199254740992)) (get "-9007199254740992");
  check_opt "fraction" None (get "1.5");
  check_opt "1e300" None (get "1e300");
  check_opt "-1e300" None (get "-1e300");
  check_opt "2^53 + 2" None (get "9007199254740994")

(* A \u escape must carry four hex digits; anything else is a parse
   error, never an exception. *)
let test_bad_unicode_escape () =
  List.iter
    (fun text ->
      match J.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" text
      | exception e -> Alcotest.failf "%s raised %s" text (Printexc.to_string e))
    [ {|"\uZZZZ"|}; {|"\u12G4"|}; {|"\u+123"|}; {|"\u1_23"|}; {|"\u12"|} ];
  Alcotest.(check (option string)) "decoded" (Some "\xc3\xa9A") (J.get_string (parse_ok {|"\u00e9\u0041"|}))

(* Nesting is bounded: one request line of ten thousand open brackets
   used to recurse ten thousand deep (and millions of them took
   seconds to minutes). *)
let test_nesting_depth () =
  let nested n = String.make n '[' ^ String.make n ']' in
  (match J.parse (nested 10_000) with
   | Error e ->
     Alcotest.(check bool) ("located error: " ^ e) true
       (String.starts_with ~prefix:"nesting too deep at byte" e)
   | Ok _ -> Alcotest.fail "10000-deep array accepted");
  Alcotest.(check bool) "512 deep parses" true (Result.is_ok (J.parse (nested 512)));
  Alcotest.(check bool) "513 deep rejected" true (Result.is_error (J.parse (nested 513)));
  Alcotest.(check bool) "objects count too" true
    (Result.is_error (J.parse (String.concat "" (List.init 600 (fun _ -> {|{"a":|})))))

let gen_value =
  let open QCheck.Gen in
  let str =
    string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\000'; '\x1f'; '\x7f'; '\xc3'; '\xff' ] ]) (0 -- 10)
  in
  let num =
    oneof
      [
        map float_of_int small_signed_int;
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        oneofl [ 9007199254740992.0; -9007199254740992.0; 9007199254740994.0; 1e300; 0.1; 5e-324 ];
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof [ return J.Null; map (fun b -> J.Bool b) bool; map (fun f -> J.Num f) num; map (fun s -> J.Str s) str ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.Arr l) (list_size (0 -- 4) (self (n / 3))));
               (1, map (fun l -> J.Obj l) (list_size (0 -- 4) (pair str (self (n / 3)))));
             ])

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (to_string v) = v, compact and pretty" ~count:500
    (QCheck.make ~print:J.to_string gen_value)
    (fun v -> J.parse (J.to_string v) = Ok v && J.parse (J.to_string ~pretty:true v) = Ok v)

(* Every committed artifact is valid JSON.  Under dune the test runs
   in the build copy of test/, with the artifacts copied in as deps
   one directory up. *)
let test_artifacts_parse () =
  let root = if Sys.file_exists "BENCHMARK.json" then "." else ".." in
  let files =
    Sys.readdir root |> Array.to_list
    |> List.filter (fun f ->
           f = "BENCHMARK.json" || (String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json"))
    |> List.map (Filename.concat root)
  in
  Alcotest.(check bool) "artifacts found" true (List.length files > 1);
  List.iter
    (fun f ->
      match J.parse (In_channel.with_open_bin f In_channel.input_all) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" f e)
    files

let sarif diags = parse_ok (D.render_sarif ~uri:"net.cfg" diags)

let rec path v = function
  | [] -> v
  | k :: rest -> (
    match (v, int_of_string_opt k) with
    | J.Arr vs, Some i -> path (List.nth vs i) rest
    | _ -> path (Option.get (J.member k v)) rest)

let str v p = J.get_string (path v (String.split_on_char '.' p))

let sample_diags () =
  [
    D.make ~code:"MS-E101" ~severity:D.Error ~device:"r1" ~obj:"route-map \"RM\""
      "undefined route-map";
    D.make ~code:"MS-W401" ~severity:D.Warning ~device:"core_3"
      "near-symmetry broken";
  ]

let test_sarif_shape () =
  let s = sarif (sample_diags ()) in
  let check p want = Alcotest.(check (option string)) p (Some want) (str s p) in
  check "version" "2.1.0";
  check "$schema" "https://json.schemastore.org/sarif-2.1.0.json";
  check "runs.0.results.0.ruleId" "MS-E101";
  check "runs.0.results.1.ruleId" "MS-W401";
  check "runs.0.results.0.level" "error";
  check "runs.0.results.1.level" "warning";
  check "runs.0.results.0.locations.0.physicalLocation.artifactLocation.uri" "net.cfg";
  (* the device/object location, quotes intact *)
  check "runs.0.results.0.locations.0.logicalLocations.0.fullyQualifiedName" "r1/route-map \"RM\"";
  check "runs.0.results.1.locations.0.logicalLocations.0.fullyQualifiedName" "core_3"

let test_sarif_rules_deduped () =
  (* two findings with one code produce a single rule entry *)
  let two =
    [
      D.make ~code:"MS-W401" ~severity:D.Warning ~device:"a" "x";
      D.make ~code:"MS-W401" ~severity:D.Warning ~device:"b" "y";
    ]
  in
  let s = sarif two in
  let count p = List.length (Option.get (J.get_list (path s (String.split_on_char '.' p)))) in
  Alcotest.(check int) "one rule" 1 (count "runs.0.tool.driver.rules");
  Alcotest.(check int) "two results" 2 (count "runs.0.results")

let test_sarif_empty () =
  Alcotest.(check bool) "valid empty run" true (path (sarif []) [ "runs"; "0"; "results" ] = J.Arr [])

(* --- Vec: the SAT core's growable array ----------------------------------- *)

module V = Smt.Vec

let test_vec_basics () =
  let v = V.create ~dummy:(-1) () in
  Alcotest.(check bool) "empty" true (V.is_empty v);
  for i = 0 to 99 do
    V.push v i
  done;
  Alcotest.(check int) "size" 100 (V.size v);
  Alcotest.(check int) "get" 42 (V.get v 42);
  V.set v 42 7;
  Alcotest.(check int) "set" 7 (V.get v 42);
  Alcotest.(check int) "last" 99 (V.last v);
  Alcotest.(check int) "pop" 99 (V.pop v);
  Alcotest.(check int) "size after pop" 99 (V.size v);
  V.shrink v 10;
  Alcotest.(check int) "size after shrink" 10 (V.size v);
  Alcotest.(check int) "kept prefix" 9 (V.get v 9);
  V.clear v;
  Alcotest.(check bool) "cleared" true (V.is_empty v)

let test_vec_unsafe_accessors () =
  (* In-bounds behavior must be identical to the checked accessors;
     the tests run with MS_VEC_DEBUG unset, so this also covers the
     release configuration the solver ships with. *)
  let v = V.create ~dummy:0 () in
  for i = 0 to 999 do
    V.push v (i * 3)
  done;
  for i = 0 to 999 do
    if V.unsafe_get v i <> V.get v i then Alcotest.failf "unsafe_get mismatch at %d" i
  done;
  V.unsafe_set v 500 (-9);
  Alcotest.(check int) "unsafe_set visible to get" (-9) (V.get v 500);
  (* Out-of-bounds raises only when the debug flag was set at startup;
     assert the flag's wiring is consistent either way. *)
  if V.debug then begin
    (match V.unsafe_get v 1000 with
     | exception Invalid_argument _ -> ()
     | _ -> Alcotest.fail "debug mode should bounds-check unsafe_get");
    match V.unsafe_set v (-1) 0 with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "debug mode should bounds-check unsafe_set"
  end

let test_vec_blit () =
  let src = V.create ~dummy:(-1) () in
  for i = 0 to 9 do
    V.push src i
  done;
  (* overwrite inside dst *)
  let dst = V.create ~dummy:(-1) () in
  for _ = 0 to 4 do
    V.push dst 100
  done;
  V.blit src 2 dst 1 3;
  Alcotest.(check (list int)) "overwrite" [ 100; 2; 3; 4; 100 ] (V.to_list dst);
  (* copy extending past dst's current size grows it *)
  V.blit src 0 dst 3 7;
  Alcotest.(check int) "grown" 10 (V.size dst);
  Alcotest.(check (list int)) "extended" [ 100; 2; 3; 0; 1; 2; 3; 4; 5; 6 ] (V.to_list dst);
  (* appending exactly at the end works; holes are rejected *)
  let fresh = V.create ~dummy:(-1) () in
  V.blit src 0 fresh 0 10;
  Alcotest.(check (list int)) "append to empty" (V.to_list src) (V.to_list fresh);
  (match V.blit src 0 fresh 11 1 with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "blit must not create holes");
  (* bad source ranges are rejected *)
  (match V.blit src 8 fresh 0 3 with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "source overrun");
  match V.blit src 0 fresh 0 (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative length"

let test_vec_swap_remove_sort () =
  let v = V.create ~dummy:(-1) () in
  List.iter (V.push v) [ 5; 1; 4; 2; 3 ];
  V.swap_remove v 1;
  Alcotest.(check int) "size" 4 (V.size v);
  V.sort_in_place compare v;
  Alcotest.(check (list int)) "sorted remainder" [ 2; 3; 4; 5 ] (V.to_list v)

let () =
  Alcotest.run "util"
    [
      ( "json",
        [
          Alcotest.test_case "plain strings" `Quick test_escape_plain;
          Alcotest.test_case "specials" `Quick test_escape_specials;
          Alcotest.test_case "control chars" `Quick test_escape_control;
          Alcotest.test_case "quote" `Quick test_quote;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "shared by verify" `Quick test_shared_everywhere;
          Alcotest.test_case "get_int range" `Quick test_get_int_range;
          Alcotest.test_case "bad unicode escape" `Quick test_bad_unicode_escape;
          Alcotest.test_case "nesting depth" `Quick test_nesting_depth;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "committed artifacts parse" `Quick test_artifacts_parse;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "shape" `Quick test_sarif_shape;
          Alcotest.test_case "rules deduped" `Quick test_sarif_rules_deduped;
          Alcotest.test_case "empty" `Quick test_sarif_empty;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "unsafe accessors" `Quick test_vec_unsafe_accessors;
          Alcotest.test_case "blit" `Quick test_vec_blit;
          Alcotest.test_case "swap_remove and sort" `Quick test_vec_swap_remove_sort;
        ] );
    ]
