(* Command-line interface: verify properties of configuration files,
   simulate the control plane, and generate synthetic networks.

   Examples:
     minesweeper verify net.cfg --property reachability --source R1 \
       --dst-device R2 --dst-prefix 10.2.0.0/24
     minesweeper verify net.cfg --property blackholes --failures 1
     minesweeper simulate net.cfg --trace R1:10.2.0.9
     minesweeper gen fattree --pods 4
     minesweeper gen enterprise --routers 12 --seed 7 --hijack *)

open Cmdliner
module MS = Minesweeper
module A = Config.Ast

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_network path =
  try Config.Parser.parse_network (read_file path) with
  | Config.Parser.Parse_error e ->
    Printf.eprintf "%s\n" (Config.Parser.error_to_string ~file:path e);
    exit 2

(* ---- common args ---- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG" ~doc:"Configuration file.")

let opts_of ?(slice = false) naive failures =
  let base = if naive then MS.Options.naive else MS.Options.default in
  let base = if slice then MS.Options.with_slicing base else base in
  match failures with None -> base | Some k -> MS.Options.with_failures k base

(* ---- verify ---- *)

let verify_cmd =
  let property =
    Arg.(
      value
      & opt (enum
               [
                 ("reachability", `Reachability);
                 ("isolation", `Isolation);
                 ("bounded-length", `Bounded);
                 ("blackholes", `Blackholes);
                 ("loops", `Loops);
                 ("multipath-consistency", `Multipath);
                 ("acl-equivalence", `Acl_equiv);
                 ("local-equivalence", `Local_equiv);
                 ("no-leak", `Leak);
                 ("fault-invariance", `Fault);
               ])
          `Reachability
      & info [ "property"; "p" ] ~doc:"Property to verify.")
  in
  let sources =
    Arg.(value & opt (list string) [] & info [ "source"; "s" ] ~doc:"Source devices (default all).")
  in
  let dst_device =
    Arg.(value & opt (some string) None & info [ "dst-device" ] ~doc:"Destination device.")
  in
  let dst_prefix =
    Arg.(value & opt (some string) None & info [ "dst-prefix" ] ~doc:"Destination prefix.")
  in
  let bound = Arg.(value & opt int 4 & info [ "bound" ] ~doc:"Hop bound for bounded-length.") in
  let devices =
    Arg.(value & opt (list string) [] & info [ "devices" ] ~doc:"Device pair for equivalence.")
  in
  let max_len = Arg.(value & opt int 24 & info [ "max-len" ] ~doc:"Max exported length for no-leak.") in
  let failures =
    Arg.(value & opt (some int) None & info [ "failures"; "k" ] ~doc:"Verify under up to $(docv) link failures.")
  in
  let max_failures =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-failures" ] ~docv:"K"
          ~doc:
            "With $(b,--property fault-invariance): sweep k = 1..$(docv), one report per k. \
             Each k asks the graph fast path (min-cut over the simulator's converged \
             forwarding) first and solves the SMT encoding only when it declines; the \
             report's $(b,method) field records which path answered (graph or fallback).")
  in
  let naive = Arg.(value & flag & info [ "naive" ] ~doc:"Disable the optimizations of \xc2\xa76.") in
  let slice =
    Arg.(value & flag & info [ "slice" ] ~doc:"Delete provably-dead policy clauses before encoding.")
  in
  let no_lint =
    Arg.(value & flag & info [ "no-lint" ] ~doc:"Skip the pre-flight lint of the configuration.")
  in
  let allowed =
    Arg.(value & opt (list string) [] & info [ "allowed" ] ~doc:"Devices allowed to drop (blackholes).")
  in
  let batch =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "batch" ]
          ~docv:"PROPS"
          ~doc:
            "Verify a comma-separated suite of properties in one incremental session: the \
             network is encoded and asserted once and every query reuses the solver's learned \
             state. Accepts the same names as $(b,--property) plus $(b,all-pairs) \
             (per-destination reachability from every other device). Example: \
             $(b,--batch reachability,blackholes,loops) or $(b,--batch all-pairs).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Shard the query suite across $(docv) worker processes, each running its shard on \
             its own incremental session. Results are reported in query order regardless of \
             completion order; 1 (the default) answers everything in-process.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-query wall-clock budget. A query past its budget is cancelled and reported \
             as $(b,timeout) (exit status 3); the remaining queries still run.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format"; "f" ] ~doc:"Output format: text or json.")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Certify every verdict independently: replay UNSAT proofs through the standalone \
             checker (theory lemmas re-justified) and validate counterexamples by model \
             evaluation plus concrete simulator replay. A verdict whose certificate fails \
             makes the exit status 4.")
  in
  let symmetry =
    Arg.(
      value & flag
      & info [ "symmetry" ]
          ~doc:
            "Verify the symmetry quotient instead of the full network: devices are \
             partitioned into interchangeability classes (color refinement over \
             renaming-invariant configuration fingerprints) and one representative per class \
             is encoded. Devices the property names ($(b,--dst-device), $(b,--source), \
             $(b,--devices), $(b,--allowed)) are pinned and stay concrete; a verdict for a \
             representative lifts to every member of its class. Falls back to the full \
             encoding when the network is asymmetric or uses features whose quotient \
             semantics would differ (iBGP, statics with internal next hops, \
             $(b,--failures)); ignored for $(b,--batch all-pairs), where every destination \
             must stay concrete.")
  in
  let run file property sources dst_device dst_prefix bound devices max_len failures
        max_failures naive slice no_lint allowed batch jobs timeout format certify
        symmetry =
    let net = load_network file in
    let opts = opts_of ~slice naive failures in
    let opts = if no_lint then { opts with MS.Options.preflight_lint = false } else opts in
    let opts = if certify then MS.Options.with_certify opts else opts in
    (* shared tail: render a report suite and exit with its code *)
    let finish t0 (reports : MS.Verify.Report.t list) =
      let total_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let code = MS.Verify.Report.exit_code reports in
      (match format with
       | `Json ->
         print_string
           (Msutil.Json.to_string ~pretty:true
              (Msutil.Json.Arr (List.map MS.Verify.Report.json reports)))
       | `Text ->
         let count p = List.length (List.filter p reports) in
         List.iter
           (fun (r : MS.Verify.Report.t) ->
             let display =
               match r.MS.Verify.Report.verdict with
               | MS.Verify.Report.Verified -> "verified"
               | MS.Verify.Report.Violated _ -> "VIOLATED"
               | MS.Verify.Report.Timeout -> "TIMEOUT"
               | MS.Verify.Report.Error _ -> "ERROR"
             in
             let meth_tag =
               match r.MS.Verify.Report.method_ with
               | Some m -> Printf.sprintf "  [%s]" (MS.Verify.Report.method_name m)
               | None -> ""
             in
             let tag =
               if r.MS.Verify.Report.worker > 0 then
                 Printf.sprintf "  [w%d]" r.MS.Verify.Report.worker
               else ""
             in
             let cert_tag =
               match r.MS.Verify.Report.certificate with
               | MS.Verify.Report.Uncertified -> ""
               | MS.Verify.Report.Checked_unsat_proof { clauses; lemmas; _ } ->
                 Printf.sprintf "  [proof: %d clauses, %d lemmas]" clauses lemmas
               | MS.Verify.Report.Checked_model -> "  [model replayed]"
               | MS.Verify.Report.Certification_failed _ -> "  [CERTIFICATION FAILED]"
             in
             Printf.printf "  %-36s %-9s %8.1f ms%s%s%s\n%!" r.MS.Verify.Report.label display
               r.MS.Verify.Report.wall_ms meth_tag tag cert_tag;
             (match r.MS.Verify.Report.certificate with
              | MS.Verify.Report.Certification_failed msg ->
                Printf.printf "    certification: %s\n" msg
              | _ -> ());
             match r.MS.Verify.Report.verdict with
             | MS.Verify.Report.Violated cx -> print_string (MS.Counterexample.to_string cx)
             | MS.Verify.Report.Error e -> Printf.printf "    error: %s\n" e
             | _ -> ())
           reports;
         let is v (r : MS.Verify.Report.t) =
           MS.Verify.Report.verdict_name r.MS.Verify.Report.verdict = v
         in
         Printf.printf "%d queries in %.1f ms (%d verified, %d violated, %d timeout, %d error)\n"
           (List.length reports) total_ms (count (is "verified")) (count (is "violated"))
           (count (is "timeout")) (count (is "error")));
      exit code
    in
    (* fault-invariance sweeps ask the graph fast path first and build
       their own two-copy encodings per k only when it declines, so they
       skip the shared-encoding pipeline below *)
    let refuse_lint errs =
      prerr_endline "configuration has lint errors; not encoding:";
      prerr_string (Analysis.Diagnostic.render_text errs);
      exit 2
    in
    (match property with
     | `Fault ->
       if batch <> None then begin
         prerr_endline "--property fault-invariance cannot be combined with --batch";
         exit 2
       end;
       let all_devices =
         List.map (fun (d : Config.Ast.device) -> d.Config.Ast.dev_name)
           net.Config.Ast.net_devices
       in
       let sources = if sources = [] then all_devices else sources in
       let dest =
         match (dst_device, dst_prefix) with
         | Some d, Some p -> MS.Property.Subnet (d, Net.Prefix.of_string p)
         | Some d, None -> MS.Property.Device d
         | None, _ ->
           prerr_endline "missing --dst-device";
           exit 2
       in
       let ks =
         match max_failures with
         | Some kmax when kmax >= 1 -> List.init kmax (fun i -> i + 1)
         | Some _ ->
           prerr_endline "--max-failures must be at least 1";
           exit 2
         | None -> [ (match failures with Some k -> max k 0 | None -> 1) ]
       in
       let t0 = Unix.gettimeofday () in
       finish t0
         (try List.map (fun k -> Faults.hybrid ?timeout net opts ~k ~sources dest) ks
          with Analysis.Lint.Lint_errors errs -> refuse_lint errs)
     | _ -> ());
    let symmetry =
      if symmetry && (match batch with Some names -> List.mem "all-pairs" names | None -> false)
      then begin
        prerr_endline
          "note: --symmetry is ignored for --batch all-pairs (every destination must stay \
           concrete)";
        false
      end
      else symmetry
    in
    let opts = if symmetry then MS.Options.with_symmetry opts else opts in
    (* every device the property names must survive the quotient as
       itself, so pin the user-specified endpoints *)
    let pins =
      if not symmetry then []
      else (match dst_device with Some d -> [ d ] | None -> []) @ devices @ allowed @ sources
    in
    let enc =
      try MS.Encode.build ~pins net opts with
      | Analysis.Lint.Lint_errors errs -> refuse_lint errs
    in
    if symmetry then begin
      match MS.Encode.sym_classes enc with
      | [] ->
        prerr_endline
          "symmetry: no reduction possible (asymmetric network or unsupported features); \
           verifying the full encoding"
      | cs ->
        let collapsed =
          List.fold_left (fun acc (_, ms) -> acc + List.length ms - 1) 0 cs
        in
        Printf.eprintf "symmetry: %d device(s) collapsed into %d class representative(s)\n%!"
          collapsed (List.length cs)
    end;
    let all_devices = MS.Encode.devices enc in
    let sources = if sources = [] then all_devices else sources in
    let dest () =
      match (dst_device, dst_prefix) with
      | Some d, Some p -> MS.Property.Subnet (d, Net.Prefix.of_string p)
      | Some d, None -> MS.Property.Device d
      | None, _ ->
        prerr_endline "missing --dst-device";
        exit 2
    in
    let pair_or_exit () =
      match devices with
      | [ d1; d2 ] -> (d1, d2)
      | _ ->
        prerr_endline "--devices d1,d2 required";
        exit 2
    in
    (* A property name expands to one or more labelled queries over the
       shared encoding; [all-pairs] fans out per destination device. *)
    let queries_of = function
      | `Reachability ->
        [ ("reachability", fun enc -> MS.Property.reachability enc ~sources (dest ())) ]
      | `Isolation -> [ ("isolation", fun enc -> MS.Property.isolation enc ~sources (dest ())) ]
      | `Bounded ->
        [ ("bounded-length", fun enc -> MS.Property.bounded_length enc ~sources (dest ()) ~bound) ]
      | `Blackholes -> [ ("blackholes", fun enc -> MS.Property.no_blackholes enc ~allowed ()) ]
      | `Loops -> [ ("loops", fun enc -> MS.Property.no_loops enc ()) ]
      | `Multipath ->
        [ ("multipath-consistency", fun enc -> MS.Property.multipath_consistency enc (dest ())) ]
      | `Acl_equiv ->
        let d1, d2 = pair_or_exit () in
        [ ("acl-equivalence", fun enc -> MS.Property.acl_equivalence enc d1 d2) ]
      | `Local_equiv ->
        let d1, d2 = pair_or_exit () in
        [ ("local-equivalence", fun enc -> MS.Property.local_equivalence enc d1 d2) ]
      | `Leak -> [ ("no-leak", fun enc -> MS.Property.no_leak enc ~max_len) ]
      | `Fault ->
        (* handled by the early branch above; batch names reach here *)
        prerr_endline "fault-invariance cannot run over a shared batch encoding";
        exit 2
      | `All_pairs ->
        List.filter_map
          (fun d ->
            if MS.Encode.subnets enc d = [] then None
            else begin
              let srcs = List.filter (fun s -> s <> d) all_devices in
              Some
                ( "reachability *->" ^ d,
                  fun enc -> MS.Property.reachability enc ~sources:srcs (MS.Property.Device d) )
            end)
          all_devices
    in
    let parse name =
      match name with
      | "reachability" -> `Reachability
      | "isolation" -> `Isolation
      | "bounded-length" -> `Bounded
      | "blackholes" -> `Blackholes
      | "loops" -> `Loops
      | "multipath-consistency" -> `Multipath
      | "acl-equivalence" -> `Acl_equiv
      | "local-equivalence" -> `Local_equiv
      | "no-leak" -> `Leak
      | "fault-invariance" -> `Fault
      | "all-pairs" -> `All_pairs
      | other ->
        Printf.eprintf "unknown batch property %s\n" other;
        exit 2
    in
    let queries =
      let named =
        match batch with
        | None -> queries_of property
        | Some names -> List.concat_map (fun n -> queries_of (parse n)) names
      in
      List.map (fun (label, make) -> MS.Verify.Query.v label make) named
    in
    if queries = [] then begin
      prerr_endline "empty batch";
      exit 2
    end;
    let t0 = Unix.gettimeofday () in
    finish t0 (Engine.run ~jobs ?timeout enc queries)
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 — every property holds.";
      `P "1 — at least one property is violated (dominates timeouts and worker errors).";
      `P "2 — usage, parse, or lint error: nothing was verified.";
      `P "3 — a query timed out or a worker failed, and nothing was violated.";
      `P
        "4 — with $(b,--certify): a verdict's independent certificate failed (dominates every \
         other status; the verdict cannot be trusted in either direction).";
    ]
  in
  Cmd.v (Cmd.info "verify" ~man ~doc:"Verify a property of a configuration.")
    Term.(
      const run $ file_arg $ property $ sources $ dst_device $ dst_prefix $ bound $ devices
      $ max_len $ failures $ max_failures $ naive $ slice $ no_lint $ allowed $ batch $ jobs
      $ timeout $ format $ certify $ symmetry)

(* ---- lint ---- *)

let lint_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format"; "f" ] ~doc:"Output format: text, json, or sarif (SARIF 2.1.0).")
  in
  let run file format =
    let net = load_network file in
    let diags = Analysis.Lint.run net in
    (match format with
     | `Text -> print_string (Analysis.Diagnostic.render_text diags)
     | `Json -> print_string (Analysis.Diagnostic.render_json diags)
     | `Sarif -> print_string (Analysis.Diagnostic.render_sarif ~uri:file diags));
    exit (Analysis.Lint.exit_code diags)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a configuration: undefined/unused references, dead and shadowed \
          policy clauses, cross-device inconsistencies. Exit status is 0 when clean, 1 with \
          warnings, 2 with errors.")
    Term.(const run $ file_arg $ format)

(* ---- simulate ---- *)

let simulate_cmd =
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc:"Trace SRC:DSTIP through the network.")
  in
  let ribs = Arg.(value & flag & info [ "ribs" ] ~doc:"Print every device's routes.") in
  let run file trace ribs =
    let net = load_network file in
    let state = Routing.Simulator.run net Routing.Simulator.empty_env in
    if not (Routing.Simulator.converged state) then
      prerr_endline "warning: simulation did not converge";
    if ribs then
      List.iter
        (fun (d : A.device) ->
          Printf.printf "%s:\n" d.A.dev_name;
          List.iter
            (fun r -> Format.printf "  %a@." Routing.Route.pp r)
            (Routing.Simulator.overall_rib state d.A.dev_name))
        net.A.net_devices;
    match trace with
    | None -> ()
    | Some spec ->
      (match String.split_on_char ':' spec with
       | [ src; dst ] ->
         let t = Routing.Dataplane.trace net state ~src ~dst:(Net.Ipv4.of_string dst) in
         Format.printf "%a@." Routing.Dataplane.pp_trace t
       | _ ->
         prerr_endline "--trace expects SRC:DSTIP";
         exit 2)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the concrete control-plane simulator.")
    Term.(const run $ file_arg $ trace $ ribs)

(* ---- gen ---- *)

let gen_cmd =
  let kind =
    Arg.(
      required
      & pos 0 (some (enum [ ("fattree", `Fattree); ("enterprise", `Enterprise) ])) None
      & info [] ~docv:"KIND" ~doc:"fattree or enterprise.")
  in
  let pods = Arg.(value & opt int 4 & info [ "pods" ] ~doc:"Fat-tree pods (even).") in
  let routers = Arg.(value & opt int 8 & info [ "routers" ] ~doc:"Enterprise router count.") in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Generator seed.") in
  let hijack = Arg.(value & flag & info [ "hijack" ] ~doc:"Inject the management-hijack bug.") in
  let acl_gap = Arg.(value & flag & info [ "acl-gap" ] ~doc:"Inject the ACL-inconsistency bug.") in
  let deep = Arg.(value & flag & info [ "deep-drop" ] ~doc:"Inject the deep blackhole bug.") in
  let single_homed =
    Arg.(value & flag & info [ "single-homed" ] ~doc:"Inject the single-homed-rack bug.")
  in
  let run kind pods routers seed hijack acl_gap deep single_homed =
    let net =
      match kind with
      | `Fattree -> (Generators.Fattree.make ~pods).Generators.Fattree.network
      | `Enterprise ->
        (Generators.Enterprise.make ~seed ~routers
           ~inject:{ Generators.Enterprise.hijack; acl_gap; deep_drop = deep; single_homed }
           ())
          .Generators.Enterprise.network
    in
    print_string (Config.Printer.network_to_string net)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic network configuration.")
    Term.(const run $ kind $ pods $ routers $ seed $ hijack $ acl_gap $ deep $ single_homed)

(* ---- serve ---- *)

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket to listen on (an existing file is replaced).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Cap on the per-request worker-process fan-out; query requests asking for more are \
             clamped. 1 (the default) answers everything in-process on the persistent \
             incremental session.")
  in
  let failures =
    Arg.(value & opt (some int) None & info [ "failures"; "k" ] ~doc:"Verify under up to $(docv) link failures.")
  in
  let naive = Arg.(value & flag & info [ "naive" ] ~doc:"Disable the optimizations of \xc2\xa76.") in
  let no_lint =
    Arg.(value & flag & info [ "no-lint" ] ~doc:"Skip the pre-flight lint when encoding.")
  in
  let run socket jobs failures naive no_lint =
    let opts = opts_of naive failures in
    let opts = if no_lint then { opts with MS.Options.preflight_lint = false } else opts in
    Serve.run (Serve.create ~jobs opts) ~socket
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Run the verification daemon: a long-lived process speaking line-delimited JSON \
         (schema 2) over a Unix-domain socket. Each request line is one object with an \
         $(b,op) field — $(b,load) and $(b,diff) carry a $(b,config) string, $(b,query) \
         carries a $(b,queries) array of property specs (the $(b,verify) vocabulary) and an \
         optional $(b,jobs), and $(b,stats)/$(b,shutdown) take no arguments. Each response \
         is one JSON line.";
      `P
        "The daemon caches encodings by concrete configuration digest and verdicts by query \
         spec; a $(b,diff) whose change is disjoint from a cached verdict's support set \
         replays that verdict without solving (reports carry $(b,replayed):true).";
      `S Manpage.s_exit_status;
      `P "0 — clean shutdown (a $(b,shutdown) request).";
      `P "2 — usage error or the socket could not be bound.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~man ~doc:"Run the verification daemon on a Unix-domain socket.")
    Term.(const run $ socket $ jobs $ failures $ naive $ no_lint)

(* ---- parse ---- *)

let parse_cmd =
  let run file =
    let net = load_network file in
    Printf.printf "devices: %d, links: %d, config lines: %d\n"
      (List.length net.A.net_devices)
      (Net.Topology.num_links net.A.net_topology)
      (Config.Printer.network_config_lines net)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and summarize a configuration.") Term.(const run $ file_arg)

let () =
  let doc = "Network configuration verification (Minesweeper reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "minesweeper" ~doc)
          [ verify_cmd; lint_cmd; simulate_cmd; gen_cmd; parse_cmd; serve_cmd ]))
