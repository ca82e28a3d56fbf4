(* Verification as a service: a long-lived daemon wrapping the
   Query/Report API behind the line-JSON protocol of
   [Verify.Protocol].

   Two caches make the daemon more than a socket wrapper:

   - an *encoding cache* keyed by the concrete network digest
     ([Analysis.Symmetry.digest] per device + the topology), so
     re-loading a previously-seen configuration (the A -> B -> A flap
     of a rolled-back change) reuses the built encoding *and* its
     incremental solver session, learnt clauses included;

   - a *verdict cache* keyed by [Protocol.spec_key], migrated across
     config diffs by core-disjoint replay: a [Verified] report from a
     support-tracking session names the devices its refutation used,
     and when a diff's (conservatively expanded) changed-device set is
     disjoint from that support, the old verdict is replayed into the
     new state without touching a solver — see DESIGN.md for the
     soundness argument and the full-fallback conditions.

   Encodings are built lazily: a diff whose cached verdicts all replay,
   followed by queries answered from the cache, never encodes the new
   network at all. *)

module A = Config.Ast
module J = Msutil.Json
module MS = Minesweeper
module Verify = Minesweeper.Verify
module Protocol = Verify.Protocol
module Report = Verify.Report

let schema = Report.schema_version

(* -- network states and their digests -------------------------------------- *)

type built = { b_enc : MS.Encode.t; b_session : Verify.Session.t }

type netstate = {
  ns_net : A.network;
  ns_key : string;  (* concrete digest of the whole network *)
  ns_digests : (string * string) list;  (* device -> concrete digest, sorted *)
  ns_topo : string;  (* digest of the link structure *)
  ns_feats : MS.Features.t;
  ns_ibgp : string list;  (* internal same-ASN sessions, with literal IPs *)
  mutable ns_built : built option;
  ns_verdicts : (string, string list option * Report.t list) Hashtbl.t;
      (* spec_key -> (devices whose config the property terms read
         directly — [None] = all of them — and the cached reports) *)
}

let topo_digest (topo : Net.Topology.t) =
  let link (l : Net.Topology.link) =
    let e (ep : Net.Topology.endpoint) = ep.Net.Topology.device ^ "/" ^ ep.Net.Topology.interface in
    let x = e l.Net.Topology.a and y = e l.Net.Topology.b in
    if x <= y then x ^ "--" ^ y else y ^ "--" ^ x
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.sort compare (Net.Topology.devices topo)
          @ List.sort compare (List.map link (Net.Topology.links topo)))))

(* The iBGP sessions with their literal neighbor addresses.  The iBGP
   copy encodings key their structure on these, so any change to the
   set forces full re-verification. *)
let ibgp_signature (net : A.network) =
  List.concat_map
    (fun (d : A.device) ->
      match d.A.dev_bgp with
      | None -> []
      | Some bgp ->
        List.filter_map
          (fun (n : A.bgp_neighbor) ->
            match A.device_of_ip net n.A.nbr_ip with
            | Some d2 when d2.A.dev_name <> d.A.dev_name -> (
              match d2.A.dev_bgp with
              | Some b2 when b2.A.bgp_asn = bgp.A.bgp_asn ->
                Some
                  (Printf.sprintf "%s->%s@%s" d.A.dev_name d2.A.dev_name
                     (Net.Ipv4.to_string n.A.nbr_ip))
              | Some _ | None -> None)
            | Some _ | None -> None)
          bgp.A.bgp_neighbors)
    net.A.net_devices
  |> List.sort compare

let netstate_of ~slice (net : A.network) =
  let digests =
    List.map (fun (d : A.device) -> (d.A.dev_name, Analysis.Symmetry.digest d)) net.A.net_devices
    |> List.sort compare
  in
  let topo = topo_digest net.A.net_topology in
  let key =
    Digest.to_hex
      (Digest.string
         (topo ^ "\n" ^ String.concat "\n" (List.map (fun (n, d) -> n ^ ":" ^ d) digests)))
  in
  {
    ns_net = net;
    ns_key = key;
    ns_digests = digests;
    ns_topo = topo;
    ns_feats = MS.Features.scan net ~slice;
    ns_ibgp = ibgp_signature net;
    ns_built = None;
    ns_verdicts = Hashtbl.create 32;
  }

(* -- the daemon ------------------------------------------------------------- *)

type counters = {
  mutable loads : int;
  mutable diffs : int;
  mutable query_requests : int;
  mutable queries_answered : int;
  mutable enc_cache_hits : int;
  mutable enc_cache_misses : int;
  mutable verdict_hits : int;  (* reports served from the verdict cache *)
  mutable solves : int;  (* reports produced by a solver run *)
  mutable delta_replays : int;  (* verdicts migrated across a diff *)
  mutable delta_diffs : int;  (* diffs handled by delta re-verification *)
  mutable full_diffs : int;  (* diffs that fell back to full re-verification *)
  mutable dropped_verdicts : int;  (* cached verdicts a diff invalidated *)
}

type t = {
  opts : MS.Options.t;
      (* [symmetry] is forced off (support tags are per concrete
         device); [merge_dataplane] and [merge_filters] are forced off
         so ACL and policy semantics land in tagged per-device
         assertions instead of being inlined into property terms —
         support-based replay is unsound otherwise. *)
  max_jobs : int;
  mutable state : netstate option;
  enc_cache : (string, built) Hashtbl.t;
  mutable enc_order : string list;  (* insertion order, oldest last — FIFO eviction *)
  c : counters;
}

let enc_cache_cap = 8

let create ?(jobs = 1) opts =
  {
    opts = { opts with MS.Options.symmetry = false; merge_dataplane = false; merge_filters = false };
    max_jobs = max 1 jobs;
    state = None;
    enc_cache = Hashtbl.create 8;
    enc_order = [];
    c =
      {
        loads = 0;
        diffs = 0;
        query_requests = 0;
        queries_answered = 0;
        enc_cache_hits = 0;
        enc_cache_misses = 0;
        verdict_hits = 0;
        solves = 0;
        delta_replays = 0;
        delta_diffs = 0;
        full_diffs = 0;
        dropped_verdicts = 0;
      };
  }

(* Build (or fetch) the encoding and its persistent support-tracking
   session.  This is the only place encodings are constructed — load
   and diff defer to it, so a state whose queries are all answered from
   the verdict cache is never encoded. *)
let materialize t ns =
  match ns.ns_built with
  | Some b -> b
  | None -> (
    match Hashtbl.find_opt t.enc_cache ns.ns_key with
    | Some b ->
      t.c.enc_cache_hits <- t.c.enc_cache_hits + 1;
      ns.ns_built <- Some b;
      b
    | None ->
      t.c.enc_cache_misses <- t.c.enc_cache_misses + 1;
      let enc = MS.Encode.build ns.ns_net t.opts in
      let b = { b_enc = enc; b_session = Verify.Session.of_encoding ~support:true enc } in
      Hashtbl.replace t.enc_cache ns.ns_key b;
      t.enc_order <- ns.ns_key :: List.filter (fun k -> k <> ns.ns_key) t.enc_order;
      (if List.length t.enc_order > enc_cache_cap then
         match List.rev t.enc_order with
         | oldest :: _ when oldest <> ns.ns_key ->
           Hashtbl.remove t.enc_cache oldest;
           t.enc_order <- List.filter (fun k -> k <> oldest) t.enc_order
         | _ -> ());
      ns.ns_built <- Some b;
      b)

(* -- diff: changed set, coupling expansion, verdict migration --------------- *)

(* Devices whose encoded slice could change when [changed] devices'
   configurations change, even though their own configuration text did
   not: topology neighbors (shared link, hence shared failure variable
   and forwarding edge), devices with a BGP neighbor address owned by a
   changed device (session classification runs through
   [device_of_ip]), and devices with a static next hop resolving into
   a changed device.  Ownership is checked in the old and the new
   network — an address a changed device acquired couples its users
   just as one it gave up does. *)
let couple ~old_net ~new_net changed =
  let is_changed n = List.mem n changed in
  let owned_by_changed ip =
    let owner net = Option.map (fun (d : A.device) -> d.A.dev_name) (A.device_of_ip net ip) in
    (match owner old_net with Some n -> is_changed n | None -> false)
    || (match owner new_net with Some n -> is_changed n | None -> false)
  in
  let refs_changed (d : A.device) =
    (match d.A.dev_bgp with
     | None -> false
     | Some bgp -> List.exists (fun (n : A.bgp_neighbor) -> owned_by_changed n.A.nbr_ip) bgp.A.bgp_neighbors)
    || List.exists
         (fun (s : A.static_route) ->
           match s.A.st_next_hop with Some ip -> owned_by_changed ip | None -> false)
         d.A.dev_statics
  in
  let topo_coupled =
    List.concat_map
      (fun c -> List.map (fun (_, peer, _) -> peer) (Net.Topology.neighbors old_net.A.net_topology c))
      changed
  in
  let ref_coupled =
    List.filter_map
      (fun (d : A.device) -> if refs_changed d then Some d.A.dev_name else None)
      (old_net.A.net_devices @ new_net.A.net_devices)
  in
  List.sort_uniq compare (changed @ topo_coupled @ ref_coupled)

(* Devices whose configuration a spec's *property terms* read directly
   (outside the tagged, assumption-guarded device slices): destination
   subnets for the reachability family, the compared pair's filters and
   sessions for the equivalence properties.  The unsat core cannot see
   these reads — goal, instrumentation and assumptions sit under the
   query's activation literal, not under a device guard — so replay
   must additionally require them disjoint from the coupled set.
   [None] means the property enumerates config-dependent structure of
   every device (hop sets, loop candidates, external peerings): such a
   verdict is never replayed across a diff. *)
let spec_deps (s : Protocol.query_spec) =
  match s.Protocol.property with
  | "reachability" | "isolation" | "bounded-length" | "multipath-consistency" -> (
    match s.Protocol.dst_device with Some d -> Some [ d ] | None -> None)
  | "acl-equivalence" | "local-equivalence" -> Some s.Protocol.devices
  | _ -> None (* blackholes, loops, no-leak, all-pairs, unknown *)

type diff_outcome = {
  d_mode : [ `Delta | `Full ];
  d_changed : string list;
  d_coupled : string list;
  d_replayed : int;
  d_dropped : int;
}

let apply_diff t (old_ns : netstate) (new_ns : netstate) =
  let old_verdict_count =
    Hashtbl.fold (fun _ (_, rs) acc -> acc + List.length rs) old_ns.ns_verdicts 0
  in
  let full () =
    t.c.full_diffs <- t.c.full_diffs + 1;
    t.c.dropped_verdicts <- t.c.dropped_verdicts + old_verdict_count;
    t.state <- Some new_ns;
    { d_mode = `Full; d_changed = []; d_coupled = []; d_replayed = 0; d_dropped = old_verdict_count }
  in
  let same_devices = List.map fst old_ns.ns_digests = List.map fst new_ns.ns_digests in
  if
    (not same_devices)
    || old_ns.ns_topo <> new_ns.ns_topo
    || old_ns.ns_feats <> new_ns.ns_feats
    || old_ns.ns_ibgp <> new_ns.ns_ibgp
  then full ()
  else begin
    let changed =
      List.filter_map
        (fun ((n, d), (_, d')) -> if d = d' then None else Some n)
        (List.combine old_ns.ns_digests new_ns.ns_digests)
    in
    let coupled = couple ~old_net:old_ns.ns_net ~new_net:new_ns.ns_net changed in
    let replayable (r : Report.t) =
      match (r.Report.verdict, r.Report.support) with
      | Report.Verified, Some support -> not (List.exists (fun d -> List.mem d coupled) support)
      | _ -> false
    in
    let deps_untouched = function
      | Some ds -> not (List.exists (fun d -> List.mem d coupled) ds)
      | None -> false
    in
    let replayed = ref 0 and dropped = ref 0 in
    Hashtbl.iter
      (fun key (deps, rs) ->
        if deps_untouched deps && List.for_all replayable rs then begin
          replayed := !replayed + List.length rs;
          Hashtbl.replace new_ns.ns_verdicts key
            (deps, List.map (fun r -> { r with Report.replayed = true }) rs)
        end
        else dropped := !dropped + List.length rs)
      old_ns.ns_verdicts;
    t.c.delta_diffs <- t.c.delta_diffs + 1;
    t.c.delta_replays <- t.c.delta_replays + !replayed;
    t.c.dropped_verdicts <- t.c.dropped_verdicts + !dropped;
    t.state <- Some new_ns;
    {
      d_mode = `Delta;
      d_changed = changed;
      d_coupled = coupled;
      d_replayed = !replayed;
      d_dropped = !dropped;
    }
  end

(* -- request handling ------------------------------------------------------- *)

(* Every response is one compact line: the schema, the outcome, then
   the op's own fields. *)
let respond op fields =
  J.to_string (J.Obj ((("schema", J.int schema) :: ("ok", J.Bool true) :: ("op", J.Str op) :: fields)))

let err fmt =
  Printf.ksprintf
    (fun m -> J.to_string (J.Obj [ ("schema", J.int schema); ("ok", J.Bool false); ("error", J.Str m) ]))
    fmt

let parse_net text =
  match Config.Parser.parse_network text with
  | net -> Ok net
  | exception Config.Parser.Parse_error e -> Error (Config.Parser.error_to_string e)
  | exception e -> Error (Printexc.to_string e)

let handle_load t text =
  match parse_net text with
  | Error e -> err "load: %s" e
  | Ok net ->
    t.c.loads <- t.c.loads + 1;
    let ns = netstate_of ~slice:t.opts.MS.Options.slice_unused net in
    t.state <- Some ns;
    respond "load" [ ("devices", J.int (List.length net.A.net_devices)); ("key", J.Str ns.ns_key) ]

let handle_diff t text =
  match t.state with
  | None -> err "diff: no configuration loaded (use \"load\" first)"
  | Some old_ns -> (
    match parse_net text with
    | Error e -> err "diff: %s" e
    | Ok net ->
      t.c.diffs <- t.c.diffs + 1;
      let new_ns = netstate_of ~slice:t.opts.MS.Options.slice_unused net in
      let o = apply_diff t old_ns new_ns in
      let names ds = J.Arr (List.map (fun d -> J.Str d) ds) in
      respond "diff"
        [
          ("mode", J.Str (match o.d_mode with `Delta -> "delta" | `Full -> "full"));
          ("changed", names o.d_changed);
          ("coupled", names o.d_coupled);
          ("replayed", J.int o.d_replayed);
          ("dropped", J.int o.d_dropped);
          ("key", J.Str new_ns.ns_key);
        ])

let handle_query t specs req_jobs =
  match t.state with
  | None -> err "query: no configuration loaded (use \"load\" first)"
  | Some ns -> (
    t.c.query_requests <- t.c.query_requests + 1;
    let jobs = min (max req_jobs 1) t.max_jobs in
    (* Serve what the verdict cache has; batch the rest on the shared
       encoding (built or fetched only if this batch is non-empty). *)
    let items =
      List.map
        (fun s ->
          let key = Protocol.spec_key s in
          match Hashtbl.find_opt ns.ns_verdicts key with
          | Some (_, rs) -> (s, key, `Cached rs)
          | None -> (s, key, `Fresh))
        specs
    in
    let fresh = List.filter (fun (_, _, k) -> k = `Fresh) items in
    let solved : (string, Report.t list) Hashtbl.t = Hashtbl.create 8 in
    let solve_error = ref None in
    (if fresh <> [] then
       match materialize t ns with
       | exception e -> solve_error := Some (Printexc.to_string e)
       | b -> (
         let expanded =
           List.map (fun (s, key, _) -> (s, key, Protocol.queries_of_spec b.b_enc s)) fresh
         in
         match List.find_opt (fun (_, _, r) -> Result.is_error r) expanded with
         | Some (_, _, Error e) -> solve_error := Some e
         | _ ->
           let expanded = List.map (fun (s, key, r) -> (s, key, Result.get_ok r)) expanded in
           let all_queries = List.concat_map (fun (_, _, qs) -> qs) expanded in
           let reports =
             if jobs <= 1 then Verify.Session.run b.b_session all_queries
             else Engine.run ~jobs ~support:true b.b_enc all_queries
           in
           t.c.solves <- t.c.solves + List.length reports;
           (* reports come back in query order: slice them back per spec *)
           let rest = ref reports in
           List.iter
             (fun (s, key, qs) ->
               let n = List.length qs in
               let mine = List.filteri (fun i _ -> i < n) !rest in
               rest := List.filteri (fun i _ -> i >= n) !rest;
               Hashtbl.replace ns.ns_verdicts key (spec_deps s, mine);
               Hashtbl.replace solved key mine)
             expanded));
    match !solve_error with
    | Some e -> err "query: %s" e
    | None ->
      let served = ref 0 and hits = ref 0 in
      let reports =
        List.concat_map
          (fun (_, key, kind) ->
            let rs =
              match kind with
              | `Cached rs ->
                hits := !hits + List.length rs;
                rs
              | `Fresh -> ( match Hashtbl.find_opt solved key with Some rs -> rs | None -> [])
            in
            served := !served + List.length rs;
            rs)
          items
      in
      t.c.verdict_hits <- t.c.verdict_hits + !hits;
      t.c.queries_answered <- t.c.queries_answered + !served;
      respond "query"
        [
          ("answered", J.int !served);
          ("verdict_hits", J.int !hits);
          ("solved", J.int (!served - !hits));
          ("reports", J.Arr (List.map Report.json reports));
        ])

let handle_stats t =
  let c = t.c in
  respond "stats"
    [
      ("loaded", J.Bool (t.state <> None));
      ( "devices",
        J.int (match t.state with Some ns -> List.length ns.ns_net.A.net_devices | None -> 0) );
      ("loads", J.int c.loads);
      ("diffs", J.int c.diffs);
      ("query_requests", J.int c.query_requests);
      ("queries_answered", J.int c.queries_answered);
      ("enc_cache_hits", J.int c.enc_cache_hits);
      ("enc_cache_misses", J.int c.enc_cache_misses);
      ("enc_cache_size", J.int (Hashtbl.length t.enc_cache));
      ("verdict_hits", J.int c.verdict_hits);
      ("solves", J.int c.solves);
      ("delta_replays", J.int c.delta_replays);
      ("delta_diffs", J.int c.delta_diffs);
      ("full_diffs", J.int c.full_diffs);
      ("dropped_verdicts", J.int c.dropped_verdicts);
    ]

(* One request line in, one response line out.  [`Stop] after a
   [shutdown] acknowledgement. *)
let handle_line t line : string * [ `Continue | `Stop ] =
  match Protocol.parse_request line with
  | Error e -> (err "%s" e, `Continue)
  | Ok (Protocol.Load text) -> (handle_load t text, `Continue)
  | Ok (Protocol.Diff text) -> (handle_diff t text, `Continue)
  | Ok (Protocol.Query { specs; jobs }) -> (handle_query t specs jobs, `Continue)
  | Ok Protocol.Stats -> (handle_stats t, `Continue)
  | Ok Protocol.Shutdown ->
    (respond "shutdown" [], `Stop)

(* -- the socket server ------------------------------------------------------ *)

type client = { fd : Unix.file_descr; buf : Buffer.t }

let write_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let rec go off len =
    if len > 0 then begin
      let k = Unix.write fd b off len in
      go (off + k) (len - k)
    end
  in
  go 0 (Bytes.length b)

(* Split the complete lines off a client buffer, leaving the partial
   tail in place. *)
let take_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear buf;
    Buffer.add_string buf (String.sub s (last + 1) (String.length s - last - 1));
    String.split_on_char '\n' (String.sub s 0 last)
    |> List.filter (fun l -> String.trim l <> "")

let run t ~socket =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  if Sys.file_exists socket then Sys.remove socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 16;
  let clients = ref [] in
  let running = ref true in
  let drop c =
    clients := List.filter (fun x -> x.fd != c.fd) !clients;
    try Unix.close c.fd with _ -> ()
  in
  let tmp = Bytes.create 65536 in
  let read_client c =
    match Unix.read c.fd tmp 0 (Bytes.length tmp) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception _ -> drop c
    | 0 -> drop c
    | n ->
      Buffer.add_subbytes c.buf tmp 0 n;
      List.iter
        (fun line ->
          let resp, verdict = handle_line t line in
          (try write_line c.fd resp with _ -> drop c);
          if verdict = `Stop then running := false)
        (take_lines c.buf)
  in
  while !running do
    let fds = listen_fd :: List.map (fun c -> c.fd) !clients in
    match Unix.select fds [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd == listen_fd then begin
            match Unix.accept listen_fd with
            | cfd, _ -> clients := { fd = cfd; buf = Buffer.create 1024 } :: !clients
            | exception _ -> ()
          end
          else
            match List.find_opt (fun c -> c.fd == fd) !clients with
            | Some c -> read_client c
            | None -> ())
        ready
  done;
  List.iter (fun c -> try Unix.close c.fd with _ -> ()) !clients;
  (try Unix.close listen_fd with _ -> ());
  if Sys.file_exists socket then Sys.remove socket

(* -- client ----------------------------------------------------------------- *)

module Client = struct
  type conn = { fd : Unix.file_descr; mutable buf : Buffer.t }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; buf = Buffer.create 1024 }

  let rec connect_retry ?(attempts = 50) path =
    match connect path with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when attempts > 0 ->
      Unix.sleepf 0.1;
      connect_retry ~attempts:(attempts - 1) path

  let close c = try Unix.close c.fd with _ -> ()

  let send_raw c s =
    let b = Bytes.of_string s in
    let rec go off len =
      if len > 0 then begin
        let k = Unix.write c.fd b off len in
        go (off + k) (len - k)
      end
    in
    go 0 (Bytes.length b)

  let send_line c line = send_raw c (line ^ "\n")

  let read_line c =
    let tmp = Bytes.create 65536 in
    let rec go () =
      let s = Buffer.contents c.buf in
      match String.index_opt s '\n' with
      | Some i ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
        String.sub s 0 i
      | None -> (
        match Unix.read c.fd tmp 0 (Bytes.length tmp) with
        | 0 -> failwith "serve: connection closed mid-response"
        | n ->
          Buffer.add_subbytes c.buf tmp 0 n;
          go ())
    in
    go ()

  let request_line c line =
    send_line c line;
    read_line c

  let request c line =
    match J.parse (request_line c line) with
    | Ok v -> v
    | Error e -> failwith ("serve: unparseable response: " ^ e)
end
