module A = Config.Ast
module P = Net.Prefix
module Ip = Net.Ipv4

type inject = {
  hijack : bool;
  acl_gap : bool;
  deep_drop : bool;
  single_homed : bool;
}

let no_bugs =
  { hijack = false; acl_gap = false; deep_drop = false; single_homed = false }

type t = {
  network : A.network;
  mgmt_prefix : string -> P.t;
  rack_subnet : string -> P.t;
  edge_routers : string list;
  rack_role : string list;
  injected : inject;
}

type dev_b = {
  mutable ifaces : A.interface list;
  mutable neighbors : A.bgp_neighbor list;
  mutable statics : A.static_route list;
  mutable plists : A.prefix_list list;
  mutable rmaps : A.route_map list;
  mutable acls : A.acl list;
  mutable bgp_redist : A.redistribute list;
  mutable ospf_redist : A.redistribute list;
  mutable networks : P.t list;
  mutable has_bgp : bool;
}

let new_dev () =
  {
    ifaces = [];
    neighbors = [];
    statics = [];
    plists = [];
    rmaps = [];
    acls = [];
    bgp_redist = [];
    ospf_redist = [];
    networks = [];
    has_bgp = false;
  }

(* Inert padding entries: denies for never-announced documentation space. *)
let pad_prefix_entries rng n =
  List.init n (fun _ ->
      let a = 16 + Random.State.int rng 60 in
      let b = Random.State.int rng 256 in
      {
        A.pl_action = A.Deny;
        pl_prefix = P.make (Ip.of_octets 203 a b 0) 24;
        pl_ge = None;
        pl_le = Some 32;
      })

let pad_acl_entries rng n =
  List.init n (fun _ ->
      let a = Random.State.int rng 256 and b = Random.State.int rng 256 in
      { A.acl_action = A.Deny; acl_dst = P.make (Ip.of_octets 198 51 a b) 32 })

let make ?bulk ~seed ~routers ~inject () =
  if routers < 2 then invalid_arg "Enterprise.make: need at least 2 routers";
  let rng = Random.State.make [| seed; routers |] in
  let bulk = match bulk with Some b -> b | None -> 8 + Random.State.int rng (routers * 30) in
  let edges = if routers >= 4 then 2 else 1 in
  let remaining = routers - edges in
  let cores = if remaining <= 1 then remaining else max 1 (remaining / 4) in
  let racks = remaining - cores in
  let edge i = Printf.sprintf "edge%d" (i + 1) in
  let core i = Printf.sprintf "core%d" (i + 1) in
  let rack i = Printf.sprintf "rack%d" (i + 1) in
  let names =
    List.init edges edge @ List.init cores core @ List.init racks rack
  in
  let devices = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace devices n (new_dev ())) names;
  let dev n = Hashtbl.find devices n in
  let iface_count = Hashtbl.create 32 in
  let next_iface name =
    let n = match Hashtbl.find_opt iface_count name with Some n -> n | None -> 0 in
    Hashtbl.replace iface_count name (n + 1);
    Printf.sprintf "e%d" n
  in
  let add_iface ?acl_in ?acl_out name prefix ip cost =
    let ifname = next_iface name in
    let b = dev name in
    b.ifaces <-
      b.ifaces
      @ [
          {
            A.if_name = ifname;
            if_prefix = Some prefix;
            if_ip = Some ip;
            if_acl_in = acl_in;
            if_acl_out = acl_out;
            if_cost = cost;
          };
        ];
    ifname
  in
  let link_counter = ref 0 in
  let links = ref [] in
  let deep_drop_done = ref false in
  let connect ?(core_to_rack = false) a b =
    let base = Ip.of_string "172.20.0.0" + (4 * !link_counter) in
    incr link_counter;
    let pfx = P.make base 30 in
    let cost = 1 + Random.State.int rng 3 in
    (* the deep-drop bug: a bogon ACL enforced on a core's rack-facing
       interface rather than at the edge *)
    let acl_out =
      if core_to_rack && inject.deep_drop && not !deep_drop_done then begin
        deep_drop_done := true;
        Some "CORE_BOGON"
      end
      else None
    in
    let if_a = add_iface ?acl_out a pfx (base + 1) cost in
    let if_b = add_iface b pfx (base + 2) cost in
    links := (a, if_a, b, if_b) :: !links;
    (a, base + 1, b, base + 2)
  in
  (* topology *)
  let edge_names = List.init edges edge in
  let core_names = List.init cores core in
  let rack_names = List.init racks rack in
  let edge_link =
    if edges = 2 then Some (connect (edge 0) (edge 1)) else None
  in
  (* remember the core-side address of each edge's first core link: the
     next hop for the edge's static host-space aggregate *)
  let edge_core_hop = Hashtbl.create 4 in
  List.iter
    (fun c ->
      List.iter
        (fun e ->
          let _, _, _, core_ip = connect e c in
          if not (Hashtbl.mem edge_core_hop e) then Hashtbl.replace edge_core_hop e core_ip)
        edge_names)
    core_names;
  (* racks are dual-homed so that no single link failure partitions the
     network (the fleet must be fault-invariant, as in §8.1) — except
     under the single-homed injection, which quietly drops the last
     rack's redundant uplink: the fabric still claims 1-failure
     resilience, but failing that rack's one remaining link partitions
     its subnet (the §8 fault-invariance violation class) *)
  List.iteri
    (fun i r ->
      let c = List.nth core_names (i mod cores) in
      ignore (connect ~core_to_rack:true c r);
      if not (inject.single_homed && i = racks - 1) then begin
        if cores >= 2 then ignore (connect (List.nth core_names ((i + 1) mod cores)) r)
        else if edges = 2 then ignore (connect (edge 1) r)
      end)
    rack_names;
  (* management interfaces *)
  let mgmt = Hashtbl.create 32 in
  List.iteri
    (fun i n ->
      let p = P.make (Ip.of_octets 10 77 i 0) 24 in
      Hashtbl.replace mgmt n p;
      ignore (add_iface n p (Ip.of_octets 10 77 i 1) 1))
    names;
  (* rack host subnets + role ACLs *)
  let bogons = pad_acl_entries rng (4 + (bulk / 8)) in
  let rack_subnets = Hashtbl.create 16 in
  List.iteri
    (fun i r ->
      let p = P.make (Ip.of_octets 10 78 i 0) 24 in
      Hashtbl.replace rack_subnets r p;
      ignore (add_iface ~acl_out:"HOSTS" r p (Ip.of_octets 10 78 i 1) 1);
      let entries =
        [ { A.acl_action = A.Deny; acl_dst = P.of_string "10.66.0.0/16" } ]
        @ bogons
        @ [ { A.acl_action = A.Permit; acl_dst = P.of_string "0.0.0.0/0" } ]
      in
      (* the copy-paste inconsistency: the second rack misses the first
         deny entry *)
      let entries =
        if inject.acl_gap && i = 1 then List.tl entries else entries
      in
      (dev r).acls <- (dev r).acls @ [ { A.acl_name = "HOSTS"; acl_entries = entries } ])
    rack_names;
  (* the deep-drop ACL body on cores *)
  List.iter
    (fun c ->
      (dev c).acls <-
        (dev c).acls
        @ [
            {
              A.acl_name = "CORE_BOGON";
              acl_entries =
                [ { A.acl_action = A.Deny; acl_dst = P.of_string "10.78.0.128/25" } ]
                @ [ { A.acl_action = A.Permit; acl_dst = P.of_string "0.0.0.0/0" } ];
            };
          ])
    core_names;
  (* edge BGP: external peers with (possibly missing) protection *)
  let ext_counter = ref 0 in
  List.iteri
    (fun ei e ->
      let b = dev e in
      b.has_bgp <- true;
      let n_ext = 1 + Random.State.int rng 2 in
      for _ = 1 to n_ext do
        let base = Ip.of_octets 192 168 (100 + !ext_counter) 0 in
        incr ext_counter;
        let pfx = P.make base 30 in
        let my_ip = base + 1 and peer_ip = base + 2 in
        ignore (add_iface e pfx my_ip 1);
        let protect = not (inject.hijack && ei = edges - 1) in
        let rm_in = if protect then Some "EDGE_IN" else Some "EDGE_IN_OPEN" in
        b.neighbors <-
          b.neighbors
          @ [
              {
                A.nbr_ip = peer_ip;
                nbr_remote_as = 65100 + !ext_counter;
                nbr_rm_in = rm_in;
                nbr_rm_out = Some "EDGE_OUT";
                nbr_rr_client = false;
              };
            ]
      done;
      (* policy objects *)
      let internal_deny =
        [
          {
            A.pl_action = A.Deny;
            pl_prefix = P.of_string "10.0.0.0/8";
            pl_ge = None;
            pl_le = Some 32;
          };
          {
            A.pl_action = A.Deny;
            pl_prefix = P.of_string "172.16.0.0/12";
            pl_ge = None;
            pl_le = Some 32;
          };
        ]
        @ pad_prefix_entries rng (bulk / 4)
        @ [
            {
              A.pl_action = A.Permit;
              pl_prefix = P.of_string "0.0.0.0/0";
              pl_ge = Some 0;
              pl_le = Some 32;
            };
          ]
      in
      (* the buggy filter: the operator protected the user/host space but
         forgot the management space (the Â§8.1 hijack story) *)
      let permissive =
        [
          {
            A.pl_action = A.Deny;
            pl_prefix = P.of_string "10.78.0.0/16";
            pl_ge = None;
            pl_le = Some 32;
          };
        ]
        @ pad_prefix_entries rng (bulk / 4)
        @ [
            {
              A.pl_action = A.Permit;
              pl_prefix = P.of_string "0.0.0.0/0";
              pl_ge = Some 0;
              pl_le = Some 32;
            };
          ]
      in
      let export_only_hosts =
        [
          {
            A.pl_action = A.Permit;
            pl_prefix = P.of_string "10.78.0.0/16";
            pl_ge = Some 16;
            pl_le = Some 24;
          };
        ]
      in
      b.plists <-
        [
          { A.pl_name = "INTERNAL_SPACE"; pl_entries = internal_deny };
          { A.pl_name = "ANY"; pl_entries = permissive };
          { A.pl_name = "HOST_SPACE"; pl_entries = export_only_hosts };
        ];
      b.rmaps <-
        [
          {
            A.rm_name = "EDGE_IN";
            rm_clauses =
              [
                {
                  A.rm_seq = 10;
                  rm_action = A.Permit;
                  rm_matches = [ A.Match_prefix_list "INTERNAL_SPACE" ];
                  rm_sets = [ A.Set_local_pref 120 ];
                };
              ];
          };
          {
            A.rm_name = "EDGE_IN_OPEN";
            rm_clauses =
              [
                {
                  A.rm_seq = 10;
                  rm_action = A.Permit;
                  rm_matches = [ A.Match_prefix_list "ANY" ];
                  rm_sets = [ A.Set_local_pref 120 ];
                };
              ];
          };
          {
            A.rm_name = "EDGE_OUT";
            rm_clauses =
              [
                {
                  A.rm_seq = 10;
                  rm_action = A.Permit;
                  rm_matches = [ A.Match_prefix_list "HOST_SPACE" ];
                  rm_sets = [ A.Set_community (Net.Community.make 65000 100) ];
                };
              ];
          };
        ];
      (* External routes enter the IGP.  The reverse direction is NOT a
         redistribution (mutual BGP<->OSPF redistribution admits phantom
         route-feedback stable states); instead the edge originates a
         static-backed aggregate of the host space. *)
      (* high redistribution metric: external routes never beat genuine
         internal OSPF routes of the same length, so reachability of
         internal space is failure-invariant (hijacks still win via
         longer, more-specific prefixes) *)
      b.ospf_redist <- [ { A.rd_from = A.Pbgp; rd_metric = Some 200 } ];
      b.networks <- [ P.of_string "10.78.0.0/16" ];
      (match Hashtbl.find_opt edge_core_hop e with
       | Some hop ->
         b.statics <-
           b.statics
           @ [ { A.st_prefix = P.of_string "10.78.0.0/16"; st_next_hop = Some hop; st_interface = None } ]
       | None -> ()))
    edge_names;
  (* iBGP between the two edges over their direct link *)
  (match (edge_link, edges) with
   | Some (a, ip_a, b, ip_b), 2 ->
     (dev a).neighbors <-
       (dev a).neighbors
       @ [
           {
             A.nbr_ip = ip_b;
             nbr_remote_as = 65000;
             nbr_rm_in = None;
             nbr_rm_out = None;
             nbr_rr_client = false;
           };
         ];
     (dev b).neighbors <-
       (dev b).neighbors
       @ [
           {
             A.nbr_ip = ip_a;
             nbr_remote_as = 65000;
             nbr_rm_in = None;
             nbr_rm_out = None;
             nbr_rr_client = false;
           };
         ]
   | _ -> ());
  (* an occasional static null route on an edge (decommissioned space) *)
  if Random.State.bool rng then
    (dev (edge 0)).statics <-
      [ { A.st_prefix = P.of_string "10.99.0.0/16"; st_next_hop = None; st_interface = Some "Null0" } ];
  (* materialize *)
  let finish name =
    let b = dev name in
    {
      (A.empty_device name) with
      A.dev_interfaces = b.ifaces;
      dev_prefix_lists = b.plists;
      dev_route_maps = b.rmaps;
      dev_acls = b.acls;
      dev_statics = b.statics;
      dev_ospf =
        Some { A.ospf_networks = [ P.of_string "0.0.0.0/0" ]; ospf_redistribute = b.ospf_redist };
      dev_bgp =
        (if b.has_bgp then
           Some
             {
               (A.empty_bgp 65000) with
               A.bgp_neighbors = b.neighbors;
               bgp_redistribute = b.bgp_redist;
               bgp_networks = b.networks;
             }
         else None);
    }
  in
  let devs = List.map finish names in
  let topo =
    List.fold_left
      (fun t (a, ia, b, ib) ->
        Net.Topology.add_link t
          { Net.Topology.a = { device = a; interface = ia }; b = { device = b; interface = ib } })
      Net.Topology.empty !links
  in
  {
    network = { A.net_devices = devs; net_topology = topo };
    mgmt_prefix = (fun n -> Hashtbl.find mgmt n);
    rack_subnet = (fun n -> Hashtbl.find rack_subnets n);
    edge_routers = edge_names;
    rack_role = rack_names;
    injected = inject;
  }

let fleet () =
  List.init 152 (fun i ->
      let inject =
        if i < 67 then { no_bugs with hijack = true }
        else if i < 96 then { no_bugs with acl_gap = true }
        else if i < 120 then { no_bugs with deep_drop = true }
        else if i < 136 then { no_bugs with single_homed = true }
        else no_bugs
      in
      (* sizes spread deterministically over 4..25; a minimum of 4
         routers keeps every network link-redundant (the paper's fleet
         is fault-invariant, except the injected single-homed class) *)
      let routers = 4 + (i * 17 mod 22) in
      (* ACL-gap networks need two racks, deep drops one *)
      let routers = if inject.acl_gap then max routers 8 else routers in
      let routers = if inject.deep_drop then max routers 5 else routers in
      let routers = if inject.single_homed then max routers 5 else routers in
      make ~seed:(1000 + i) ~routers ~inject ())

let churn_rack_acl t step (net : A.network) =
  let racks = t.rack_role in
  let victim = List.nth racks (step mod min 2 (List.length racks)) in
  let subnet = t.rack_subnet victim in
  let deny dst = { A.acl_action = A.Deny; acl_dst = dst } in
  let flip (e : A.acl_entry) =
    { e with A.acl_action = (match e.A.acl_action with A.Permit -> A.Deny | A.Deny -> A.Permit) }
  in
  let mutate (acl : A.acl) =
    let entries =
      if step mod 2 = 0 then acl.A.acl_entries @ [ deny (P.make (P.first subnet) 32) ]
      else match acl.A.acl_entries with e :: rest -> flip e :: rest | [] -> [ deny subnet ]
    in
    { acl with A.acl_entries = entries }
  in
  let churn (d : A.device) =
    if d.A.dev_name <> victim then d
    else
      match d.A.dev_acls with
      | acl :: rest -> { d with A.dev_acls = mutate acl :: rest }
      | [] -> { d with A.dev_acls = [ { A.acl_name = "90"; acl_entries = [ deny subnet ] } ] }
  in
  { net with A.net_devices = List.map churn net.A.net_devices }
