(** Synthetic "enterprise" networks matching the statistics of the 152
    real networks analysed in §8.1: 2–25 routers, OSPF internally, one
    or two BGP edge routers with external peers and iBGP between them,
    static routes, per-role ACLs, route redistribution, and management
    interfaces on every device.

    Four §8 violation classes can be injected:
    - [hijack]: an edge router's import policy fails to protect the
      management address space, so an external announcement of a more
      specific prefix diverts management traffic;
    - [acl_gap]: one router of the rack role misses an ACL entry its
      peers have (copy-paste inconsistency ⇒ local-equivalence
      violation);
    - [deep_drop]: a bogon filter is enforced in the network core
      instead of at the edge (blackhole violation);
    - [single_homed]: the last rack quietly loses its redundant uplink
      behind a fabric that claims 1-failure resilience, so one link
      failure partitions its subnet (fault-invariance violation; needs
      at least 5 routers so a rack exists). *)

type inject = {
  hijack : bool;
  acl_gap : bool;
  deep_drop : bool;
  single_homed : bool;
}

val no_bugs : inject

type t = {
  network : Config.Ast.network;
  mgmt_prefix : string -> Net.Prefix.t;  (** management subnet of a device *)
  rack_subnet : string -> Net.Prefix.t;  (** a rack's host subnet *)
  edge_routers : string list;  (** devices with external BGP peerings *)
  rack_role : string list;  (** devices sharing the "rack" role *)
  injected : inject;
}

val make : ?bulk:int -> seed:int -> routers:int -> inject:inject -> unit -> t
(** [bulk] pads prefix lists and ACLs with extra (semantically inert)
    entries to reach realistic configuration sizes. *)

val fleet : unit -> t list
(** The 152-network benchmark fleet with the §8.1 violation
    distribution plus the fault-invariance class: 67 hijacks, 29 ACL
    inconsistencies, 24 deep drops, 16 single-homed racks, 16 clean
    networks.  Deterministic. *)

val churn_rack_acl : t -> int -> Config.Ast.network -> Config.Ast.network
(** [churn_rack_acl t step net] is config churn for delta
    re-verification: step [step] edits the first ACL of one of [t]'s
    first two racks (alternating), appending a deny entry on even
    steps and flipping the first entry's action on odd ones.  The edit
    touches that one device, so verdicts localized to the other racks
    can replay across the diff. *)
