(** BGP messages exchanged between speakers.

    [Keepalive] carries no routes: it only proves the session transport is
    alive (see {!Liveness}). [Eor] is the RFC 4724 End-of-RIB marker sent
    after a full-table resync; receivers use it to sweep routes still marked
    stale from a graceful restart. *)

type t =
  | Update of { prefix : Net.Prefix.t; attr : Net.Attr.t }
  | Withdraw of { prefix : Net.Prefix.t }
  | Keepalive
  | Eor

val prefix : t -> Net.Prefix.t option
(** The prefix a routing message is about; [None] for session-level
    messages ([Keepalive], [Eor]). *)

val equal : t -> t -> bool
(** Structural equality; attributes are compared with {!Net.Attr.equal},
    never with polymorphic [=] (which would see their hash-cons ids). *)

val kind_label : t -> string
(** ["update" | "withdraw" | "keepalive" | "eor"] — stable labels for
    traces and causal events. *)

val pp : Format.formatter -> t -> unit
