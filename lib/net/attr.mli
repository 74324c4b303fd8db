(** BGP path attributes.

    The subset of attributes the paper's decision process and RPA signatures
    operate on: ORIGIN, AS_PATH, LOCAL_PREF, MED, standard communities, and
    the link-bandwidth extended community used for distributed WCMP
    (Section 2, Traffic Distribution). *)

type origin = Igp | Egp | Incomplete

val origin_to_string : origin -> string

val origin_rank : origin -> int
(** Lower is preferred: IGP < EGP < INCOMPLETE. *)

type t = private {
  origin : origin;
  as_path : As_path.t;
  local_pref : int;
  med : int;
  communities : Community.Set.t;
  link_bandwidth : int option;
      (** Relative WCMP weight carried by the link-bandwidth extended
          community; [None] means no weight advertised (pure ECMP). *)
  id : int;
      (** Hash-cons id: [>= 0] exactly when the value is the canonical
          representative returned by {!intern}, [-1] otherwise. Valid for
          equality only, never for ordering. *)
}
(** Private so that every value is built by {!make} or a setter below:
    that is what keeps [id] truthful. Polymorphic comparison and hashing
    see [id], so compare attributes with {!equal} / {!compare} only. *)

val make :
  ?origin:origin ->
  ?as_path:As_path.t ->
  ?local_pref:int ->
  ?med:int ->
  ?communities:Community.Set.t ->
  ?link_bandwidth:int ->
  unit ->
  t
(** Defaults: [Igp], empty path, local-pref 100, MED 0, no communities, no
    link bandwidth. *)

(** {1 Setters}

    Each returns a fresh, non-interned value ([id = -1]). *)

val with_prepended : Asn.t -> t -> t
(** Attributes after crossing an eBGP hop: the sender's ASN is prepended. *)

val set_as_path : As_path.t -> t -> t
val add_community : Community.t -> t -> t
val remove_community : Community.t -> t -> t
val set_local_pref : int -> t -> t
val set_med : int -> t -> t
val set_link_bandwidth : int option -> t -> t

(** {1 Queries, interning and comparison} *)

val has_community : Community.t -> t -> bool

val intern : t -> t
(** The hash-consed canonical representative: structurally equal to the
    argument, with canonical (shared) AS-path and community-set fields.
    Two interned equal attributes are physically identical, so {!equal}
    on them is a pointer check. Speakers intern every attribute they
    store; interning is idempotent and never changes semantics, and
    interning an already-interned value is O(1) (an [id] test). *)

val compare : t -> t -> int
val equal : t -> t -> bool
(** Structural equality. On two interned values it is [==]; the structural
    walk runs only when an operand is not interned. *)

val pp : Format.formatter -> t -> unit
