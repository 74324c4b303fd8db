(** Recording of control-plane and forwarding-state history.

    Transient phenomena — first/last-router funneling, next-hop-group
    explosion, momentary loops and black-holes — only exist {e during}
    convergence, so experiments need the full time series of FIB states, not
    just the converged snapshot. The network layer appends an event here on
    every FIB change and message transmission. *)

type event =
  | Fib_change of {
      time : float;
      device : int;
      prefix : Net.Prefix.t;
      state : Speaker.fib_state option;  (** [None] = route removed *)
    }
  | Message_sent of {
      time : float;
      src : int;
      dst : int;
      session : int;
      msg : Msg.t;
    }
  | Message_dropped of {
      time : float;
      src : int;
      dst : int;
      session : int;
      msg : Msg.t;
    }  (** the fault model lost the message in transit *)
  | Speaker_restarted of { time : float; device : int }
      (** the device's speaker crashed: RIBs cleared, sessions dropped *)
  | Session_event of {
      time : float;
      device : int;
      peer : int;
      session : int;
      event : string;
    }
      (** session liveness machinery: [event] is a stable tag such as
          ["hold-expired"], ["reconnected"], ["stale-swept"], or
          ["fib-stale-swept"] *)
  | Violation of {
      time : float;
      device : int option;
      prefix : Net.Prefix.t option;
      kind : string;
      detail : string;
    }
      (** a runtime invariant violation (or an RPA guard firing), stamped
          with the event-queue time at which it was observed. [kind] is a
          stable machine-readable tag; [detail] is for humans. *)

val event_equal : event -> event -> bool
(** Full structural equality over every field, typed: messages through
    {!Msg.equal}, FIB states through {!Speaker.fib_state_equal}. Use it
    instead of polymorphic [=], which would compare attribute hash-cons
    ids. *)

type t

val create : unit -> t

val record : t -> event -> unit

val events : t -> event list
(** In recording order. Memoized: repeated calls on an unchanged trace
    return the same (physically equal) list — events are stored in an
    append-friendly array, never re-reversed per call. *)

val length : t -> int

val iter : t -> (event -> unit) -> unit
(** In recording order, without materializing a list. *)

val fib_changes : t -> (float * int * Net.Prefix.t * Speaker.fib_state option) list

val messages_sent : t -> int

val messages_dropped : t -> int

val count : (event -> bool) -> t -> int
(** Number of recorded events satisfying the predicate, without
    materializing the event list. *)

val fib_change_count : t -> int

val violations :
  t -> (float * int option * Net.Prefix.t option * string * string) list
(** All recorded violations as (time, device, prefix, kind, detail), in
    recording order. *)

val violation_count : t -> int

val clear : t -> unit

(** Replays the FIB time series for one prefix: for each instant at which
    any device's FIB changed, the map of device -> entries. Used by the
    data plane to evaluate transient forwarding. *)
val fib_timeline :
  t -> prefix:Net.Prefix.t ->
  initial:(int * Speaker.fib_state) list ->
  (float * (int, Speaker.fib_state) Hashtbl.t) list

val event_to_json : event -> Obs.Json.t
(** One self-describing object per event (a ["type"] tag plus the event's
    fields; attributes and FIB states rendered structurally) — the JSONL
    line format of [centralium observe]. *)
