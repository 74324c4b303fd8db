type event =
  | Fib_change of {
      time : float;
      device : int;
      prefix : Net.Prefix.t;
      state : Speaker.fib_state option;
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
    }
  | Speaker_restarted of { time : float; device : int }
  | Session_event of {
      time : float;
      device : int;
      peer : int;
      session : int;
      event : string;
    }
  | Violation of {
      time : float;
      device : int option;
      prefix : Net.Prefix.t option;
      kind : string;
      detail : string;
    }

let opt_equal eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> eq a b
  | None, Some _ | Some _, None -> false

let event_equal a b =
  match (a, b) with
  | Fib_change a, Fib_change b ->
    Float.equal a.time b.time && a.device = b.device
    && Net.Prefix.equal a.prefix b.prefix
    && opt_equal Speaker.fib_state_equal a.state b.state
  | Message_sent a, Message_sent b ->
    Float.equal a.time b.time && a.src = b.src && a.dst = b.dst
    && a.session = b.session && Msg.equal a.msg b.msg
  | Message_dropped a, Message_dropped b ->
    Float.equal a.time b.time && a.src = b.src && a.dst = b.dst
    && a.session = b.session && Msg.equal a.msg b.msg
  | Speaker_restarted a, Speaker_restarted b ->
    Float.equal a.time b.time && a.device = b.device
  | Session_event a, Session_event b ->
    Float.equal a.time b.time && a.device = b.device && a.peer = b.peer
    && a.session = b.session && String.equal a.event b.event
  | Violation a, Violation b ->
    Float.equal a.time b.time
    && opt_equal Int.equal a.device b.device
    && opt_equal Net.Prefix.equal a.prefix b.prefix
    && String.equal a.kind b.kind && String.equal a.detail b.detail
  | ( ( Fib_change _ | Message_sent _ | Message_dropped _ | Speaker_restarted _
      | Session_event _ | Violation _ ),
      _ ) ->
    false

(* Events live in an append-friendly growable array; the forward list the
   public API exposes is memoized against the current length so repeated
   [events] calls on an unchanged trace (fib_timeline, the invariant
   monitor, exporters) cost nothing after the first. *)
type t = {
  mutable arr : event array;
  mutable count : int;
  mutable memo : event list;
  mutable memo_count : int;
}

let create () = { arr = [||]; count = 0; memo = []; memo_count = 0 }

let record t event =
  if t.count = Array.length t.arr then begin
    let grown = Array.make (max 64 (2 * Array.length t.arr)) event in
    Array.blit t.arr 0 grown 0 t.count;
    t.arr <- grown
  end;
  t.arr.(t.count) <- event;
  t.count <- t.count + 1

let length t = t.count

let iter t f =
  for i = 0 to t.count - 1 do
    f t.arr.(i)
  done

let events t =
  if t.memo_count <> t.count then begin
    let rec build i acc = if i < 0 then acc else build (i - 1) (t.arr.(i) :: acc) in
    t.memo <- build (t.count - 1) [];
    t.memo_count <- t.count
  end;
  t.memo

let rev_filter_map f t =
  let acc = ref [] in
  iter t (fun e -> match f e with Some x -> acc := x :: !acc | None -> ());
  List.rev !acc

let fib_changes t =
  rev_filter_map
    (function
      | Fib_change { time; device; prefix; state } ->
        Some (time, device, prefix, state)
      | Message_sent _ | Message_dropped _ | Speaker_restarted _
      | Session_event _ | Violation _ ->
        None)
    t

let count p t =
  let n = ref 0 in
  iter t (fun e -> if p e then incr n);
  !n

let messages_sent t =
  count (function Message_sent _ -> true | _ -> false) t

let messages_dropped t =
  count (function Message_dropped _ -> true | _ -> false) t

let fib_change_count t =
  count (function Fib_change _ -> true | _ -> false) t

let violations t =
  rev_filter_map
    (function
      | Violation { time; device; prefix; kind; detail } ->
        Some (time, device, prefix, kind, detail)
      | Fib_change _ | Message_sent _ | Message_dropped _ | Speaker_restarted _
      | Session_event _ ->
        None)
    t

let violation_count t = count (function Violation _ -> true | _ -> false) t

let clear t =
  t.arr <- [||];
  t.count <- 0;
  t.memo <- [];
  t.memo_count <- 0

let fib_timeline t ~prefix ~initial =
  let current = Hashtbl.create 16 in
  List.iter (fun (device, state) -> Hashtbl.replace current device state) initial;
  let snapshot () = Hashtbl.copy current in
  let relevant =
    rev_filter_map
      (function
        | Fib_change { time; device; prefix = p; state }
          when Net.Prefix.equal p prefix ->
          Some (time, device, state)
        | Fib_change _ | Message_sent _ | Message_dropped _
        | Speaker_restarted _ | Session_event _ | Violation _ ->
          None)
      t
  in
  (* Group consecutive changes at the same instant into one snapshot. *)
  let rec go acc = function
    | [] -> List.rev acc
    | (time, device, state) :: rest ->
      (match state with
       | Some s -> Hashtbl.replace current device s
       | None -> Hashtbl.remove current device);
      (match rest with
       | (t2, _, _) :: _ when t2 = time -> go acc rest
       | _ :: _ | [] -> go ((time, snapshot ()) :: acc) rest)
  in
  go [] relevant

(* ---------------- JSON export ---------------- *)

let attr_to_json (attr : Net.Attr.t) =
  let base =
    [
      ("origin", Obs.Json.String (Net.Attr.origin_to_string attr.Net.Attr.origin));
      ("as_path", Obs.Json.String (Net.As_path.to_string attr.Net.Attr.as_path));
      ("local_pref", Obs.Json.Int attr.Net.Attr.local_pref);
      ("med", Obs.Json.Int attr.Net.Attr.med);
      ("communities",
       Obs.Json.List
         (List.map
            (fun c -> Obs.Json.String (Net.Community.to_string c))
            (Net.Community.Set.elements attr.Net.Attr.communities)));
    ]
  in
  let lb =
    match attr.Net.Attr.link_bandwidth with
    | Some w -> [ ("link_bandwidth", Obs.Json.Int w) ]
    | None -> []
  in
  Obs.Json.Obj (base @ lb)

let msg_to_json = function
  | Msg.Update { prefix; attr } ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.String "update");
        ("prefix", Obs.Json.String (Net.Prefix.to_string prefix));
        ("attr", attr_to_json attr);
      ]
  | Msg.Withdraw { prefix } ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.String "withdraw");
        ("prefix", Obs.Json.String (Net.Prefix.to_string prefix));
      ]
  | Msg.Keepalive -> Obs.Json.Obj [ ("kind", Obs.Json.String "keepalive") ]
  | Msg.Eor -> Obs.Json.Obj [ ("kind", Obs.Json.String "eor") ]

let fib_state_to_json = function
  | None -> Obs.Json.Null
  | Some Speaker.Local -> Obs.Json.String "local"
  | Some (Speaker.Entries entries) ->
    Obs.Json.List
      (List.map
         (fun (e : Speaker.entry) ->
           Obs.Json.Obj
             [
               ("next_hop", Obs.Json.Int e.Speaker.next_hop);
               ("session", Obs.Json.Int e.Speaker.session);
               ("weight", Obs.Json.Int e.Speaker.weight);
             ])
         entries)

let opt_int = function Some i -> Obs.Json.Int i | None -> Obs.Json.Null

let opt_prefix = function
  | Some p -> Obs.Json.String (Net.Prefix.to_string p)
  | None -> Obs.Json.Null

let event_to_json = function
  | Fib_change { time; device; prefix; state } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "fib_change");
        ("time", Obs.Json.Float time);
        ("device", Obs.Json.Int device);
        ("prefix", Obs.Json.String (Net.Prefix.to_string prefix));
        ("state", fib_state_to_json state);
      ]
  | Message_sent { time; src; dst; session; msg } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "message_sent");
        ("time", Obs.Json.Float time);
        ("src", Obs.Json.Int src);
        ("dst", Obs.Json.Int dst);
        ("session", Obs.Json.Int session);
        ("msg", msg_to_json msg);
      ]
  | Message_dropped { time; src; dst; session; msg } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "message_dropped");
        ("time", Obs.Json.Float time);
        ("src", Obs.Json.Int src);
        ("dst", Obs.Json.Int dst);
        ("session", Obs.Json.Int session);
        ("msg", msg_to_json msg);
      ]
  | Speaker_restarted { time; device } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "speaker_restarted");
        ("time", Obs.Json.Float time);
        ("device", Obs.Json.Int device);
      ]
  | Session_event { time; device; peer; session; event } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "session_event");
        ("time", Obs.Json.Float time);
        ("device", Obs.Json.Int device);
        ("peer", Obs.Json.Int peer);
        ("session", Obs.Json.Int session);
        ("event", Obs.Json.String event);
      ]
  | Violation { time; device; prefix; kind; detail } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "violation");
        ("time", Obs.Json.Float time);
        ("device", opt_int device);
        ("prefix", opt_prefix prefix);
        ("kind", Obs.Json.String kind);
        ("detail", Obs.Json.String detail);
      ]
