(* Oracle-parity tests for the incremental decision pipeline.

   [Bgp.Speaker.Incremental] (dirty-set decisions, duplicate-update skip)
   must be bit-identical to [Full_table] (the original re-decide-everything
   behavior, kept as the debug oracle) in everything observable — traces,
   FIB digests, advertised state — at every quiescent point; the two may
   differ only in how many decisions they run. Also covers the opt-in
   per-instant advertisement batching in [Bgp.Network]. *)

open Net

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- fixtures ---------------- *)

let node id =
  Topology.Node.make ~id ~name:(Printf.sprintf "r%d" id)
    ~layer:(Topology.Node.Other "R") ()

(* 4 leaves (0-3) x 2 spines (4-5), two sessions per link: enough path
   multiplicity for ECMP churn, session resends, and flap cascades. *)
let fabric () =
  let g = Topology.Graph.create () in
  List.iter (fun i -> Topology.Graph.add_node g (node i)) [ 0; 1; 2; 3; 4; 5 ];
  for leaf = 0 to 3 do
    Topology.Graph.add_link ~sessions:2 g leaf 4;
    Topology.Graph.add_link ~sessions:2 g leaf 5
  done;
  g

let pool =
  Array.map Prefix.of_string_exn
    [| "10.0.0.0/8"; "10.1.0.0/16"; "10.2.0.0/16"; "172.16.0.0/12";
       "192.168.0.0/24"; "0.0.0.0/0" |]

(* FIB forwarding state of the whole network, digestible: next hops and
   weights are plain ints, so Marshal is representation-stable. *)
let fib_digest net =
  let prefixes = List.sort Prefix.compare (Bgp.Network.known_prefixes net) in
  let snapshot = List.map (fun p -> (p, Bgp.Network.fib_snapshot net p)) prefixes in
  Digest.to_hex (Digest.string (Marshal.to_string snapshot []))

(* Advertised (Adj-RIB-Out mirror) state of every (device, peer) pair. *)
let advertised_state net devices =
  List.map
    (fun d ->
      let sp = Bgp.Network.speaker net d in
      List.map (fun peer -> Bgp.Speaker.advertised_to sp ~peer) devices)
    devices

(* Typed equalities: polymorphic [=] would compare attribute hash-cons ids
   instead of attribute values. *)
let routes_equal =
  List.equal (fun (p, a) (q, b) -> Prefix.equal p q && Attr.equal a b)

let advertised_state_equal = List.equal (List.equal routes_equal)

let traces_equal a b =
  List.equal Bgp.Trace.event_equal (Bgp.Trace.events a) (Bgp.Trace.events b)

(* ---------------- randomized oracle ---------------- *)

type op =
  | Originate of int * int * int (* device, prefix index, med *)
  | Withdraw of int * int (* device, prefix index *)
  | Flap of int * int (* leaf, spine *)

let gen_ops seed n =
  let rng = Dsim.Rng.create seed in
  List.init n (fun _ ->
      match Dsim.Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        Originate
          (Dsim.Rng.int rng 6, Dsim.Rng.int rng (Array.length pool),
           Dsim.Rng.int rng 4)
      | 4 | 5 | 6 ->
        Withdraw (Dsim.Rng.int rng 6, Dsim.Rng.int rng (Array.length pool))
      | _ -> Flap (Dsim.Rng.int rng 4, 4 + Dsim.Rng.int rng 2))

let apply_op net = function
  | Originate (device, pi, med) ->
    Bgp.Network.originate net device pool.(pi) (Attr.make ~med ())
  | Withdraw (device, pi) -> Bgp.Network.withdraw_origin net device pool.(pi)
  | Flap (a, b) ->
    Bgp.Network.set_link net a b ~up:false;
    Bgp.Network.set_link ~delay:0.002 net a b ~up:true

(* Splits [ops] into chunks of [k]: each chunk ends at a quiescent point. *)
let chunks k ops =
  let rec go acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      if n = k then go (List.rev current :: acc) [ x ] 1 rest
      else go acc (x :: current) (n + 1) rest
  in
  go [] [] 0 ops

let run_oracle_sequence seed =
  let make mode =
    let net = Bgp.Network.create ~seed (fabric ()) in
    Bgp.Network.set_eval_mode net mode;
    net
  in
  let incr = make Bgp.Speaker.Incremental in
  let full = make Bgp.Speaker.Full_table in
  let devices = [ 0; 1; 2; 3; 4; 5 ] in
  List.iteri
    (fun i chunk ->
      List.iter
        (fun op ->
          apply_op incr op;
          apply_op full op)
        chunk;
      ignore (Bgp.Network.converge incr);
      ignore (Bgp.Network.converge full);
      let tag = Printf.sprintf "seed %d, quiescent point %d" seed i in
      (* Bit-identical message/FIB-change streams... *)
      check_bool (tag ^ ": traces identical") true
        (traces_equal (Bgp.Network.trace incr) (Bgp.Network.trace full));
      (* ...forwarding state... *)
      check_string (tag ^ ": fib digests") (fib_digest full) (fib_digest incr);
      (* ...and advertised (Adj-RIB-Out) state. *)
      check_bool (tag ^ ": advertised state") true
        (advertised_state_equal (advertised_state incr devices)
           (advertised_state full devices)))
    (chunks 4 (gen_ops seed 32))

let test_randomized_oracle () = List.iter run_oracle_sequence [ 7; 21; 1234 ]

(* ---------------- chaos parity ---------------- *)

(* The full chaos gauntlet — message-level faults, hold timers, graceful
   restart, speaker crashes, stale sweeps — produces the identical result
   record (trace counts, violation lists, loss integrals, FIB digest) in
   both evaluation modes at the same seed. *)
let test_chaos_parity () =
  List.iter
    (fun gr ->
      let incr =
        Experiments.Scenarios.Chaos.run_mode ~seed:11 ~eval_mode:Bgp.Speaker.Incremental
          ~gr ()
      in
      let full =
        Experiments.Scenarios.Chaos.run_mode ~seed:11 ~eval_mode:Bgp.Speaker.Full_table ~gr
          ()
      in
      let tag = Printf.sprintf "gr=%b" gr in
      check_string (tag ^ ": fib digest")
        full.Experiments.Scenarios.Chaos.fib_digest incr.Experiments.Scenarios.Chaos.fib_digest;
      check_int (tag ^ ": trace events")
        full.Experiments.Scenarios.Chaos.trace_events incr.Experiments.Scenarios.Chaos.trace_events;
      check_bool (tag ^ ": whole result record") true (incr = full))
    [ true; false ]

(* ---------------- decision-count reduction ---------------- *)

(* The point of the incremental pipeline: on the chaos scenario (dominated
   by full-table resyncs whose updates change nothing) the number of
   decision-process runs drops by at least 5x. Counted via the shared
   metrics registry, which by contract cannot perturb the simulation. *)
let test_decision_count_reduction () =
  let registry = Obs.Metrics.default in
  let decisions = Obs.Metrics.counter "bgp.speaker.decisions" in
  let count_for mode =
    Obs.Metrics.reset registry;
    ignore (Experiments.Scenarios.Chaos.run_mode ~seed:42 ~eval_mode:mode ~gr:true ());
    Obs.Metrics.value decisions
  in
  Obs.Metrics.set_enabled registry true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled registry false;
      Obs.Metrics.reset registry)
    (fun () ->
      let incremental = count_for Bgp.Speaker.Incremental in
      let full = count_for Bgp.Speaker.Full_table in
      check_bool "incremental ran some decisions" true (incremental > 0);
      check_bool
        (Printf.sprintf "full-table (%d) >= 5x incremental (%d)" full
           incremental)
        true
        (full >= 5 * incremental))

(* ---------------- advertisement batching ---------------- *)

(* Two same-instant updates for one prefix over one session: unbatched, both
   hit the wire; batched, only the final content is ever sent. The
   receiver's converged state is identical either way. *)
let test_batching_coalesces_same_instant () =
  let line2 () =
    let g = Topology.Graph.create () in
    List.iter (fun i -> Topology.Graph.add_node g (node i)) [ 0; 1 ];
    Topology.Graph.add_link g 0 1;
    g
  in
  let run ~batched =
    let net = Bgp.Network.create ~seed:3 (line2 ()) in
    Bgp.Network.set_advert_batching net batched;
    Bgp.Network.originate net 0 pool.(0) (Attr.make ~med:1 ());
    Bgp.Network.originate net 0 pool.(0) (Attr.make ~med:2 ());
    ignore (Bgp.Network.converge net);
    let sent = Bgp.Trace.messages_sent (Bgp.Network.trace net) in
    let learned =
      Bgp.Speaker.routes_from (Bgp.Network.speaker net 1) ~peer:0 ~session:0
    in
    (sent, learned, fib_digest net)
  in
  let sent_u, learned_u, digest_u = run ~batched:false in
  let sent_b, learned_b, digest_b = run ~batched:true in
  check_int "unbatched sends both updates" 2 sent_u;
  check_int "batched sends only the final update" 1 sent_b;
  check_string "same forwarding state" digest_u digest_b;
  check_bool "receiver holds the final attributes" true
    (routes_equal learned_u learned_b);
  (match learned_b with
   | [ (_, attr) ] -> check_int "last write wins" 2 attr.Attr.med
   | _ -> Alcotest.fail "expected exactly one learned route")

(* Batching on a multi-path fabric under a burst of work: converged
   forwarding state matches the unbatched run, with no more messages. *)
let test_batching_converges_identically () =
  let run ~batched =
    let net = Bgp.Network.create ~seed:17 (fabric ()) in
    Bgp.Network.set_advert_batching net batched;
    List.iter (apply_op net) (gen_ops 99 16);
    ignore (Bgp.Network.converge net);
    (fib_digest net, Bgp.Trace.messages_sent (Bgp.Network.trace net))
  in
  let digest_u, sent_u = run ~batched:false in
  let digest_b, sent_b = run ~batched:true in
  check_string "same converged forwarding state" digest_u digest_b;
  check_bool
    (Printf.sprintf "batched sent no more messages (%d vs %d)" sent_b sent_u)
    true (sent_b <= sent_u)

(* ---------------- FIB deltas at size ---------------- *)

(* Forty-eight /24s, all originated up front: a FIB-delta bug on one prefix
   must show against a table an order of magnitude larger than the pool
   above. *)
let big_pool = Array.init 48 (fun i -> Prefix.v4 10 (i / 16) (i mod 16) 0 24)

type big_op =
  | B_originate of int * int * int (* device, prefix index, med *)
  | B_withdraw of int * int (* device, prefix index *)
  | B_flap of int * int (* leaf, spine *)
  | B_restart of int (* device *)
  | B_drain of int * bool (* device, drained *)
  | B_hooks of int * bool (* device, single-path hooks on *)

let pp_big_op = function
  | B_originate (d, p, m) -> Printf.sprintf "originate(%d,%d,med %d)" d p m
  | B_withdraw (d, p) -> Printf.sprintf "withdraw(%d,%d)" d p
  | B_flap (a, b) -> Printf.sprintf "flap(%d-%d)" a b
  | B_restart d -> Printf.sprintf "restart(%d)" d
  | B_drain (d, on) -> Printf.sprintf "drain(%d,%b)" d on
  | B_hooks (d, on) -> Printf.sprintf "hooks(%d,%b)" d on

(* A non-native RPA stand-in: forward on the best path only (no ECMP), so
   switching it on or off rewrites FIB entries across the table. *)
let single_path_hooks =
  {
    Bgp.Rib_policy.native with
    name = "single-path";
    select =
      (fun _ ~candidates:_ ~native:(selected, advertise) ->
        {
          Bgp.Rib_policy.selected =
            (match selected with [] -> [] | best :: _ -> [ best ]);
          advertise;
          keep_fib_warm = false;
        });
  }

let big_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun d p m -> B_originate (d, p, m))
            (int_bound 5) (int_bound 47) (int_bound 3) );
        (3, map2 (fun d p -> B_withdraw (d, p)) (int_bound 5) (int_bound 47));
        (2, map2 (fun l s -> B_flap (l, 4 + s)) (int_bound 3) (int_bound 1));
        (2, map (fun d -> B_restart d) (int_bound 5));
        (1, map2 (fun d on -> B_drain (d, on)) (int_bound 5) bool);
        (1, map2 (fun d on -> B_hooks (d, on)) (int_bound 5) bool);
      ])

(* Every op gets its own 10 ms slot: long enough for a flap or restart to
   heal, short enough that stale-path timers (50 ms) straddle later ops. *)
let slot = 0.01

let fib_state_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Bgp.Speaker.fib_state_equal a b
  | None, Some _ | Some _, None -> false

(* Replays a network's [Fib_change] events into per-device tables as they
   are recorded. [audit] consumes the events since the previous audit and
   returns [Error] for the first change that repeats its (device, prefix)'s
   previous state (a spurious delta), or for the first device whose
   replayed table differs from its live FIB (a missing delta). *)
let fib_replayer net =
  let table = Hashtbl.create 256 in
  let seen = ref 0 in
  let apply (device, prefix, state) =
    let key = (device, Intern.Prefix_id.id prefix) in
    let previous = Hashtbl.find_opt table key in
    (match state with
     | Some s -> Hashtbl.replace table key s
     | None -> Hashtbl.remove table key);
    if fib_state_opt_equal previous state then
      Some
        (Printf.sprintf "spurious change: device %d prefix %s at %g" device
           (Prefix.to_string prefix) (Bgp.Network.now net))
    else None
  in
  let fib_equal =
    List.equal (fun (p, a) (q, b) ->
        Prefix.equal p q && Bgp.Speaker.fib_state_equal a b)
  in
  let replayed device =
    Hashtbl.fold
      (fun (d, p) state acc ->
        if d = device then (Intern.Prefix_id.value p, state) :: acc else acc)
      table []
    |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)
  in
  fun () ->
    let trace = Bgp.Network.trace net in
    let fresh = List.filteri (fun i _ -> i >= !seen) (Bgp.Trace.events trace) in
    seen := Bgp.Trace.length trace;
    let spurious =
      List.find_map
        (function
          | Bgp.Trace.Fib_change { device; prefix; state; _ } ->
            apply (device, prefix, state)
          | _ -> None)
        fresh
    in
    match spurious with
    | Some e -> Error e
    | None ->
      (match
         List.find_opt
           (fun device ->
             not
               (fib_equal (replayed device)
                  (Bgp.Speaker.fib (Bgp.Network.speaker net device))))
           [ 0; 1; 2; 3; 4; 5 ]
       with
       | Some device ->
         Error
           (Printf.sprintf "missing change on device %d at %g" device
              (Bgp.Network.now net))
       | None -> Ok ())

(* Runs the ops, auditing the FIB deltas every half millisecond of
   simulated time (about half a link latency, so transient states such as
   a restarted speaker's emptied FIB are audited before they heal). *)
let run_big ~seed ~gr ops mode =
  let net = Bgp.Network.create ~seed (fabric ()) in
  Bgp.Network.set_eval_mode net mode;
  let horizon = slot *. float_of_int (List.length ops + 8) in
  let config =
    if gr then Bgp.Liveness.with_gr Bgp.Liveness.default else Bgp.Liveness.default
  in
  Bgp.Network.enable_liveness ~config ~until:horizon net;
  Array.iteri
    (fun i prefix -> Bgp.Network.originate net (i mod 4) prefix (Attr.make ()))
    big_pool;
  List.iteri
    (fun i op ->
      let delay = slot *. float_of_int (i + 1) in
      match op with
      | B_originate (d, p, med) ->
        Bgp.Network.originate ~delay net d big_pool.(p) (Attr.make ~med ())
      | B_withdraw (d, p) -> Bgp.Network.withdraw_origin ~delay net d big_pool.(p)
      | B_flap (a, b) ->
        Bgp.Network.set_link ~delay net a b ~up:false;
        Bgp.Network.set_link ~delay:(delay +. 0.002) net a b ~up:true
      | B_restart d -> Bgp.Network.restart_device ~delay net d ~recovery:0.004
      | B_drain (d, true) -> Bgp.Network.drain_device ~delay net d
      | B_drain (d, false) -> Bgp.Network.undrain_device ~delay net d
      | B_hooks (d, on) ->
        Bgp.Network.set_hooks ~delay net d
          (if on then single_path_hooks else Bgp.Rib_policy.native))
    ops;
  let audit = fib_replayer net in
  let rec step time verdict =
    match verdict with
    | Error _ -> verdict
    | Ok () when time > horizon ->
      ignore (Bgp.Network.converge net);
      audit ()
    | Ok () ->
      ignore (Bgp.Network.run_until net ~time);
      step (time +. 0.0005) (audit ())
  in
  (net, step 0.0005 (Ok ()))

let big_case_arb =
  QCheck.make
    ~print:(fun (seed, gr, ops) ->
      Printf.sprintf "seed %d, gr %b: %s" seed gr
        (String.concat "; " (List.map pp_big_op ops)))
    QCheck.Gen.(
      triple (int_bound 10_000) bool (list_size (int_range 6 16) big_op_gen))

let prop_fib_deltas_at_size =
  QCheck.Test.make ~count:12
    ~name:"48-prefix churn: FIB deltas replay to the FIB; incremental = full"
    big_case_arb (fun (seed, gr, ops) ->
      let incr, incr_audit = run_big ~seed ~gr ops Bgp.Speaker.Incremental in
      let full, full_audit = run_big ~seed ~gr ops Bgp.Speaker.Full_table in
      let check = function
        | Ok () -> true
        | Error e -> QCheck.Test.fail_report e
      in
      check incr_audit && check full_audit
      && (traces_equal (Bgp.Network.trace incr) (Bgp.Network.trace full)
         || QCheck.Test.fail_report "incremental and full-table traces differ"))

(* FIB writes made by calling the speaker directly, outside any network
   transition, are not network history: they must not surface as
   [Fib_change] events of the next transition on that device. *)
let test_journal_hygiene () =
  let g = Topology.Graph.create () in
  List.iter (fun i -> Topology.Graph.add_node g (node i)) [ 0; 1 ];
  Topology.Graph.add_link g 0 1;
  let net = Bgp.Network.create ~seed:5 g in
  ignore (Bgp.Network.converge net);
  let sp1 = Bgp.Network.speaker net 1 in
  (* Direct write on device 1: a Local entry for pool.(1); its outbox is
     dropped on the floor, so nobody else learns it. *)
  ignore
    (Bgp.Speaker.originate sp1 (Bgp.Network.env net) pool.(1) (Attr.make ()));
  check_int "no event for the direct write" 0
    (Bgp.Trace.fib_change_count (Bgp.Network.trace net));
  (* One message: device 0's origination, delivered to device 1. *)
  Bgp.Network.originate net 0 pool.(0) (Attr.make ());
  ignore (Bgp.Network.converge net);
  let changes =
    List.map
      (fun (_, device, prefix, state) ->
        (device, Prefix.to_string prefix, Option.is_some state))
      (Bgp.Trace.fib_changes (Bgp.Network.trace net))
  in
  check_int "one update delivered" 1
    (Bgp.Trace.messages_sent (Bgp.Network.trace net));
  check_bool "exactly the two installs of pool.(0)" true
    (changes = [ (0, "10.0.0.0/8", true); (1, "10.0.0.0/8", true) ])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "incremental"
    [
      ( "oracle",
        [
          quick "randomized sequences, 3 seeds" test_randomized_oracle;
          quick "chaos parity" test_chaos_parity;
        ] );
      ( "fib-delta",
        [ quick "journal hygiene" test_journal_hygiene ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false)
            [ prop_fib_deltas_at_size ] );
      ( "performance",
        [ quick "chaos decisions drop 5x" test_decision_count_reduction ] );
      ( "batching",
        [
          quick "same-instant coalescing" test_batching_coalesces_same_instant;
          quick "fabric convergence parity" test_batching_converges_identically;
        ] );
    ]
