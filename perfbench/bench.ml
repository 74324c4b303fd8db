(* The repository benchmark: three workloads that time the simulator, the
   controller and the verifier end to end, plus a traced mode that splits
   the same work into per-layer figures.

   Usage:
     bench.exe --workload cold_start|chaos_churn|plan_rollout
               --seed N --seconds S --trace 0|1

   Prints human-readable lines, then as its last line one JSON object with
   the keys "correct", "attempted", "failed" and "metrics". With --trace 0
   the metrics are the end-to-end ones, measured with no span recorder and
   the metrics registry off; with --trace 1 they are the per-layer ones.
   README.md beside this file maps layers to metrics and workloads.

   Layers are measured from outside: by timing calls into each module's
   public functions, and by reading the spans ([Obs.Span]) and counters
   ([Obs.Metrics]) the libraries already record. *)

(* ------------------------------------------------------------------ *)
(* Clocks and order statistics *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let quantile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Inputs shared by the fabric workloads *)

let tagged () =
  Net.Attr.make
    ~communities:
      (Net.Community.Set.singleton
         Net.Community.Well_known.backbone_default_route)
    ()

let rack_prefix i = Net.Prefix.v4 10 (1 + (i / 256)) (i mod 256) 0 24

(* The 224-device fabric: 12 pods x 12 RSWs. The EBs originate the tagged
   default route; the first [racks] RSWs each originate one /24. *)
let build_fabric ~seed ~racks =
  let f = Topology.Clos.fabric ~pods:12 ~rsws_per_pod:12 () in
  let net = Bgp.Network.create ~seed f.Topology.Clos.graph in
  List.iter
    (fun eb -> Bgp.Network.originate net eb Net.Prefix.default_v4 (tagged ()))
    f.Topology.Clos.ebs;
  List.iteri
    (fun i rsw ->
      if i < racks then
        Bgp.Network.originate net rsw (rack_prefix i) (Net.Attr.make ()))
    f.Topology.Clos.rsws;
  (f, net)

(* One digest over every device's FIB for every known prefix, rendered as
   text so it does not depend on the runtime's marshalling format. *)
let fib_digest net =
  let b = Buffer.create 65536 in
  List.iter
    (fun p ->
      Buffer.add_string b (Net.Prefix.to_string p);
      List.iter
        (fun (device, state) ->
          Printf.bprintf b " %d:" device;
          match state with
          | Bgp.Speaker.Local -> Buffer.add_char b 'L'
          | Bgp.Speaker.Entries es ->
            List.iter
              (fun (e : Bgp.Speaker.entry) ->
                Printf.bprintf b "%d/%d/%d," e.next_hop e.session e.weight)
              es)
        (Bgp.Network.fib_snapshot net p);
      Buffer.add_char b '\n')
    (List.sort Net.Prefix.compare (Bgp.Network.known_prefixes net));
  Digest.to_hex (Digest.string (Buffer.contents b))

let node_count net = Topology.Graph.node_count (Bgp.Network.graph net)
let messages_sent net = Bgp.Trace.messages_sent (Bgp.Network.trace net)

(* ------------------------------------------------------------------ *)
(* Event-queue probe: counts every executed event through the queue's
   on-step hook. When [timing] is on it also keeps the host time between
   consecutive ticks (the cost of the event that ran in between) and the
   deepest queue seen. The hook still resets the network's [Obs.Causal]
   turn, so the simulation is exactly the one without the probe. *)

type probe = {
  queue : Dsim.Event_queue.t;
  mutable events : int;
  mutable timing : bool;
  mutable last_tick : float;
  mutable gaps : float list;
  mutable pending_max : int;
}

let attach_probe ~timing net =
  let p =
    {
      queue = Bgp.Network.queue net;
      events = 0;
      timing;
      last_tick = nan;
      gaps = [];
      pending_max = 0;
    }
  in
  Dsim.Event_queue.set_on_step p.queue
    (Some
       (fun () ->
         Obs.Causal.new_turn ();
         p.events <- p.events + 1;
         if p.timing then begin
           let t = now () in
           if not (Float.is_nan p.last_tick) then
             p.gaps <- (t -. p.last_tick) :: p.gaps;
           p.last_tick <- t;
           let depth = Dsim.Event_queue.pending p.queue in
           if depth > p.pending_max then p.pending_max <- depth
         end));
  p

(* Starts a new timed region: the next tick opens no gap, so host time
   spent outside the queue between regions is never charged to an event. *)
let region p = p.last_tick <- nan

(* ------------------------------------------------------------------ *)
(* Per-layer capture. [Bare] runs a section as shipped: no span recorder,
   metrics registry off. [Counted] turns the registry on, so the counters
   can be compared with a traced section's. [Traced] also installs a fresh
   span recorder and reads every layer's spans. *)

type mode = Bare | Counted | Traced

let counter name = float_of_int (Obs.Metrics.value (Obs.Metrics.counter name))

(* Total duration per span name, plus the [speaker.decision] time spent
   inside [network.converge] spans. *)
let span_totals recorder =
  let spans = Obs.Span.spans recorder in
  let by_id = Hashtbl.create 4096 and totals = Hashtbl.create 16 in
  List.iter (fun (s : Obs.Span.span) -> Hashtbl.replace by_id s.id s) spans;
  let rec in_converge = function
    | None -> false
    | Some id ->
      (match Hashtbl.find_opt by_id id with
       | None -> false
       | Some (s : Obs.Span.span) ->
         s.name = "network.converge" || in_converge s.parent)
  in
  let nested = ref 0.0 in
  List.iter
    (fun (s : Obs.Span.span) ->
      let d = s.wall_stop_s -. s.wall_start_s in
      let cur = Option.value (Hashtbl.find_opt totals s.name) ~default:0.0 in
      Hashtbl.replace totals s.name (cur +. d);
      if s.name = "speaker.decision" && in_converge s.parent then
        nested := !nested +. d)
    spans;
  ((fun name -> Option.value (Hashtbl.find_opt totals name) ~default:0.0), !nested)

let capture ~mode f =
  match mode with
  | Bare -> (f (), [])
  | Counted | Traced ->
    let recorder = Obs.Span.create ~max_spans:max_int () in
    Obs.Metrics.reset Obs.Metrics.default;
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    let r =
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.set_enabled Obs.Metrics.default false)
        (fun () ->
          if mode = Traced then Obs.Span.with_recorder recorder f else f ())
    in
    let span, decision_in_converge = span_totals recorder in
    ( r,
      [
        ("bgp.messages_sent", counter "bgp.messages.sent");
        ("bgp.messages_dropped", counter "bgp.messages.dropped");
        ("bgp.keepalives_sent", counter "bgp.keepalives.sent");
        ("bgp.decisions", counter "bgp.speaker.decisions");
        ("bgp.decision_s", span "speaker.decision");
        ( "bgp.network_other_s",
          span "network.converge" -. decision_in_converge );
        ("bgp.fib_changes", counter "bgp.fib.changes");
        ("engine.selections", counter "engine.selections");
        ("engine.cache_hits", counter "engine.cache.hits");
        ("engine.cache_misses", counter "engine.cache.misses");
        ("engine.select_s", span "engine.select");
        ("controller.deploy_s", span "controller.deploy");
        ("agent.reconcile_s", span "agent.reconcile");
        ("agent.deploys", counter "agent.deploys");
        ("controller.journal_writes", counter "controller.journal_writes");
        ("invariant.sweep_s", span "invariant.sweep");
        ("invariant.checks", counter "invariant.checks");
      ] )

(* Decisions counted in a section's layers (0 for a bare section). *)
let decisions layers =
  int_of_float (Option.value (List.assoc_opt "bgp.decisions" layers) ~default:0.0)

(* Host µs per [Speaker.fib] call over every speaker of a converged
   network, repeated for at least 20 ms. *)
let fib_call_us net =
  let n = node_count net in
  let calls = ref 0 in
  let t0 = now () in
  while now () -. t0 < 0.02 do
    for d = 0 to n - 1 do
      ignore (Sys.opaque_identity (Bgp.Speaker.fib (Bgp.Network.speaker net d)))
    done;
    calls := !calls + n
  done;
  (now () -. t0) *. 1e6 /. float_of_int !calls

(* ------------------------------------------------------------------ *)
(* Units of work and the results a run accumulates *)

(* Simulated statistics: a counted and a traced unit on the same inputs
   must agree on every one of them. *)
type sim = { events : int; messages : int; decisions : int; digest : string }

let pp_sim s =
  Printf.sprintf "events=%d messages=%d decisions=%d fib=%s" s.events
    s.messages s.decisions (String.sub s.digest 0 12)

type unit_out = {
  wall : float;  (* timed host seconds of the unit (checks excluded) *)
  converge : float option;  (* seconds in Network.converge, when direct *)
  deploy : float option;  (* seconds in the gated Controller.deploy *)
  sim : sim;
  layers : (string * float) list;  (* per-layer values, traced units *)
  gaps : float list;  (* host seconds per event, traced units *)
  pending_max : int;
}

type run = {
  mutable setup : float list;
  mutable converge : float list;
  mutable unit_s : float list;
  mutable deploys : float list;
  mutable attempted : int;
  mutable failed : int;
}

let fresh_run () =
  {
    setup = [];
    converge = [];
    unit_s = [];
    deploys = [];
    attempted = 0;
    failed = 0;
  }

(* One correctness check: counts as one attempted operation. *)
let check r name ok =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    Printf.printf "CHECK FAILED: %s\n%!" name
  end

let timed_setup r f =
  let x, dt = timed f in
  r.setup <- dt :: r.setup;
  x

(* Peak heap of the process so far. Read once, right after the reference
   cycle, it is the peak of a fresh process running that cycle. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* A workload: [lane ~seed r] sets up one independent copy of the inputs
   and returns the function running its unit [k]; two lanes built from the
   same seed run identical simulations. A cycle is the smallest group of
   units that covers every kind of input once; runs end on a whole cycle.
   [extra_setup] times one more set-up: a run takes [setups_per_cycle] of
   them per cycle (a fraction spreads one over several cycles), so set-up
   samples spread over the whole run, and pads to at least [min_setups]
   samples at its end. [time_q] is the quantile of the per-cycle times a
   run reports (rates take the mirror quantile, 1 - [time_q]); see
   [run_untraced]. *)
type workload = {
  name : string;
  cycle : int;
  setups_per_cycle : float;
  min_setups : int;
  time_q : float;
  lane : seed:int -> run -> k:int -> mode:mode -> unit_out;
  extra_setup : seed:int -> run -> unit;
}

(* ------------------------------------------------------------------ *)
(* Workload: cold_start *)

let cold_racks = 32

(* Share of the traced converge the layer spans may leave unattributed. *)
let layer_tolerance = 0.10

(* FIB digest of the converged cold_start fabric. Convergence is unique,
   so every seed (seeds only move message latencies) reaches this state. *)
let cold_digest = "2793652d033d9318bf8bd80903822bc7"

let cold_checks r net =
  let n = node_count net in
  check r "cold_start: invariant sweep clean"
    (Centralium.Invariant.check net = []);
  check r "cold_start: every device routes every originated prefix"
    (List.for_all
       (fun p -> List.length (Bgp.Network.fib_snapshot net p) = n)
       (Net.Prefix.default_v4 :: List.init cold_racks rack_prefix));
  let d = fib_digest net in
  check r
    (Printf.sprintf "cold_start: FIB digest %s matches the recorded one" d)
    (String.equal d cold_digest);
  d

let cold_start =
  let sub_seed seed k = (seed * 7919) + k in
  let lane ~seed r ~k ~mode =
    let traced = mode = Traced in
    let _, net =
      timed_setup r (fun () ->
          build_fabric ~seed:(sub_seed seed k) ~racks:cold_racks)
    in
    let p = attach_probe ~timing:traced net in
    let (events, dt), layers =
      capture ~mode (fun () -> timed (fun () -> Bgp.Network.converge net))
    in
    assert (events = p.events);
    let extra =
      if traced then begin
        (* The layer account: every decision runs inside the converge, so
           decision spans + the rest of the converge span + what the spans'
           CPU clock did not see = the converge. *)
        let decision = List.assoc "bgp.decision_s" layers
        and other = List.assoc "bgp.network_other_s" layers in
        let unattributed = dt -. decision -. other in
        Printf.printf
          "layer account: decision %.3fs + network other %.3fs + \
           unattributed %.3fs = converge %.3fs\n%!"
          decision other unattributed dt;
        check r "cold_start: layers account for the traced converge"
          (Float.abs unattributed <= layer_tolerance *. dt);
        [
          ("bgp.unattributed_s", unattributed);
          ("bgp.fib_call_us", fib_call_us net);
          ("bgp.trace_events", float_of_int (Bgp.Trace.length (Bgp.Network.trace net)));
        ]
      end
      else []
    in
    let digest = cold_checks r net in
    {
      wall = dt;
      converge = Some dt;
      deploy = None;
      sim =
        { events; messages = messages_sent net; decisions = decisions layers; digest };
      layers = extra @ layers;
      gaps = p.gaps;
      pending_max = p.pending_max;
    }
  in
  {
    name = "cold_start";
    cycle = 1;
    setups_per_cycle = 20.0;
    min_setups = 101;
    time_q = 0.5;
    lane;
    extra_setup =
      (fun ~seed r ->
        ignore (timed_setup r (fun () -> build_fabric ~seed ~racks:cold_racks)));
  }

(* ------------------------------------------------------------------ *)
(* Workload: chaos_churn

   A step-for-step copy of [Experiments.Scenarios.Chaos.run_mode]: the
   benchmark must hold the network to count and time its queue events,
   and run_mode does not expose it. The first untraced unit of every lane
   checks the copy against run_mode itself, field by field. *)

type chaos_result = {
  blackhole_seconds : float;
  messages_dropped : int;
  keepalives_sent : int;
  final_violations : (int option * Net.Prefix.t option * string) list;
  trace_events : int;
  fib_digest : string;
}

let chaos_horizon = Experiments.Scenarios.Chaos.horizon

(* Set-up: what run_mode builds before its first converge. *)
let chaos_build ~seed =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.Topology.Clos.backbone Net.Prefix.default_v4
    (tagged ());
  List.iteri
    (fun i fsw ->
      let rack =
        Net.Prefix.of_string_exn (Printf.sprintf "10.%d.0.0/24" (i land 0xff))
      in
      Bgp.Network.originate net fsw rack (tagged ()))
    x.Topology.Clos.xfsws;
  (x, net)

(* The rest of run_mode. Returns the result and the host seconds spent in
   the cold converge before the faults, in all Network.converge calls, in
   the chaos window (run_until) and in the final invariant sweep. *)
let chaos_body ~seed ~gr (x, net) =
  let default = Net.Prefix.default_v4 in
  let (), conv0 = timed (fun () -> ignore (Bgp.Network.converge net)) in
  let t0 = Bgp.Network.now net in
  let initial = Bgp.Network.fib_snapshot net default in
  Bgp.Trace.clear (Bgp.Network.trace net);
  Bgp.Network.set_fault net
    (Some (Dsim.Fault.create ~seed:(seed + 1) Dsim.Fault.severe));
  let config =
    if gr then Bgp.Liveness.with_gr Bgp.Liveness.default
    else Bgp.Liveness.default
  in
  Bgp.Network.enable_liveness ~config ~until:(t0 +. chaos_horizon) net;
  Bgp.Network.restart_device ~delay:0.01 net x.Topology.Clos.backbone
    ~recovery:0.02;
  (match x.Topology.Clos.fav1 with
   | fa :: _ -> Bgp.Network.restart_device ~delay:0.05 net fa ~recovery:0.015
   | [] -> ());
  Centralium.Invariant.monitor ~period:0.01 ~until:(t0 +. chaos_horizon) net;
  let (), window =
    timed (fun () ->
        ignore (Bgp.Network.run_until net ~time:(t0 +. chaos_horizon)))
  in
  Bgp.Network.set_fault net None;
  Bgp.Network.reestablish_sessions ~all:true net;
  let (), conv1 = timed (fun () -> ignore (Bgp.Network.converge net)) in
  let trace_log = Bgp.Network.trace net in
  let demands = List.map (fun f -> (f, 1.0)) x.Topology.Clos.xfsws in
  let timeline = Bgp.Trace.fib_timeline trace_log ~prefix:default ~initial in
  let until = t0 +. chaos_horizon +. config.Bgp.Liveness.stale_path_time in
  let integral =
    Dataplane.Metrics.loss_integrals ~initial ~timeline ~demands ~from_time:t0
      ~until
  in
  (* run_mode also computes these; the copy keeps their cost. *)
  ignore
    (Dataplane.Metrics.loss_segments ~initial ~timeline ~demands ~from_time:t0
       ~until);
  ignore (Bgp.Trace.violations trace_log);
  let session_events e =
    Bgp.Trace.count
      (function
        | Bgp.Trace.Session_event { event; _ } -> event = e | _ -> false)
      trace_log
  in
  List.iter
    (fun e -> ignore (session_events e))
    [ "hold-expired"; "reconnected"; "stale-swept"; "fib-stale-swept" ];
  let violations, final_check =
    timed (fun () -> Centralium.Invariant.check net)
  in
  let result =
    {
      blackhole_seconds = integral.Dataplane.Metrics.blackhole_seconds;
      messages_dropped = Bgp.Trace.messages_dropped trace_log;
      keepalives_sent =
        Bgp.Trace.count
          (function
            | Bgp.Trace.Message_sent { msg = Bgp.Msg.Keepalive; _ } -> true
            | _ -> false)
          trace_log;
      final_violations =
        List.map
          (fun (v : Centralium.Invariant.violation) ->
            (v.device, v.prefix, Centralium.Invariant.kind_name v.kind))
          violations;
      trace_events = Bgp.Trace.length trace_log;
      fib_digest = fib_digest net;
    }
  in
  (result, conv0, conv0 +. conv1, window, final_check)

let same_as_run_mode ~seed ~gr (c : chaos_result) =
  let m = Experiments.Scenarios.Chaos.run_mode ~seed ~gr () in
  c.blackhole_seconds = m.blackhole_seconds
  && c.messages_dropped = m.messages_dropped
  && c.keepalives_sent = m.keepalives_sent
  && c.final_violations = m.final_violations
  && c.trace_events = m.trace_events

let chaos_churn =
  (* Unit k runs fault seed k / 2, graceful restart on for even k and off
     for odd k; a cycle is one seed in both modes. Every cycle draws a
     fresh fault seed. A chaos run's cost is heavy-tailed in its seed (the
     costliest 1% take 10x the median): the median over many seeds is
     steady, a mean over a few is not. *)
  let lane ~seed r =
    let gr_on_digest = ref "" in
    fun ~k ~mode ->
      let traced = mode = Traced in
      let s = (seed * 1009) + (k / 2) and gr = k mod 2 = 0 in
      let st = timed_setup r (fun () -> chaos_build ~seed:s) in
      let p = attach_probe ~timing:traced (snd st) in
      let ((c, cold, conv, window, final_check), dt), layers =
        capture ~mode (fun () -> timed (fun () -> chaos_body ~seed:s ~gr st))
      in
      check r
        (Printf.sprintf "chaos_churn seed %d gr %b: no final violations" s gr)
        (c.final_violations = []);
      if gr then gr_on_digest := c.fib_digest
      else
        check r
          (Printf.sprintf "chaos_churn seed %d: GR on and off heal to one FIB" s)
          (String.equal c.fib_digest !gr_on_digest);
      if k = 0 && not traced then
        check r "chaos_churn: the copy reproduces Chaos.run_mode"
          (same_as_run_mode ~seed:s ~gr c);
      let extra =
        if traced then
          [
            ( "experiments.chaos_other_s",
              dt -. conv -. window -. final_check );
            ("bgp.chaos_window_s", window);
            ("bgp.trace_events", float_of_int c.trace_events);
            ("bgp.fib_call_us", fib_call_us (snd st));
          ]
        else []
      in
      {
        wall = dt;
        converge = Some cold;
        deploy = None;
        sim =
          {
            events = p.events;
            messages = messages_sent (snd st);
            decisions = decisions layers;
            digest = c.fib_digest;
          };
        layers = extra @ layers;
        gaps = p.gaps;
        pending_max = p.pending_max;
      }
  in
  {
    name = "chaos_churn";
    cycle = 2;
    setups_per_cycle = 3.0;
    min_setups = 301;
    time_q = 0.5;
    lane;
    extra_setup = (fun ~seed r -> ignore (timed_setup r (fun () -> chaos_build ~seed)));
  }

(* ------------------------------------------------------------------ *)
(* Workload: plan_rollout *)

let plan_racks = 16

type rollout = {
  fab : Topology.Clos.fabric;
  net : Bgp.Network.t;
  controller : Centralium.Controller.t;
  plans : Centralium.Controller.plan array;
  unsafe : Centralium.Controller.plan;
}

(* Set-up: the fabric converged with the default route plus 16 rack /24s,
   a controller, and the three plans of the deploy cycle. *)
let rollout_setup r ~seed =
  let f, net = build_fabric ~seed ~racks:plan_racks in
  let (), dt = timed (fun () -> ignore (Bgp.Network.converge net)) in
  r.converge <- dt :: r.converge;
  let controller = Centralium.Controller.create ~seed net in
  let graph = f.Topology.Clos.graph in
  let eb_asn =
    (Topology.Graph.node graph (List.hd f.Topology.Clos.ebs)).Topology.Node.asn
  in
  let dest = Centralium.Destination.backbone_default in
  let guard name threshold =
    {
      (Centralium.Apps.Min_next_hop_guard.plan graph ~destination:dest
         ~threshold ~keep_fib_warm:false ~targets:f.Topology.Clos.ssws
         ~origination_layer:Topology.Node.Eb)
      with
      Centralium.Controller.plan_name = name;
    }
  in
  let weights =
    List.map
      (fun fauu ->
        (fauu, List.map (fun eb -> (eb, 1 + ((fauu + eb) mod 4))) f.Topology.Clos.ebs))
      f.Topology.Clos.fauus
  in
  let plans =
    [|
      Centralium.Apps.Path_equalize.plan graph ~destination:dest
        ~origin_asn:eb_asn
        ~targets:(f.Topology.Clos.fsws @ f.Topology.Clos.ssws)
        ~origination_layer:Topology.Node.Eb;
      Centralium.Apps.Te_weights.plan graph ~destination:dest ~weights
        ~origination_layer:Topology.Node.Eb ();
      guard "bench-mnh-guard" (Centralium.Path_selection.Fraction 0.5);
    |]
  in
  (* Unsafe: no SSW has 1000 next hops, so every SSW would withdraw the
     default route and the layers below would black-hole. *)
  let unsafe = guard "bench-unsafe-guard" (Centralium.Path_selection.Count 1000) in
  { fab = f; net; controller; plans; unsafe }

let verify_clean report =
  report.Analysis.Phase_verifier.vr_violations = []
  && not (Analysis.Diagnostic.has_errors report.vr_diagnostics)

let gated_deploy c plan =
  Centralium.Controller.deploy ~lint:`Enforce ~verify:`Enforce c plan

let sum_layers a b =
  List.map
    (fun (k, v) -> (k, v +. Option.value (List.assoc_opt k b) ~default:0.0))
    a

let plan_rollout =
  let lane ~seed r =
    let st = timed_setup r (fun () -> rollout_setup r ~seed) in
    let net = st.net in
    (* Arm and prove the gates before any timing: the controller's lint and
       verify hooks exist only once the analysis library is linked, and
       the unsafe plan must be refused. *)
    check r "plan_rollout: lint and verify gates registered"
      (Option.is_some (Centralium.Controller.linter ())
      && Option.is_some (Centralium.Controller.verifier ()));
    check r "plan_rollout: the unsafe guard plan is refused"
      (Result.is_error (gated_deploy st.controller st.unsafe));
    Array.iter
      (fun plan ->
        check r
          (Printf.sprintf "plan_rollout: %s verifies clean"
             plan.Centralium.Controller.plan_name)
          (verify_clean (Analysis.Phase_verifier.verify_network net plan)))
      st.plans;
    let baseline = fib_digest net in
    let p = attach_probe ~timing:false net in
    fun ~k ~mode ->
      let traced = mode = Traced in
      let plan = st.plans.(k mod Array.length st.plans) in
      let name = plan.Centralium.Controller.plan_name in
      p.timing <- traced;
      p.gaps <- [];
      p.pending_max <- 0;
      let events0 = p.events in
      let trace0 = Bgp.Trace.length (Bgp.Network.trace net) in
      let analysis =
        if traced then begin
          let report, verify_s =
            timed (fun () -> Analysis.Phase_verifier.verify_network net plan)
          in
          let _, lint_s =
            timed (fun () ->
                Analysis.Lint.check_plan st.fab.Topology.Clos.graph plan)
          in
          check r (name ^ ": verifier report clean") (verify_clean report);
          [
            ("analysis.verify_s", verify_s);
            ("analysis.lint_s", lint_s);
            ("analysis.classes", float_of_int report.vr_classes);
            ("analysis.states", float_of_int report.vr_states);
            ("analysis.compiled", float_of_int report.vr_compiled);
            ("analysis.reused", float_of_int report.vr_reused);
          ]
        end
        else []
      in
      region p;
      let (deployed, deploy_s), l1 =
        capture ~mode (fun () -> timed (fun () -> gated_deploy st.controller plan))
      in
      check r (name ^ ": gated deploy returns Ok") (Result.is_ok deployed);
      check r (name ^ ": invariant sweep clean after deploy")
        (Centralium.Invariant.check net = []);
      region p;
      let (removed, remove_s), l2 =
        capture ~mode (fun () ->
            timed (fun () -> Centralium.Controller.remove st.controller plan))
      in
      check r (name ^ ": remove returns Ok") (Result.is_ok removed);
      let digest = fib_digest net in
      check r (name ^ ": remove restores the pre-deploy FIB")
        (String.equal digest baseline);
      let extra =
        if traced then
          ("bgp.fib_call_us", fib_call_us net)
          :: ( "bgp.trace_events",
               float_of_int (Bgp.Trace.length (Bgp.Network.trace net) - trace0) )
          :: analysis
        else []
      in
      let layers = sum_layers l1 l2 in
      {
        wall = deploy_s +. remove_s;
        converge = None;
        deploy = Some deploy_s;
        sim =
          {
            events = p.events - events0;
            messages = messages_sent net;
            decisions = decisions layers;
            digest;
          };
        layers = extra @ layers;
        gaps = p.gaps;
        pending_max = p.pending_max;
      }
  in
  {
    name = "plan_rollout";
    cycle = 3;
    setups_per_cycle = 0.25;
    min_setups = 8;
    time_q = 0.0;
    lane;
    extra_setup = (fun ~seed r -> ignore (timed_setup r (fun () -> rollout_setup r ~seed)));
  }

(* ------------------------------------------------------------------ *)
(* Running a workload *)

let workloads = [ cold_start; chaos_churn; plan_rollout ]

(* Units 0, 1, ... until [seconds] have passed and a whole number of
   cycles (at least one) has run. [f] gets the unit index and whether it
   closes a cycle. *)
let run_units w ~seconds f =
  let t0 = now () in
  let k = ref 0 in
  while !k = 0 || now () -. t0 < seconds || !k mod w.cycle <> 0 do
    f !k ((!k + 1) mod w.cycle = 0);
    incr k
  done

(* Minimum and median, plus the highest percentile with at least ten
   samples beyond it (none below 20 samples), with the sample count. *)
let summary label unit_label xs =
  let n = List.length xs in
  let tail =
    if n < 20 then ""
    else
      let q = 1.0 -. (10.0 /. float_of_int n) in
      Printf.sprintf ", p%.0f %.6g" (100.0 *. q) (quantile q xs)
  in
  Printf.printf "%s: min %.6g, median %.6g %s%s (n=%d)\n" label
    (quantile 0.0 xs) (median xs) unit_label tail n

(* The seed of the reference lane, whose first cycle warms the process up
   and gives the heap peak: fixed, so the peak is exact across runs. *)
let reference_seed = 0

let run_untraced w ~seed ~seconds =
  let r = fresh_run () in
  let reference = w.lane ~seed:reference_seed r in
  for k = 0 to w.cycle - 1 do
    ignore (reference ~k ~mode:Bare)
  done;
  let heap_mb = top_heap_mb () in
  let unit_k = w.lane ~seed r in
  (* Every figure is taken per cycle, then the [time_q] quantile over
     cycles: a cycle mixes every kind of input, and one slow input or one
     slow moment moves a quantile of cycles less than one of units or a
     ratio of totals. plan_rollout's cycles all repeat the same work, so
     they differ only in how much the shared host slowed them. Other
     tenants slow a shared host by 20-50%, often for a few seconds: that
     moves the median over a run, not the fastest of its 20-30 cycles.
     So plan_rollout reports its fastest cycle (time_q = 0) and its
     fastest set-up converge; the median and tail are printed beside
     them. A slowdown that lasts the whole run moves every figure.
     cold_start runs only 5-6 cycles of 4-6 s each, and chaos_churn's
     cycles differ in work, heavy-tailed in the fault seed: on both the
     median is the steadier figure. *)
  let event_rates = ref [] and unit_rates = ref [] in
  let setups_owed = ref 0.0 in
  let wall = ref 0.0 and events = ref 0 in
  let conv = ref [] and deploys = ref [] in
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  run_units w ~seconds (fun k closes_cycle ->
      let u = unit_k ~k ~mode:Bare in
      wall := !wall +. u.wall;
      events := !events + u.sim.events;
      Option.iter (fun c -> conv := c :: !conv) u.converge;
      Option.iter (fun d -> deploys := d :: !deploys) u.deploy;
      if closes_cycle then begin
        r.unit_s <- (!wall /. float_of_int w.cycle) :: r.unit_s;
        if !conv <> [] then r.converge <- mean !conv :: r.converge;
        if !deploys <> [] then r.deploys <- mean !deploys :: r.deploys;
        event_rates := (float_of_int !events /. !wall) :: !event_rates;
        unit_rates := (float_of_int w.cycle /. !wall) :: !unit_rates;
        wall := 0.0;
        events := 0;
        conv := [];
        deploys := [];
        setups_owed := !setups_owed +. w.setups_per_cycle;
        while !setups_owed >= 1.0 do
          w.extra_setup ~seed r;
          setups_owed := !setups_owed -. 1.0
        done
      end);
  while List.length r.setup < w.min_setups do
    w.extra_setup ~seed r
  done;
  summary "set-up" "s" r.setup;
  summary "converge (cycle mean)" "s" r.converge;
  summary "unit (cycle mean)" "s" r.unit_s;
  if r.deploys <> [] then summary "gated deploy (cycle mean)" "s" r.deploys;
  summary "events per s (cycle)" "1/s" !event_rates;
  let time = quantile w.time_q and rate = quantile (1.0 -. w.time_q) in
  ( r,
    [
      ("setup_s", median r.setup, "s");
      ("converge_s", time r.converge, "s");
      ("events_per_s", rate !event_rates, "1/s");
      ("peak_heap_mb", heap_mb, "MB");
      ("chaos_run_s", time r.unit_s, "s");
      ("rollout_s", time (if r.deploys = [] then r.unit_s else r.deploys), "s");
      ("plans_per_s", rate !unit_rates, "1/s");
    ] )

(* Every per-layer metric, in output order, with its unit. Values are per
   unit of work (a cold converge, a chaos run, a deploy+remove). *)
let per_layer_units =
  [
    ("dsim.events", "count");
    ("dsim.event_us_p50", "us");
    ("dsim.event_us_p99", "us");
    ("dsim.pending_max", "count");
    ("bgp.messages_sent", "count");
    ("bgp.messages_dropped", "count");
    ("bgp.keepalives_sent", "count");
    ("bgp.decisions", "count");
    ("bgp.decision_s", "s");
    ("bgp.fib_changes", "count");
    ("bgp.fib_call_us", "us");
    ("bgp.network_other_s", "s");
    ("bgp.unattributed_s", "s");
    ("bgp.chaos_window_s", "s");
    ("bgp.trace_events", "count");
    ("engine.selections", "count");
    ("engine.cache_hit_ratio", "ratio");
    ("engine.select_s", "s");
    ("controller.deploy_s", "s");
    ("agent.reconcile_s", "s");
    ("agent.deploys", "count");
    ("controller.journal_writes", "count");
    ("invariant.sweep_s", "s");
    ("invariant.checks", "count");
    ("analysis.verify_s", "s");
    ("analysis.lint_s", "s");
    ("analysis.classes", "count");
    ("analysis.states", "count");
    ("analysis.compiled", "count");
    ("analysis.reused", "count");
    ("experiments.chaos_other_s", "s");
    ("gc.minor_words_per_event", "words");
    ("gc.major_collections", "count");
    ("trace.overhead", "ratio");
  ]

(* Two lanes on identical inputs: unit k runs counted in one and traced in
   the other, and both must produce the same simulated statistics. The
   counted lane is untraced: no spans, no per-event clock. *)
let run_traced w ~seed ~seconds =
  let r = fresh_run () in
  let untraced_k = w.lane ~seed r in
  let traced_k = w.lane ~seed r in
  let totals = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace totals k
      (v +. Option.value (Hashtbl.find_opt totals k) ~default:0.0)
  in
  let gaps = ref [] and pending_max = ref 0 in
  let walls_u = ref 0.0 and walls_t = ref 0.0 and n = ref 0 in
  run_units w ~seconds (fun k _ ->
      let gc0 = Gc.quick_stat () in
      let u = untraced_k ~k ~mode:Counted in
      let gc1 = Gc.quick_stat () in
      add "gc.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
      add "gc.major_collections"
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      add "untraced.events" (float_of_int u.sim.events);
      let t = traced_k ~k ~mode:Traced in
      Printf.printf "unit %d: untraced %.4fs %s | traced %.4fs %s\n%!" k
        u.wall (pp_sim u.sim) t.wall (pp_sim t.sim);
      check r
        (Printf.sprintf "%s unit %d: traced statistics equal untraced" w.name k)
        (u.sim = t.sim);
      walls_u := !walls_u +. u.wall;
      walls_t := !walls_t +. t.wall;
      incr n;
      add "dsim.events" (float_of_int t.sim.events);
      List.iter (fun (key, v) -> add key v) t.layers;
      gaps := List.rev_append t.gaps !gaps;
      pending_max := max !pending_max t.pending_max);
  let get k = Option.value (Hashtbl.find_opt totals k) ~default:0.0 in
  let per k = get k /. float_of_int !n in
  let us = List.map (fun g -> g *. 1e6) !gaps in
  let derived =
    [
      ("dsim.event_us_p50", median us);
      ("dsim.event_us_p99", quantile 0.99 us);
      ("dsim.pending_max", float_of_int !pending_max);
      ( "engine.cache_hit_ratio",
        ratio (get "engine.cache_hits")
          (get "engine.cache_hits" +. get "engine.cache_misses") );
      ( "gc.minor_words_per_event",
        ratio (get "gc.minor_words") (get "untraced.events") );
      ("trace.overhead", ratio !walls_t !walls_u);
    ]
  in
  ( r,
    List.map
      (fun (name, unit_label) ->
        let v =
          match List.assoc_opt name derived with
          | Some v -> v
          | None -> per name
        in
        (name, v, unit_label))
      per_layer_units )

(* ------------------------------------------------------------------ *)
(* Command line and result line *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload cold_start|chaos_churn|plan_rollout --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  Printf.printf
    "workload %s, seed %d, %.0f s, trace %b; OCaml %s, %d CPUs recommended\n%!"
    w.name !seed !seconds !trace Sys.ocaml_version
    (Domain.recommended_domain_count ());
  let r, metrics =
    if !trace then run_traced w ~seed:!seed ~seconds:!seconds
    else run_untraced w ~seed:!seed ~seconds:!seconds
  in
  List.iter
    (fun (name, v, unit_label) -> Printf.printf "%-28s %.6g %s\n" name v unit_label)
    metrics;
  let json_metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit_label) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v
             unit_label)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed json_metrics
