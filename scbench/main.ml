(* scbench: the end-to-end benchmark of scnoise.

   One process runs one workload on inputs generated from --seed,
   checks every result, and prints one JSON line of metrics last.  With
   --trace 0 those are the end-to-end metrics; with --trace 1 the
   window is split into an untraced and a traced half and the line
   carries the per-layer ledger instead.  --smoke runs every workload
   at tiny sizes and checks the metric names and the failure checks.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
          main.exe --smoke BENCHMARK.json *)

module Json = Scnoise_obs.Json
module Clock = Scnoise_obs.Clock
module Deck = Scnoise_lang.Deck
module Elab = Scnoise_lang.Elab
module Check = Scnoise_check.Check
module Finding = Scnoise_check.Finding
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl
module Covariance = Scnoise_core.Covariance
module Psd = Scnoise_core.Psd
module Pool = Scnoise_par.Pool
module Grid = Scnoise_util.Grid
module Exec = Scnoise_serve.Exec
module Server = Scnoise_serve.Server
module Client = Scnoise_serve.Client
module Protocol = Scnoise_serve.Protocol
module Circuits = Scnoise_circuits

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** smoke-test sizes, one set-up *)
  corrupt : bool;  (** falsify one stored result before it is checked *)
}

(* ---- tallies and failures ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable points : int;  (** spectrum points delivered in the untraced window *)
  mutable counting : bool;  (** inside the untraced window *)
  mutable checked : int;  (** spectrum values checked, whole run *)
  mutable nonpositive : int;  (** of which <= 0 *)
}

let new_tally () =
  {
    attempted = 0;
    failed = 0;
    points = 0;
    counting = false;
    checked = 0;
    nonpositive = 0;
  }

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if t.failed <= 5 then prerr_endline ("scbench: check failed: " ^ msg))
    fmt

(* A NaN or infinite spectrum value fails its operation.  A value <= 0
   is wrong too (a PSD is non-negative) but appears where the true
   spectrum is tiny, far above the band, as the method's discretisation
   error; it is counted (psd.nonpositive_share) rather than failed. *)
let spectrum_ok t psd =
  t.checked <- t.checked + Array.length psd;
  Array.iter (fun x -> if x <= 0.0 then t.nonpositive <- t.nonpositive + 1) psd;
  Array.for_all Float.is_finite psd

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* ---- measurement windows ---- *)

(* Run ops [start], [start + 1], ... until [seconds] have passed, at
   least [min_ops] ran and the inputs' cycle is complete, so every
   window holds each input class equally often.  [op i] returns its
   latency. *)
let window ~seconds ~min_ops ~cycle ~start op =
  let lats = ref [] and n = ref 0 in
  let t0 = Clock.now () in
  while
    Clock.elapsed t0 < seconds || !n < min_ops || (start + !n) mod cycle <> 0
  do
    lats := op (start + !n) :: !lats;
    incr n
  done;
  (Array.of_list (List.rev !lats), Clock.elapsed t0, start + !n)

type measured = {
  lat : float array;  (** untraced op latencies *)
  wall : float;  (** untraced window wall time *)
  traced : float array;  (** traced op latencies (trace mode) *)
  gc_layers : (string * float) list;
}

(* The untraced window, then in trace mode a traced one over the next
   ops with the ledger and the program's spans on.  Each half gets half
   the time, so a traced run lasts as long as an untraced one. *)
let measure cfg tally ledger ~min_ops ~cycle op =
  let share = if cfg.trace then 0.5 else 1.0 in
  let seconds = cfg.seconds *. share in
  let min_ops = max cycle (int_of_float (float_of_int min_ops *. share)) in
  tally.counting <- true;
  let lat, wall, next = window ~seconds ~min_ops ~cycle ~start:0 op in
  tally.counting <- false;
  if not cfg.trace then { lat; wall; traced = [||]; gc_layers = [] }
  else begin
    Ledger.set_on ledger true;
    let w0 = Gc.minor_words () and g0 = Gc.quick_stat () in
    let traced, _, _ = window ~seconds ~min_ops ~cycle ~start:next op in
    let w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
    Ledger.set_on ledger false;
    let ops = float_of_int (max 1 (Array.length traced)) in
    {
      lat;
      wall;
      traced;
      gc_layers =
        [
          ("gc.minor_words_per_op", (w1 -. w0) /. ops);
          ( "gc.major_collections",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
        ];
    }
  end

(* Set-up runs [n] times (the last one's state is kept) and reports the
   median; [between] tears down what a set-up left behind, untimed. *)
let repeat_setup cfg ?(between = ignore) setup =
  let n = if cfg.tiny then 1 else 3 in
  let times =
    Array.init n (fun k ->
        if k > 0 then between ();
        let t0 = Clock.now () in
        setup ();
        Clock.elapsed t0)
  in
  Stats.median times

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let own_peak_heap_mb () = heap_mb (Gc.quick_stat ()).Gc.top_heap_words

(* ---- what a workload hands back ---- *)

type result = {
  setup_s : float;
  m : measured;
  tally : tally;
  peak_heap_mb : float;
  tail_p : float;  (** the latency percentile reported as op_tail_s *)
  ledger : Ledger.t;
  extra : (string * float) list;  (** workload-specific per-layer values *)
}

(* ---- one-shot deck -> spectrum (ladder-cold, ladder-stiff) ---- *)

exception Rejected of string

let directive_freqs (e : Elab.t) =
  match
    List.find_map
      (function
        | ( Elab.Psd
              { fmin = Some fmin; fmax = Some fmax; points = Some n; log; _ },
            _ ) ->
            Some
              (if log then Grid.logspace fmin fmax n
               else Grid.linspace fmin fmax n)
        | _ -> None)
      e.Elab.analyses
  with
  | Some f -> f
  | None -> raise (Rejected "deck has no complete .psd directive")

(* Deck text to a compiled, checked, stable system, as `scnoise psd
   DECK` gets there, one layer call at a time. *)
let front_end l ~name text =
  let loaded =
    match Ledger.time l "lang.load_s" (fun () -> Deck.load_string ~name text) with
    | Ok x -> x
    | Error msg -> raise (Rejected msg)
  in
  let e = loaded.Deck.elab in
  let findings = Ledger.time l "check.erc_s" (fun () -> Check.check_elab e) in
  if Finding.errors findings > 0 then raise (Rejected "ERC errors");
  let sys, output =
    Ledger.time l "circuit.compile_s" (fun () ->
        let sys =
          Compile.compile ?temperature:e.Elab.temperature e.Elab.netlist
            e.Elab.clock
        in
        (sys, Pwl.observable sys e.Elab.output_node))
  in
  if not (Ledger.time l "circuit.stability_s" (fun () -> Pwl.is_stable sys))
  then raise (Rejected "unstable");
  (e, sys, output)

(* The whole one-shot run: front end, prepare, sweep of the deck's
   .psd directive. *)
let one_shot l ~name text =
  let e, sys, output = front_end l ~name text in
  let eng = Ledger.prepare l sys ~output in
  let psd = Ledger.sweep l eng (directive_freqs e) in
  (Covariance.variance_at_boundary (Psd.covariance eng) output, psd)

(* Cold decks straddle the 48-state switch between the dense and the
   factored covariance engines; stiff decks (5 kHz clock, |A|h ~ 88)
   are the only inputs that reach the stiff Van Loan branch.  In each
   cycle the cheapest size comes once and the other two twice, so the
   median lands inside the middle size's latencies and the p75 inside
   the dearest size's, not on the edge between two sizes. *)
let ladder_family cfg ~stiff =
  let sizes =
    match (stiff, cfg.tiny) with
    | _, true -> [| 6; 8 |]
    | true, false -> [| 8; 12; 12; 16; 16 |]
    | false, false -> [| 48; 32; 32; 64; 64 |]
  in
  if stiff then
    { Inputs.sizes; clock_hz = 5e3; fmin = 10.0; fmax = 2e3; points = 9 }
  else { Inputs.sizes; clock_hz = 1e5; fmin = 100.0; fmax = 40e3; points = 9 }

let ladder cfg ~stiff =
  let fam = ladder_family cfg ~stiff in
  let ledger = Ledger.create () and tally = new_tally () in
  let cycle = Array.length fam.Inputs.sizes in
  let decks = ref [||] in
  let setup () =
    decks :=
      Inputs.ladder_decks ~seed:cfg.seed fam ~cycles:(if cfg.tiny then 4 else 60);
    (* first-call costs (pool domains, heap growth to the largest
       deck's needs) are paid here, one deck per size *)
    let st = Inputs.rng ~seed:cfg.seed 9 in
    List.iter
      (fun states ->
        let warm =
          Inputs.ladder_deck st ~states ~clock_hz:fam.Inputs.clock_hz
            ~fmin:fam.Inputs.fmin ~fmax:fam.Inputs.fmax
            ~points:fam.Inputs.points
        in
        ignore (one_shot ledger ~name:"warm" warm.Inputs.l_text))
      (List.sort_uniq compare (Array.to_list fam.Inputs.sizes))
  in
  let setup_s = repeat_setup cfg setup in
  let op i =
    let d = !decks.(i mod Array.length !decks) in
    let name = Printf.sprintf "ladder%d-%d" d.Inputs.l_states i in
    let r, dt =
      Ledger.op ledger (fun () ->
          try Ok (one_shot ledger ~name d.Inputs.l_text)
          with exn -> Error (Printexc.to_string exn))
    in
    tally.attempted <- tally.attempted + 1;
    let kt_c = Scnoise_util.Const.kt () /. d.Inputs.l_c_out in
    (match r with
    | Ok (var, psd) ->
        let rel = Float.abs ((var /. kt_c) -. 1.0) in
        if not (rel <= 1e-9) then
          fail tally "%s: variance %g vs kT/C %g (rel %g)" name var kt_c rel
        else if Array.length psd <> fam.Inputs.points || not (spectrum_ok tally psd)
        then fail tally "%s: PSD missing points or not finite" name
        else if tally.counting then tally.points <- tally.points + Array.length psd
    | Error msg -> fail tally "%s: %s" name msg);
    dt
  in
  let m = measure cfg tally ledger ~min_ops:(if cfg.tiny then 4 else 40) ~cycle op in
  {
    setup_s;
    m;
    tally;
    peak_heap_mb = own_peak_heap_mb ();
    tail_p = 0.75;
    ledger;
    extra = [];
  }

(* ---- batched sweeps over prepared engines (sweep-wide) ---- *)

let sweep_wide cfg =
  let ledger = Ledger.create () and tally = new_tally () in
  let ladder_stages = if cfg.tiny then 3 else 20 in
  let clocks = [| 4e3; 128e3; 1e5 |] in
  let engines = ref [||] and plan = ref [||] in
  let setup () =
    let built =
      Ledger.time ledger "circuit.compile_s" (fun () ->
          let lp = Circuits.Sc_lowpass.build Circuits.Sc_lowpass.default in
          let bp = Circuits.Sc_bandpass.build Circuits.Sc_bandpass.default in
          let ld =
            Circuits.Sc_ladder.build
              (Circuits.Sc_ladder.with_parasitics
                 (Circuits.Sc_ladder.with_stages ladder_stages))
          in
          [|
            (lp.Circuits.Sc_lowpass.sys, lp.Circuits.Sc_lowpass.output);
            (bp.Circuits.Sc_bandpass.sys, bp.Circuits.Sc_bandpass.output);
            (ld.Circuits.Sc_ladder.sys, ld.Circuits.Sc_ladder.output);
          |])
    in
    engines :=
      Array.map
        (fun (sys, output) ->
          if not (Ledger.time ledger "circuit.stability_s" (fun () -> Pwl.is_stable sys))
          then raise (Rejected "unstable engine circuit");
          Ledger.prepare ledger sys ~output)
        built;
    plan :=
      Inputs.sweep_plan ~seed:cfg.seed ~clocks
        ~shrink:(if cfg.tiny then 8 else 1)
        ~cycles:(if cfg.tiny then 3 else 100);
    Array.iteri
      (fun k e ->
        ignore (Psd.sweep e (Grid.linspace (0.01 *. clocks.(k)) (0.4 *. clocks.(k)) 17)))
      !engines
  in
  (* the engines' covariance and BVP layers run only here *)
  Ledger.set_on ledger cfg.trace;
  let setup_s = repeat_setup cfg setup in
  Ledger.set_on ledger false;
  let probes = ref [] in
  let cycle = Array.length (Inputs.sweep_classes ~shrink:1) in
  let op i =
    let o = !plan.(i mod Array.length !plan) in
    let r, dt =
      Ledger.op ledger (fun () ->
          try Ok (Ledger.sweep ledger !engines.(o.Inputs.engine) o.Inputs.freqs)
          with exn -> Error (Printexc.to_string exn))
    in
    tally.attempted <- tally.attempted + 1;
    let n = Array.length o.Inputs.freqs in
    (match r with
    | Ok psd when Array.length psd = n && spectrum_ok tally psd ->
        probes := (i, o, psd.(o.Inputs.probe)) :: !probes;
        if tally.counting then tally.points <- tally.points + n
    | Ok _ ->
        fail tally "sweep %d (engine %d): PSD missing points or not finite" i
          o.Inputs.engine
    | Error msg -> fail tally "sweep %d: %s" i msg);
    dt
  in
  let m = measure cfg tally ledger ~min_ops:(if cfg.tiny then 10 else 110) ~cycle op in
  (* each sweep's probe point, re-solved by the scalar path, must match
     the batched value bit for bit *)
  List.iteri
    (fun k (i, o, v) ->
      let v = if cfg.corrupt && k = 0 then Float.succ v else v in
      let f = o.Inputs.freqs.(o.Inputs.probe) in
      let s = Psd.psd !engines.(o.Inputs.engine) ~f in
      if not (same_bits [| s |] [| v |]) then
        fail tally "sweep %d: scalar PSD %h at %g Hz differs from batched %h" i s f v)
    !probes;
  {
    setup_s;
    m;
    tally;
    peak_heap_mb = own_peak_heap_mb ();
    tail_p = 0.9;
    ledger;
    extra = [];
  }

(* ---- closed-loop client against a forked daemon (serve-mix) ---- *)

type daemon = {
  pid : int;
  conn : Client.t;
  heap : Unix.file_descr;
  mutable stopped : bool;
}

(* Must run before this process starts any pool domain: fork carries
   only the calling thread into the child.  The child reports its peak
   heap on a pipe when it has drained. *)
let start_daemon path =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        try
          Server.run
            (Server.create ~exec:(Exec.create ())
               (Server.config (Server.Unix_path path)));
          0
        with _ -> 2
      in
      let msg = string_of_int (Gc.quick_stat ()).Gc.top_heap_words in
      ignore (Unix.write_substring wr msg 0 (String.length msg));
      Unix._exit code
  | pid -> (
      Unix.close wr;
      match Client.connect ~attempts:5000 ~retry_delay_s:0.001 (Server.Unix_path path) with
      | Ok conn -> { pid; conn; heap = rd; stopped = false }
      | Error msg ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          Unix.close rd;
          failwith ("cannot reach the daemon: " ^ msg))

let shutdown_payload = Json.to_string (Json.Obj [ ("op", Json.Str "shutdown") ])

(* Drain the daemon (kill it if it does not answer), wait for it to
   exit, and return its peak heap; a second call does nothing. *)
let stop_daemon d =
  if d.stopped then 0.0
  else begin
  d.stopped <- true;
  (match Client.rpc_string d.conn shutdown_payload with
  | Ok _ -> ()
  | Error _ | (exception _) -> (
      try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  (try Client.close d.conn with _ -> ());
  let buf = Buffer.create 16 and chunk = Bytes.create 64 in
  let rec drain () =
    match Unix.read d.heap chunk 0 64 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close d.heap;
  ignore (Unix.waitpid [] d.pid);
  Option.fold ~none:0.0 ~some:heap_mb (int_of_string_opt (Buffer.contents buf))
  end

type sent = {
  s_idx : int;  (** request index *)
  s_tier : string;  (** result | prepared | cold | error | failed *)
  s_rpc : float;
  s_traced : bool;
}

let cache_evictions stats =
  let ev tier =
    match Option.bind (Json.member "cache" stats) (Json.member tier) with
    | Some c -> (
        match Json.member "evictions" c with Some (Json.Num x) -> x | _ -> 0.0)
    | None -> 0.0
  in
  ev "results" +. ev "prepared"

let serve_mix cfg =
  let ledger = Ledger.create () and tally = new_tally () in
  let path = Printf.sprintf ".scbench-%d.sock" (Unix.getpid ()) in
  let stream = ref (Inputs.serve_stream ~seed:cfg.seed ~length:0) in
  let daemon = ref None in
  let first = Hashtbl.create 256 in
  let sent = ref [] in
  (* Judge one reply; returns its tier and the points it delivered. *)
  let judge idx reply =
    let rq = !stream.Inputs.requests.(idx) in
    let bad fmt =
      Printf.ksprintf (fun m -> fail tally "request %d: %s" idx m; ("failed", 0)) fmt
    in
    match reply with
    | Error msg -> bad "transport: %s" msg
    | Ok text -> (
        match Json.of_string text with
        | exception Json.Parse_error msg -> bad "unparsable reply: %s" msg
        | j when Protocol.reply_ok j -> (
            let tier = Option.value (Protocol.reply_cache j) ~default:"?" in
            (* a NaN goes over the wire as null, which the field reader
               rejects *)
            match
              Option.bind (Protocol.reply_result j) (fun r ->
                  try Protocol.float_array_field r "psd_V2_per_Hz"
                  with Protocol.Bad _ -> None)
            with
            | _ when rq.Inputs.expect <> [] ->
                bad "expected error %s, got a result"
                  (String.concat "|" rq.Inputs.expect)
            | Some psd
              when Array.length psd = rq.Inputs.points && spectrum_ok tally psd
              -> (
                match Hashtbl.find_opt first idx with
                | None ->
                    Hashtbl.add first idx psd;
                    (tier, Array.length psd)
                | Some p when same_bits p psd -> (tier, Array.length psd)
                | Some _ -> bad "repeat differs from the first reply")
            | _ -> bad "PSD missing points or not finite")
        | j -> (
            match Protocol.reply_error_code j with
            | Some code when List.mem code rq.Inputs.expect -> ("error", 0)
            | Some code -> bad "unexpected error code %s" code
            | None -> bad "error reply without a code"))
  in
  let length = if cfg.tiny then 200 else 12000 in
  let setup () =
    stream := Inputs.serve_stream ~seed:cfg.seed ~length;
    if cfg.corrupt then begin
      (* one wrong expected error code *)
      let rs = !stream.Inputs.requests in
      match Array.find_index (fun r -> r.Inputs.expect = [ "erc" ]) rs with
      | Some k -> rs.(k) <- { (rs.(k)) with Inputs.expect = [ "deck" ] }
      | None -> ()
    end;
    Hashtbl.reset first;
    let d = start_daemon path in
    daemon := Some d;
    Array.iter
      (fun idx ->
        let rq = !stream.Inputs.requests.(idx) in
        match judge idx (Client.rpc_string d.conn rq.Inputs.payload) with
        | "failed", _ -> raise (Rejected "warm-up request failed")
        | _ -> ())
      !stream.Inputs.warm
  in
  let stop () = Option.iter (fun d -> ignore (stop_daemon d)) !daemon in
  let setup_s, m, evictions, peak =
    Fun.protect ~finally:stop (fun () ->
        let setup_s = repeat_setup cfg ~between:stop setup in
        let d = Option.get !daemon in
        let order = !stream.Inputs.order in
        let op i =
          let idx = order.(i mod Array.length order) in
          let rq = !stream.Inputs.requests.(idx) in
          let reply, dt =
            Ledger.op ledger (fun () ->
                Ledger.time ledger "serve.rpc_s" (fun () ->
                    try Client.rpc_string d.conn rq.Inputs.payload
                    with exn -> Error (Printexc.to_string exn)))
          in
          tally.attempted <- tally.attempted + 1;
          let tier, pts = judge idx reply in
          if tally.counting then tally.points <- tally.points + pts;
          sent :=
            { s_idx = idx; s_tier = tier; s_rpc = dt; s_traced = ledger.Ledger.on }
            :: !sent;
          dt
        in
        let m =
          measure cfg tally ledger ~min_ops:(if cfg.tiny then 40 else 1100)
            ~cycle:(Array.fold_left (fun a (_, n) -> a + n) 0 Inputs.block) op
        in
        let evictions =
          let stats = Json.to_string (Json.Obj [ ("op", Json.Str "stats") ]) in
          match Client.rpc_string d.conn stats with
          | Ok s -> (
              match Protocol.reply_result (Json.of_string s) with
              | Some r -> cache_evictions r
              | None | (exception Json.Parse_error _) -> 0.0)
          | Error _ -> 0.0
        in
        let peak = stop_daemon d in
        (setup_s, m, evictions, peak))
  in
  let sent = Array.of_list (List.rev !sent) in
  (* served spectra must equal an in-process direct sweep bit for bit,
     on a seeded sample of the distinct requests that succeeded *)
  let st = Inputs.rng ~seed:cfg.seed 4 in
  let ok_idx = Array.of_seq (Hashtbl.to_seq_keys first) in
  Array.sort compare ok_idx;
  Inputs.shuffle st ok_idx;
  let sample =
    Array.sub ok_idx 0 (min (Array.length ok_idx) (if cfg.tiny then 3 else 12))
  in
  Ledger.set_on ledger cfg.trace;
  let direct (rq : Inputs.request) =
    let _, sys, output = front_end ledger ~name:"direct" rq.Inputs.deck in
    let eng = Ledger.prepare ledger sys ~output in
    (* the daemon's grid for explicit fmin/fmax/points/log *)
    let Inputs.{ fmin; fmax; points; log; _ } = rq in
    Ledger.sweep ledger eng
      (if log then Grid.logspace (Float.max fmin 1e-3) fmax points
       else Grid.linspace fmin fmax points)
  in
  Array.iter
    (fun idx ->
      match direct !stream.Inputs.requests.(idx) with
      | psd when same_bits psd (Hashtbl.find first idx) -> ()
      | _ -> fail tally "request %d: served PSD differs from a direct sweep" idx
      | exception exn ->
          fail tally "request %d: direct sweep failed: %s" idx
            (Printexc.to_string exn))
    sample;
  Ledger.set_on ledger false;
  let extra =
    if not cfg.trace then []
    else begin
      (* the traced half replayed in-process: the front end per request,
         then the whole stream through a fresh executor, which walks the
         daemon's cache states in the same order *)
      let traced = List.filter (fun s -> s.s_traced) (Array.to_list sent) in
      let request s = !stream.Inputs.requests.(s.s_idx) in
      Ledger.set_on ledger true;
      List.iter
        (fun s ->
          let deck = (request s).Inputs.deck in
          match
            Ledger.time ledger "lang.load_s" (fun () ->
                Deck.load_string ~name:"replay" deck)
          with
          | Ok loaded ->
              ignore
                (Ledger.time ledger "check.erc_s" (fun () ->
                     Check.check_elab loaded.Deck.elab))
          | Error _ -> ())
        traced;
      Ledger.set_on ledger false;
      let ex = Exec.create () in
      let majors () = (Gc.quick_stat ()).Gc.major_collections in
      (* time, minor words and major collections of one request *)
      let replay idx =
        let w0 = Gc.minor_words () and g0 = majors () in
        let t0 = Clock.now () in
        ignore (Exec.handle_string ex !stream.Inputs.requests.(idx).Inputs.payload);
        let dt = Clock.elapsed t0 in
        (dt, Gc.minor_words () -. w0, majors () - g0)
      in
      Array.iter (fun idx -> ignore (replay idx)) !stream.Inputs.warm;
      let exec =
        List.filter_map
          (fun s ->
            let r = replay s.s_idx in
            if s.s_traced then Some (s, r) else None)
          (Array.to_list sent)
      in
      let of_traced f = Array.of_list (List.map f exec) in
      let traced_exec = of_traced (fun (_, (dt, _, _)) -> dt) in
      let transport = of_traced (fun (s, (dt, _, _)) -> s.s_rpc -. dt) in
      let ntraced = float_of_int (max 1 (List.length exec)) in
      let tier_lat tier =
        Array.of_list
          (List.filter_map
             (fun s -> if s.s_tier = tier then Some s.s_rpc else None)
             traced)
      in
      let count tier = float_of_int (Array.length (tier_lat tier)) in
      let ok = count "result" +. count "prepared" +. count "cold" in
      let nsent = float_of_int (max 1 (Array.length sent)) in
      let med xs = if Array.length xs = 0 then 0.0 else Stats.median xs in
      [
        ("serve.latency_s.result", med (tier_lat "result"));
        ("serve.latency_s.prepared", med (tier_lat "prepared"));
        ("serve.latency_s.cold", med (tier_lat "cold"));
        ("serve.latency_s.error", med (tier_lat "error"));
        ("serve.hit_ratio.result", if ok > 0.0 then count "result" /. ok else 0.0);
        ( "serve.hit_ratio.prepared",
          let miss = count "prepared" +. count "cold" in
          if miss > 0.0 then count "prepared" /. miss else 0.0 );
        ("serve.evictions", evictions /. nsent);
        ("serve.exec_s", med traced_exec);
        ("serve.transport_s", med transport);
        ( "gc.minor_words_per_op",
          Stats.sum (of_traced (fun (_, (_, w, _)) -> w)) /. ntraced );
        ( "gc.major_collections",
          Stats.sum (of_traced (fun (_, (_, _, g)) -> float_of_int g)) );
      ]
    end
  in
  { setup_s; m; tally; peak_heap_mb = peak; tail_p = 0.99; ledger; extra }

(* ---- metrics ---- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_s", "s");
    ("op_tail_s", "s");
    ("ops_per_s", "1/s");
    ("points_per_s", "1/s");
    ("ok_ratio", "ratio");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("lang.load_s", "s");
    ("check.erc_s", "s");
    ("circuit.compile_s", "s");
    ("circuit.stability_s", "s");
    ("covariance.sample_s", "s");
    ("covariance.expm_calls", "count");
    ("covariance.lu_factorizations", "count");
    ("covariance.doubling_steps", "count");
    ("covariance.peak_rank", "count");
    ("covariance.ks_bytes", "B");
    ("bvp.prepare_s", "s");
    ("psd.sweep_s", "s");
    ("psd.s_per_point", "s");
    ("psd.lu_solves_per_point", "count");
    ("psd.demod_refines_per_point", "count");
    ("psd.clu_factorizations_per_point", "count");
    ("psd.unbatched_share", "ratio");
    ("psd.fallback_steps", "count");
    ("psd.minor_words_per_point", "words");
    ("psd.nonpositive_share", "ratio");
    ("par.chunk_imbalance", "ratio");
    ("par.worker_chunk_share", "ratio");
    ("serve.latency_s.result", "s");
    ("serve.latency_s.prepared", "s");
    ("serve.latency_s.cold", "s");
    ("serve.latency_s.error", "s");
    ("serve.hit_ratio.result", "ratio");
    ("serve.hit_ratio.prepared", "ratio");
    ("serve.evictions", "count/op");
    ("serve.exec_s", "s");
    ("serve.transport_s", "s");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("obs.trace_overhead", "ratio");
    ("fail_ratio", "ratio");
    ("ledger.coverage", "ratio");
  ]

let fail_ratio r = float_of_int r.tally.failed /. float_of_int (max 1 r.tally.attempted)

let e2e_values r =
  let n = float_of_int (Array.length r.m.lat) in
  [
    ("setup_s", r.setup_s);
    ("op_p50_s", Stats.median r.m.lat);
    ("op_tail_s", Stats.quantile r.m.lat r.tail_p);
    ("ops_per_s", n /. r.m.wall);
    ("points_per_s", float_of_int r.tally.points /. r.m.wall);
    ("ok_ratio", 1.0 -. fail_ratio r);
    ("peak_heap_mb", r.peak_heap_mb);
  ]

(* Layers a workload does not reach read 0. *)
let layer_values r =
  let l = r.ledger in
  let med name =
    let v = Ledger.values l name in
    if Array.length v = 0 then 0.0 else Stats.median v
  in
  let total name = Stats.sum (Ledger.values l name) in
  let per_point name =
    let p = total "psd.points" in
    if p > 0.0 then total name /. p else 0.0
  in
  let computed =
    List.map (fun name -> (name, med name))
      [ "lang.load_s"; "check.erc_s"; "circuit.compile_s"; "circuit.stability_s";
        "covariance.sample_s"; "covariance.expm_calls";
        "covariance.lu_factorizations"; "covariance.doubling_steps";
        "covariance.peak_rank"; "covariance.ks_bytes"; "bvp.prepare_s";
        "psd.sweep_s"; "psd.fallback_steps"; "par.chunk_imbalance" ]
    @ [
        ("psd.s_per_point", per_point "psd.sweep_s");
        ("psd.lu_solves_per_point", per_point "psd.lu_solves" +. per_point "psd.clu_solves");
        ("psd.demod_refines_per_point", per_point "psd.demod_refines");
        ("psd.clu_factorizations_per_point", per_point "psd.clu_factorizations");
        ("psd.unbatched_share", per_point "psd.unbatched");
        ("psd.minor_words_per_point", per_point "psd.minor_words");
        ( "psd.nonpositive_share",
          float_of_int r.tally.nonpositive /. float_of_int (max 1 r.tally.checked) );
        ( "par.worker_chunk_share",
          let c = total "par.chunks" in
          if c > 0.0 then total "par.worker_chunks" /. c else 0.0 );
        ( "obs.trace_overhead",
          if Array.length r.m.traced = 0 then 0.0
          else (Stats.median r.m.traced /. Stats.median r.m.lat) -. 1.0 );
        ("fail_ratio", fail_ratio r);
        ( "ledger.coverage",
          let w = total "ledger.op_s" in
          if w > 0.0 then total "ledger.covered_s" /. w else 0.0 );
      ]
    @ r.m.gc_layers
  in
  let all = r.extra @ computed in
  List.map
    (fun (name, _) -> (name, Option.value (List.assoc_opt name all) ~default:0.0))
    per_layer

let metrics cfg r =
  let units = if cfg.trace then per_layer else end_to_end in
  let values = if cfg.trace then layer_values r else e2e_values r in
  List.map
    (fun (name, unit) ->
      let v = List.assoc name values in
      (name, (if Float.is_finite v then v else 0.0), unit))
    units

(* ---- report ---- *)

let workloads = [ "ladder-cold"; "ladder-stiff"; "sweep-wide"; "serve-mix" ]

let run cfg =
  match cfg.workload with
  | "ladder-cold" -> ladder cfg ~stiff:false
  | "ladder-stiff" -> ladder cfg ~stiff:true
  | "sweep-wide" -> sweep_wide cfg
  | "serve-mix" -> serve_mix cfg
  | w -> invalid_arg ("unknown workload " ^ w)

(* The checked-out commit, when the benchmark runs in a git work tree. *)
let commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
      let ref_path = String.sub head 5 (String.length head - 5) in
      Option.value (read (Filename.concat ".git" ref_path)) ~default:head
  | Some sha -> sha
  | None -> "unknown"

(* The workload's own names for the op metrics: an op is a one-shot
   deck run, a sweep request or a served request. *)
let op_names r workload =
  let ops_per_s = float_of_int (Array.length r.m.lat) /. r.m.wall in
  match workload with
  | "sweep-wide" ->
      ("sweep", "points_per_s", "points/s", float_of_int r.tally.points /. r.m.wall)
  | "serve-mix" -> ("serve", "serve_rps", "requests/s", ops_per_s)
  | _ -> ("deck", "decks_per_s", "decks/s", ops_per_s)

let report cfg r ms =
  Printf.printf "# scbench workload=%s seed=%d seconds=%g trace=%b\n"
    cfg.workload cfg.seed cfg.seconds cfg.trace;
  Printf.printf "# nproc=%d jobs=%d ocaml=%s commit=%s\n"
    (Domain.recommended_domain_count ())
    (Pool.default_jobs ()) Sys.ocaml_version (commit ());
  let n = Array.length r.m.lat in
  let p = 100.0 *. r.tail_p in
  if not cfg.trace then begin
    let noun, rate, rate_unit, rate_v = op_names r cfg.workload in
    Printf.printf
      "# %s_p50_s %.6g s | %s_tail_s %.6g s (p%g of %d samples, %d beyond) | \
       %s %.6g %s | fail_ratio %g\n"
      noun (Stats.median r.m.lat) noun
      (Stats.quantile r.m.lat r.tail_p)
      p n (Stats.beyond r.m.lat r.tail_p) rate rate_v rate_unit (fail_ratio r)
  end;
  List.iter
    (fun (name, v, unit) -> Printf.printf "#   %-34s %.6g %s\n" name v unit)
    ms;
  let field (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.tally.failed = 0) r.tally.attempted r.tally.failed
    (String.concat ", " (List.map field ms))

(* ---- smoke test ---- *)

let declared path =
  let j = Json.of_string (In_channel.with_open_text path In_channel.input_all) in
  let list key =
    match Json.member key j with
    | Some (Json.List items) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) -> (n, u)
            | _ -> failwith ("malformed metric in " ^ key))
          items
    | _ -> failwith ("BENCHMARK.json lacks " ^ key)
  in
  (list "end_to_end", list "per_layer")

(* One tiny run in a child process, as the benchmark is run (and
   because serve-mix forks its daemon, which a process that already
   started pool domains may not do); returns the parsed last line of
   its output and its stderr. *)
let child ~workload ~trace ~corrupt =
  let args =
    [ Sys.executable_name; "--workload"; workload; "--seed"; "7"; "--seconds";
      "0.2"; "--trace"; (if trace then "1" else "0"); "--tiny" ]
    @ if corrupt then [ "--corrupt" ] else []
  in
  let out, inp, err =
    Unix.open_process_args_full Sys.executable_name (Array.of_list args)
      (Unix.environment ())
  in
  close_out inp;
  let text = In_channel.input_all out and errors = In_channel.input_all err in
  ignore (Unix.close_process_full (out, inp, err));
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) ""
      (String.split_on_char '\n' text)
  in
  ((try Some (Json.of_string last) with Json.Parse_error _ -> None), errors)

let smoke path =
  let e2e, layers = declared path in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let failed j =
    match Json.member "failed" j with Some (Json.Num x) -> x | _ -> nan
  in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          match child ~workload:w ~trace ~corrupt:false with
          | None, errors -> problem "%s: no result line\n%s" w errors
          | Some j, errors ->
              let ms = Option.value (Json.member "metrics" j) ~default:Json.Null in
              List.iter
                (fun (name, unit) ->
                  match Option.map (Json.member "unit") (Json.member name ms) with
                  | Some (Some (Json.Str u)) when u = unit -> ()
                  | Some _ -> problem "%s: %s does not print with unit %s" w name unit
                  | None -> problem "%s: %s does not print" w name)
                (if trace then layers else e2e);
              if failed j <> 0.0 then
                problem "%s: failed checks on clean inputs\n%s" w errors)
        [ false; true ])
    workloads;
  (* one flipped PSD bit, one wrong expected error code *)
  List.iter
    (fun w ->
      match child ~workload:w ~trace:false ~corrupt:true with
      | Some j, _ when failed j > 0.0 -> ()
      | _ -> problem "%s: a corrupted result left fail_ratio at 0" w)
    [ "sweep-wide"; "serve-mix" ];
  match !problems with
  | [] -> ()
  | ps ->
      List.iter (fun m -> prerr_endline ("scbench smoke: " ^ m)) (List.rev ps);
      exit 1

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke_json = ref "" and tiny = ref false and corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 1 = per-layer ledger run");
      ("--smoke", Arg.Set_string smoke_json, "BENCHMARK.json run the self-test");
      ("--tiny", Arg.Set tiny, " smoke-test sizes");
      ("--corrupt", Arg.Set corrupt, " falsify one result (smoke test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "scbench --workload NAME --seed N --seconds S --trace 0|1";
  Logs.set_level None;
  if !smoke_json <> "" then smoke !smoke_json
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("scbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end
  else begin
    let cfg =
      { workload = !workload; seed = !seed; seconds = !seconds;
        trace = !trace <> 0; tiny = !tiny; corrupt = !corrupt }
    in
    let r = run cfg in
    report cfg r (metrics cfg r)
  end
