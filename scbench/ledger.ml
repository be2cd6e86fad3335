(* The per-layer ledger of a traced pass.  Layers are timed from
   outside, around calls into their public entry points; work counts
   are deltas of the program's own [Obs] counters and GC statistics
   taken around the same calls, and pool balance is read from the
   [pool.chunk] spans the program already records.  While [on] is
   false every wrapper is a plain call. *)

module Obs = Scnoise_obs.Obs
module Clock = Scnoise_obs.Clock
module Covariance = Scnoise_core.Covariance
module Psd = Scnoise_core.Psd

type t = {
  mutable on : bool;
  samples : (string, float list ref) Hashtbl.t;
  mutable op_layers_s : float;  (* layer time inside the current op *)
}

let create () = { on = false; samples = Hashtbl.create 64; op_layers_s = 0.0 }

(* Tracing covers the ledger and the program's own spans (which carry
   the pool's chunk timeline). *)
let set_on l on =
  l.on <- on;
  if on then Obs.enable () else Obs.disable ()

let record l name x =
  match Hashtbl.find_opt l.samples name with
  | Some r -> r := x :: !r
  | None -> Hashtbl.add l.samples name (ref [ x ])

let values l name =
  match Hashtbl.find_opt l.samples name with
  | Some r -> Array.of_list !r
  | None -> [||]

(* Time one call into a layer; the duration joins [name]'s samples and
   the current op's covered time. *)
let time l name f =
  if not l.on then f ()
  else begin
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Clock.elapsed t0 in
        record l name dt;
        l.op_layers_s <- l.op_layers_s +. dt)
      f
  end

let counters names = List.map Obs.counter_value names

let record_deltas l names before =
  List.iter2
    (fun (name, metric) c0 ->
      record l metric (float_of_int (Obs.counter_value name - c0)))
    names before

let covariance_counters =
  [
    ("expm_calls", "covariance.expm_calls");
    ("lu_factorizations", "covariance.lu_factorizations");
    ("lyapunov.doubling_steps", "covariance.doubling_steps");
  ]

let sample l sys =
  if not l.on then Covariance.sample sys
  else begin
    let c0 = counters (List.map fst covariance_counters) in
    let cov = time l "covariance.sample_s" (fun () -> Covariance.sample sys) in
    record_deltas l covariance_counters c0;
    record l "covariance.peak_rank" (float_of_int cov.Covariance.peak_rank);
    record l "covariance.ks_bytes" (float_of_int (Covariance.ks_bytes cov));
    cov
  end

(* [Psd.prepare] is exactly [Covariance.sample] followed by
   [Psd.of_sampled]; calling the halves separately times the covariance
   and BVP layers apart without changing a bit of the result. *)
let prepare l sys ~output =
  let cov = sample l sys in
  time l "bvp.prepare_s" (fun () -> Psd.of_sampled cov ~output)

let sweep_counters =
  [
    ("lu_solves", "psd.lu_solves");
    ("clu_solves", "psd.clu_solves");
    ("ode_demod_refines", "psd.demod_refines");
    ("clu_factorizations", "psd.clu_factorizations");
    ("psd.unbatched_points", "psd.unbatched");
    ("bvp_fallback_steps", "psd.fallback_steps");
    ("pool.chunks", "par.chunks");
    ("pool.worker_chunks", "par.worker_chunks");
  ]

(* Busiest domain's [pool.chunk] time over the mean across the pool's
   domains, for each [psd.sweep] span: 1 is a perfect split. *)
let chunk_imbalance spans ~jobs =
  List.filter_map
    (fun (sp : Obs.span) ->
      if sp.Obs.sp_name <> "psd.sweep" then None
      else begin
        let busy = Hashtbl.create 4 in
        List.iter
          (fun (c : Obs.span) ->
            if c.Obs.sp_name = "pool.chunk" then
              Hashtbl.replace busy c.Obs.sp_domain
                (c.Obs.sp_duration
                +. Option.value ~default:0.0
                     (Hashtbl.find_opt busy c.Obs.sp_domain)))
          sp.Obs.sp_children;
        let total = Hashtbl.fold (fun _ b acc -> acc +. b) busy 0.0 in
        let top = Hashtbl.fold (fun _ b acc -> Float.max acc b) busy 0.0 in
        if total <= 0.0 then None
        else
          Some (top /. (total /. float_of_int (max jobs (Hashtbl.length busy))))
      end)
    spans

let sweep l eng freqs =
  if not l.on then Psd.sweep eng freqs
  else begin
    ignore (Obs.drain_domain_spans ());
    let c0 = counters (List.map fst sweep_counters) in
    let w0 = Gc.minor_words () in
    let v = time l "psd.sweep_s" (fun () -> Psd.sweep eng freqs) in
    record l "psd.minor_words" (Gc.minor_words () -. w0);
    record_deltas l sweep_counters c0;
    record l "psd.points" (float_of_int (Array.length freqs));
    List.iter
      (record l "par.chunk_imbalance")
      (chunk_imbalance (Obs.drain_domain_spans ())
         ~jobs:(Scnoise_par.Pool.jobs (Scnoise_par.Pool.global ())));
    v
  end

(* Bracket one benchmark operation: [f] runs with the op's covered
   time reset, and its wall time and covered time are recorded. *)
let op l f =
  l.op_layers_s <- 0.0;
  let t0 = Clock.now () in
  let r = f () in
  let wall = Clock.elapsed t0 in
  if l.on then begin
    record l "ledger.op_s" wall;
    record l "ledger.covered_s" l.op_layers_s
  end;
  (r, wall)
