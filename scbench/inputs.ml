(* Seeded workload inputs.  Everything here runs before timing starts:
   the program under test only ever sees the deck texts, sweep plans
   and request payloads built from these functions, and the same seed
   always yields the same inputs. *)

module Json = Scnoise_obs.Json
module Grid = Scnoise_util.Grid

let rng ~seed tag = Random.State.make [| seed; tag |]

let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

(* [x] scaled by a factor drawn from [1 - frac, 1 + frac]. *)
let jitter st x frac = x *. uniform st (1.0 -. frac) (1.0 +. frac)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Round-trip exact: the deck lexer reads plain decimal/exponent
   numbers with [float_of_string], so the benchmark knows every value
   the program parses bit for bit (the kT/C check needs C_out exactly). *)
let num x = Printf.sprintf "%.17g" x

(* ---- parasitic ladders (ladder-cold, ladder-stiff) ---- *)

type ladder = {
  l_states : int;
  l_text : string;
  l_c_out : float;  (** capacitance of the output node to ground, F *)
}

(* The [Sc_ladder] family with parasitics written as deck text: every
   capacitor is grounded and every resistor sits at one temperature,
   so the output variance is kT/C_out by equipartition whatever the
   (seeded) element values. *)
let ladder_deck st ~states ~clock_hz ~fmin ~fmax ~points =
  let stages = max 1 (states / 2) in
  let node i = if i = stages then "nlast" else Printf.sprintf "n%d" i in
  let b = Buffer.create (96 * stages) in
  Printf.bprintf b "* seeded parasitic ladder, %d states\n" (2 * stages);
  Printf.bprintf b "S0 %s 0 %s closed=0\n" (node 1) (num (jitter st 1e3 0.1));
  let c_out = ref 0.0 in
  for i = 1 to stages do
    if i > 1 then
      Printf.bprintf b "R%d %s %s %s\n" i (node (i - 1)) (node i)
        (num (jitter st 1e3 0.1));
    let c = jitter st 100e-12 0.1 in
    if i = stages then c_out := c;
    Printf.bprintf b "C%d %s 0 %s\nRP%d %s p%d %s\nCP%d p%d 0 %s\n" i (node i)
      (num c) i (node i) i
      (num (jitter st 10e3 0.1))
      i i
      (num (jitter st 10e-12 0.1))
  done;
  Printf.bprintf b
    ".clock duty period=%s duty=0.5\n.output nlast\n\
     .psd fmin=%s fmax=%s points=%d log\n.end\n"
    (num (1.0 /. clock_hz)) (num fmin) (num fmax) points;
  { l_states = 2 * stages; l_text = Buffer.contents b; l_c_out = !c_out }

type ladder_family = {
  sizes : int array;  (** state counts of one cycle's decks *)
  clock_hz : float;
  fmin : float;
  fmax : float;
  points : int;
}

(* [cycles] cycles of decks, each cycle one deck per entry of [sizes]
   in a seeded order with freshly drawn element values, so every deck
   is new to the program and every run holds the sizes in the same
   proportions. *)
let ladder_decks ~seed fam ~cycles =
  let st = rng ~seed 1 in
  Array.concat
    (List.init cycles (fun _ ->
         let sizes = Array.copy fam.sizes in
         shuffle st sizes;
         Array.map
           (fun states ->
             ladder_deck st ~states ~clock_hz:fam.clock_hz ~fmin:fam.fmin
               ~fmax:fam.fmax ~points:fam.points)
           sizes))

(* ---- sweep plans (sweep-wide) ---- *)

type band = In_band | Wide

type sweep_op = {
  engine : int;  (** index into the workload's engines *)
  freqs : float array;
  probe : int;  (** point re-solved by the scalar path as a check *)
}

(* One cycle of sweep requests: (engine, band, base point count).
   Counts are base + 0..7, so tiles of every remainder occur; in-band
   ranges stay inside the demodulated-refinement band, wide ones run
   to 3..10x the clock, where the sweep falls back to the scalar
   complex-LU path.  Sorted by cost, four cheap low-pass/band-pass
   sweeps come first, then three in-band 250-point band-pass sweeps
   (the median sits in the middle one), then four dearer ones with
   the two 33-point ladder sweeps on top, where the p90 falls. *)
let sweep_classes ~shrink =
  let c base = max 3 (base / shrink) in
  [|
    (0, In_band, c 65); (0, In_band, c 250); (0, Wide, c 250);
    (1, Wide, c 65); (1, In_band, c 250); (1, In_band, c 250);
    (1, In_band, c 250); (1, Wide, c 250); (2, Wide, c 17);
    (2, In_band, c 33); (2, Wide, c 33);
  |]

let sweep_plan ~seed ~clocks ~shrink ~cycles =
  let st = rng ~seed 2 in
  let classes = sweep_classes ~shrink in
  Array.concat
    (List.init cycles (fun _ ->
         let ops =
           Array.map
             (fun (engine, band, base) ->
               let clk = clocks.(engine) in
               let points = base + Random.State.int st 8 in
               let fmin = clk *. uniform st 0.005 0.02 in
               let fmax =
                 match band with
                 | In_band -> clk *. uniform st 0.3 0.45
                 | Wide -> clk *. uniform st 3.0 10.0
               in
               {
                 engine;
                 freqs = Grid.linspace fmin fmax points;
                 probe = Random.State.int st points;
               })
             classes
         in
         shuffle st ops;
         ops))

(* ---- serve request streams (serve-mix) ---- *)

(* The bundled example decks with their values lifted into [.param]
   lines so that variants can perturb them; variant 0 is the bundled
   deck. *)
type base = {
  b_name : string;
  b_params : (string * float) list;
  b_body : string;
  b_clock_hz : (string * float) list -> float;
}

let bases =
  [|
    {
      b_name = "switched_rc";
      b_params = [ ("rs", 1e3); ("c", 1e-9) ];
      b_body =
        ".param T = {5 * rs * c}\nS1 vout 0 {rs} closed=0\nC1 vout 0 {c}\n\
         .clock duty period={T} duty=0.5\n.output vout\n.end\n";
      b_clock_hz =
        (fun p -> 1.0 /. (5.0 *. List.assoc "rs" p *. List.assoc "c" p));
    };
    {
      b_name = "sc_ladder";
      b_params = [ ("r", 1e3); ("c", 100e-12); ("rsw", 1e3) ];
      b_body =
        ".param cp = {c / 10}\n.param rp = {10 * r}\n.param T = 10u\n\
         S0 n1 0 {rsw} closed=0\nC1 n1 0 {c}\nRP1 n1 p1 {rp}\nCP1 p1 0 {cp}\n\
         R2 n1 n2 {r}\nC2 n2 0 {c}\nRP2 n2 p2 {rp}\nCP2 p2 0 {cp}\n\
         R3 n2 n3 {r}\nC3 n3 0 {c}\nRP3 n3 p3 {rp}\nCP3 p3 0 {cp}\n\
         R4 n3 nlast {r}\nC4 nlast 0 {c}\nRP4 nlast p4 {rp}\nCP4 p4 0 {cp}\n\
         .clock duty period={T} duty=0.5\n.output nlast\n.end\n";
      b_clock_hz = (fun _ -> 1e5);
    };
    {
      b_name = "sc_integrator";
      b_params =
        [ ("cs", 1e-12); ("ci", 10e-12); ("cd", 1e-12); ("cp", 50e-15);
          ("ron", 1e3) ];
      b_body =
        ".param T = 10u\nVin vin dc 0\n\
         S1 na vin {ron} closed=0\nS2 nb 0 {ron} closed=0\n\
         S3 na 0 {ron} closed=1\nS4 nb vg {ron} closed=1\n\
         Cs na nb {cs}\nCpa na 0 {cp}\nCpb nb 0 {cp}\n\
         Ci vg vo {ci}\nOPI1 0 vg vo ugf={2 * pi * 10meg}\n\
         S5 nd vo {ron} closed=0\nS6 nd vg {ron} closed=1\nCd nd 0 {cd}\n\
         .clock phases {T / 2} {T / 2}\n.output vo\n.end\n";
      b_clock_hz = (fun _ -> 1e5);
    };
  |]

let deck_text base params =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf ".param %s = %s\n" k (num v)) params)
  ^ base.b_body

(* Fixtures from the ERC catalogue that the daemon must refuse, with
   the error codes it may answer.  [isolated_output] is refused as
   [unstable] today; an ERC stability rule would refuse it as [erc]. *)
let bad_decks =
  [|
    ( "floating_node",
      "R1 in 0 1k\nC1 in 0 1p\nN1 mid 0 psd=1e-24\nN2 mid 0 psd=1e-24\n\
       .clock duty period=1u duty=0.5\n.output in\n.end\n",
      [ "erc" ] );
    ( "isolated_output",
      "V1 mid dc 1\nR1 a mid 10k\nC1 a 0 1p\nC2 out mid 1p\n\
       .clock duty period=1u duty=0.5\n.output out\n.end\n",
      [ "unstable"; "erc" ] );
    ( "phase_range",
      "S1 a 0 1k closed=3\nR1 a 0 1e6\nC1 a 0 1n\n\
       .clock duty period=1u duty=0.5\n.output a\n.end\n",
      [ "erc" ] );
    ( "source_short",
      "V1 vin dc 1\nS1 vin 0 1k closed=0\nC1 vin 0 1p\n\
       .clock duty period=1u duty=0.5\n.output vin\n.end\n",
      [ "erc" ] );
    ( "structural_singular",
      "V1 vin dc 1\nR1 vin a 10k\nC1 a b 1p\nC2 b 0 1e-26\n\
       .clock duty period=1u duty=0.5\n.output a\n.end\n",
      [ "erc" ] );
    ( "unit_mismatch",
      ".param rload = 2pF\nR1 out 0 {rload}\nC1 out 0 1p\n\
       .clock duty period=1u duty=0.5\n.output out\n.end\n",
      [ "erc" ] );
    ( "truncated_card",
      "R1 out 0 1k\nC1 out 0\n.clock duty period=1u duty=0.5\n.output out\n\
       .end\n",
      [ "deck" ] );
  |]

type kind = Repeat | New_range | Novel | Bad

type request = {
  payload : string;  (** the frame payload sent to the daemon *)
  deck : string;
  fmin : float;
  fmax : float;
  points : int;
  log : bool;
  expect : string list;  (** accepted error codes; [[]] = must succeed *)
}

type stream = {
  requests : request array;  (** distinct payloads *)
  warm : int array;  (** sent during set-up, before timing *)
  order : int array;  (** indices into [requests], in sending order *)
}

(* Per block of 20: 13 exact repeats, 4 new ranges on a recently used
   deck, 2 novel decks, 1 bad deck, in seeded order.  Most repeats
   draw from the 16 most recent distinct requests, the rest from the
   64 most recent — more than the daemon's 32 result entries — and new
   ranges from the 6 most recent decks, so inserts and evictions run
   beside hits while the median request stays a result hit. *)
let block = [| (Repeat, 13); (New_range, 4); (Novel, 2); (Bad, 1) |]

let repeat_window = 64

let hot_window = 16

let hot_share = 0.95

let deck_window = 6

let psd_payload ~name ~deck ~fmin ~fmax ~points ~log =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.Str "psd");
         ("deck", Json.Str deck);
         ("deck_name", Json.Str name);
         ("fmin", Json.Num fmin);
         ("fmax", Json.Num fmax);
         ("points", Json.Num (float_of_int points));
         ("log", Json.Bool log);
       ])

let serve_stream ~seed ~length =
  let st = rng ~seed 3 in
  let requests = ref [] and nreq = ref 0 in
  let add r =
    requests := r :: !requests;
    incr nreq;
    !nreq - 1
  in
  let recent_reqs = ref [] and recent_decks = ref [] in
  let remember x l w = l := List.filteri (fun i _ -> i < w) (x :: !l) in
  let variants = ref 0 in
  let new_request (name, text, clock) =
    let log = Random.State.bool st in
    let fmin = if log then clock *. uniform st 1e-3 1e-2 else 0.0 in
    let fmax = clock *. uniform st 0.1 0.45 in
    let points = 9 + Random.State.int st 25 in
    let i =
      add
        {
          payload = psd_payload ~name ~deck:text ~fmin ~fmax ~points ~log;
          deck = text;
          fmin;
          fmax;
          points;
          log;
          expect = [];
        }
    in
    remember i recent_reqs repeat_window;
    i
  in
  let novel_deck () =
    let b = bases.(!variants mod Array.length bases) in
    let params =
      if !variants < Array.length bases then b.b_params
      else List.map (fun (k, v) -> (k, jitter st v 0.2)) b.b_params
    in
    incr variants;
    let d =
      (Printf.sprintf "%s-v%d" b.b_name !variants, deck_text b params,
       b.b_clock_hz params)
    in
    remember d recent_decks deck_window;
    d
  in
  let bad =
    Array.map
      (fun (name, text, codes) ->
        add
          {
            payload =
              psd_payload ~name ~deck:text ~fmin:0.0 ~fmax:1e5 ~points:9
                ~log:false;
            deck = text;
            fmin = 0.0;
            fmax = 1e5;
            points = 9;
            log = false;
            expect = codes;
          })
      bad_decks
  in
  let nbad = ref 0 in
  let warm = Array.init (Array.length bases) (fun _ -> new_request (novel_deck ())) in
  let pattern =
    Array.concat (Array.to_list (Array.map (fun (k, n) -> Array.make n k) block))
  in
  let order = Array.make length 0 in
  let pos = ref 0 in
  while !pos < length do
    let p = Array.copy pattern in
    shuffle st p;
    Array.iter
      (fun k ->
        if !pos < length then begin
          let pick l = List.nth l (Random.State.int st (List.length l)) in
          order.(!pos) <-
            (match k with
            | Repeat ->
                let l = !recent_reqs in
                if Random.State.float st 1.0 < hot_share || List.length l <= hot_window
                then pick (List.filteri (fun i _ -> i < hot_window) l)
                else pick (List.filteri (fun i _ -> i >= hot_window) l)
            | New_range -> new_request (pick !recent_decks)
            | Novel -> new_request (novel_deck ())
            | Bad ->
                incr nbad;
                bad.((!nbad - 1) mod Array.length bad));
          incr pos
        end)
      p
  done;
  { requests = Array.of_list (List.rev !requests); warm; order }
