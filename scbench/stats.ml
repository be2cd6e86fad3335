(* Order statistics over latency samples. *)

(* Linear interpolation between closest ranks (h = (n - 1) p), the
   usual sample quantile; [nan] on an empty sample. *)
let quantile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let h = float_of_int (n - 1) *. p in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* Number of samples strictly above the [p] quantile. *)
let beyond xs p =
  let q = quantile xs p in
  Array.fold_left (fun k x -> if x > q then k + 1 else k) 0 xs
