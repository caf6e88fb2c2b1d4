(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank quantile of an ascending array; [0.] when empty. *)
let rank_quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median xs = rank_quantile (sorted xs) 0.5

(* The tail latency the benchmark reports: the 99th percentile, lowered
   when there are too few samples for ten of them to lie beyond it (a
   percentile with fewer samples past it is a guess at one outlier). *)
let tail a =
  let n = Array.length a in
  if n = 0 then 0.
  else if n >= 1000 then rank_quantile a 0.99
  else a.(max 0 (n - 11))

(* Samples accumulate in a growable float array: latency recording must
   not allocate a list cell per request inside a timed loop. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let count t = t.len
  let append ~into t = for i = 0 to t.len - 1 do add into t.data.(i) done

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort compare a;
    a

  let p50 t = rank_quantile (sorted t) 0.5

  (* The tail of a long run is the median of the tails of its consecutive
     slices of at least 1000 samples: one burst of host contention moves
     one slice, not the figure. *)
  let p99 t =
    let slices = max 1 (t.len / 1000) in
    if slices < 3 then tail (sorted t)
    else
      median
        (List.init slices (fun k ->
             let lo = k * t.len / slices and hi = (k + 1) * t.len / slices in
             let a = Array.sub t.data lo (hi - lo) in
             Array.sort compare a;
             tail a))
end
