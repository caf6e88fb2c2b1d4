(* Monotonic nanosecond clock: every timing in the benchmark reads this,
   so a wall-clock step (NTP) never lands inside a measurement. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* [timed f] is [f ()] and its duration in seconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)
