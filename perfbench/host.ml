(* Host probe: a fixed reference kernel timed at the start and the end of
   every run, with the processor count, the load average and the CPU time
   stolen by the hypervisor during the run, so that sets of runs that
   disagree can be put down to the host rather than the program. *)

(* A pointer chase over a 256 KiB table, about 10 ms of work: cache- and
   ALU-bound like the node itself, and identical on every run. *)
let kernel () =
  let n = 32768 in
  let a = Array.init n (fun i -> ((i * 7919) + 13) land (n - 1)) in
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to 3_000_000 do
    j := a.(!j);
    acc := !acc + !j
  done;
  Sys.opaque_identity !acc

(* Median of five timings of the kernel, in ms. *)
let probe_ms () =
  Stats.median
    (List.init 5 (fun _ ->
         let (_ : int), s = Clock.timed kernel in
         s *. 1e3))

let nproc () = Domain.recommended_domain_count ()

(* The CPU time the hypervisor gave to others (steal) and the total, in
   clock ticks since boot, from the aggregate line of /proc/stat; zeros
   where the kernel does not publish them. *)
let cpu_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = input_line ic in
    close_in ic;
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let ticks = List.map int_of_string fields in
      let steal = match List.filteri (fun i _ -> i = 7) ticks with [ s ] -> s | _ -> 0 in
      (steal, List.fold_left ( + ) 0 ticks)
    | _ -> (0, 0)
  with _ -> (0, 0)

(* Share of the machine's CPU time stolen between two [cpu_ticks]
   readings, in percent. *)
let steal_pct (s0, t0) (s1, t1) =
  if t1 <= t0 then 0. else 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(* One-minute load average; 0 where the kernel does not publish it. *)
let load1 () =
  try
    let ic = open_in "/proc/loadavg" in
    let line = input_line ic in
    close_in ic;
    Scanf.sscanf line "%f" Fun.id
  with _ -> 0.
