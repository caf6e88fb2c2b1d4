(* A run that passes its deadline exits as a failed run (exit code 3) and
   names the operation in flight, so a stalled program can never hang the
   pipeline that runs the benchmark. Each of the (at most two) client
   domains publishes what it is doing in its own slot: a static label
   plus an index, two atomic stores per operation and no allocation. *)

type slot = { label : string Atomic.t; index : int Atomic.t }

let slots = Array.init 2 (fun _ -> { label = Atomic.make "start-up"; index = Atomic.make 0 })

let doing ?(slot = 0) label i =
  let s = slots.(slot) in
  Atomic.set s.label label;
  Atomic.set s.index i

let in_flight () =
  Array.to_list slots
  |> List.mapi (fun i s ->
         Printf.sprintf "domain %d: %s #%d" i (Atomic.get s.label) (Atomic.get s.index))
  |> String.concat "; "

let expired = 3

(* [start ~seconds] arms the deadline [seconds] from now. The watcher is a
   systhread of the main domain: the runtime's tick preempts the main
   thread even in a loop that never blocks. *)
let start ~seconds =
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let watch () =
    while Clock.now_ns () < deadline do
      Thread.delay 0.1
    done;
    Printf.eprintf "watchdog: run passed its %.0f s deadline; in flight: %s\n%!" seconds
      (in_flight ());
    Unix._exit expired
  in
  ignore (Thread.create watch ())
