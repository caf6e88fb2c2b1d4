(* The expected contents of a store as the benchmark's client knows them.
   An acknowledged put pins its key to one value; a put that failed leaves
   the key indeterminate: a read may return the failed value or any value
   it could return before. A read is wrong when it returns anything else.

   Values come from a fixed pool, so physical equality dedupes them and
   every set stays bounded by the pool. *)

type t = {
  now : (string, string option list) Hashtbl.t;  (** what a read may return *)
  ever : (string, string option list) Hashtbl.t;  (** every value ever put, and absence *)
}

let create () = { now = Hashtbl.create 1024; ever = Hashtbl.create 1024 }

let find tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:[ None ]

let add tbl key value =
  let cur = find tbl key in
  if not (List.exists (function Some v -> v == value | None -> false) cur) then
    Hashtbl.replace tbl key (Some value :: cur)

let acked t ~key ~value =
  Hashtbl.replace t.now key [ Some value ];
  add t.ever key value

let put_failed t ~key ~value =
  add t.now key value;
  add t.ever key value

(* After a failed clean shutdown nothing is promised beyond what the disk
   happened to keep: any value the key ever held, or absence. *)
let forget_durability t ~key = Hashtbl.replace t.now key (find t.ever key)

let ok t ~key got = List.exists (fun a -> Option.equal String.equal a got) (find t.now key)

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.ever [] |> List.sort compare
