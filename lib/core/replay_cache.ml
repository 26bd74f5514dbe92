type t = {
  table : string option Expiry_table.t; (* identifier -> tag *)
  capacity : int;
  on_evict : unit -> unit;
}

let default_capacity = 1 lsl 17

let create ?(capacity = default_capacity) ?(on_evict = ignore) () =
  if capacity < 1 then invalid_arg "Replay_cache.create: capacity must be positive";
  { table = Expiry_table.create (); capacity; on_evict }

let seen t ~now id = Option.is_some (Expiry_table.find_live t.table ~now id)
let purge t ~now = Expiry_table.purge t.table ~now

(* Capacity pressure: purge the dead first; if the cache is genuinely full
   of live identifiers, drop the one closest to its natural expiry — it is
   the one whose replay window closes soonest, so forgetting it early
   reopens the smallest window. Expiry ties break by insertion order. *)
let record t ~now ~expires ?tag id =
  if seen t ~now id then Error (Printf.sprintf "accept-once identifier %S already recorded" id)
  else begin
    Expiry_table.make_room t.table ~capacity:t.capacity ~now ~on_evict:t.on_evict;
    Expiry_table.add t.table id ~expiry:expires tag;
    Ok ()
  end

(* Revocation cleanup: a bulletin that kills a grantor makes every
   accept-once identifier recorded under that grantor's authority moot —
   the credential that carried it can no longer verify, so keeping the
   record only burns capacity and, worse, collides with a legitimately
   re-issued credential that reuses the identifier (a re-drawn check
   number). One O(size) walk per freshly revoked tag; bounded by the
   capacity and far rarer than record/seen traffic. *)
let shed t ~tag =
  let tag = Some tag in
  Expiry_table.filter t.table (fun tg -> tg <> tag)

let size t = Expiry_table.length t.table
let capacity t = t.capacity
