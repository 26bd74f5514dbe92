type t = {
  table : (int * string option) Expiry_table.t; (* key -> (progress, tag) *)
  capacity : int;
  on_evict : unit -> unit;
}

let default_capacity = 1 lsl 17

let create ?(capacity = default_capacity) ?(on_evict = ignore) () =
  if capacity < 1 then invalid_arg "Seq_tracker.create: capacity must be positive";
  { table = Expiry_table.create (); capacity; on_evict }

let progress t ~now key =
  match Expiry_table.find_live t.table ~now key with Some (k, _) -> k | None -> 0

let purge t ~now = Expiry_table.purge t.table ~now

(* Progress is max-monotone: concurrent advancement, replicated imports and
   retransmitted forwards can only move a sequence forward, never rewind
   it — rewinding would re-open already-consumed steps. Re-advancing an
   existing key keeps its insertion rank (it is the same logical sequence,
   not a fresh one). A new key makes room the {!Replay_cache} way: purge
   the dead, then forget the live line whose window closes soonest —
   losing it resets that sequence to its first step, which only ever
   narrows what the proxy can do. *)
let set_progress t ~now ~expires ?tag key k =
  let found = Expiry_table.find_live t.table ~now key in
  let current = match found with Some (c, _) -> c | None -> 0 in
  if k > current then begin
    if Option.is_none found then
      Expiry_table.make_room t.table ~capacity:t.capacity ~now ~on_evict:t.on_evict;
    Expiry_table.update t.table key ~expiry:expires (k, tag)
  end

let advance t ~now ~expires ?tag key =
  let k = progress t ~now key + 1 in
  set_progress t ~now ~expires ?tag key k;
  k

(* Revocation cleanup, same contract as {!Replay_cache.shed}: a bulletin
   that kills a grantor makes every progress line recorded under that
   grantor moot — the chains that fed it can no longer verify, and a fresh
   post-revocation grant must start its sequence from the first step. *)
let shed t ~tag =
  let tag = Some tag in
  Expiry_table.filter t.table (fun (_, tg) -> tg <> tag)

let clear t = Expiry_table.clear t.table
let size t = Expiry_table.length t.table
let capacity t = t.capacity
