type 'a memo = {
  capacity : int;
  ttl_us : int;
  on_evict : unit -> unit;
  on_invalidate : unit -> unit;
  table : 'a Expiry_table.t;
      (* key -> value, expiring at recorded_at + ttl_us. Every caller
         records on one virtual clock per cache (its net's, or a constant
         in the offline benches), and that clock never goes back, so with
         the TTL fixed the table's (expiry, seq) order is recording order:
         pop_min evicts the least recently recorded entry. *)
  mutable generation : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type t = unit memo
type stats = { hits : int; misses : int; evictions : int; invalidations : int; size : int }

let default_capacity = 1024
let default_ttl_us = 3_600_000_000 (* matches Pki.Resolver's default TTL *)

let create ?(capacity = default_capacity) ?(ttl_us = default_ttl_us) ?(on_evict = ignore)
    ?(on_invalidate = ignore) () =
  if capacity < 0 then invalid_arg "Verify_cache.create: capacity must be non-negative";
  if ttl_us < 1 then invalid_arg "Verify_cache.create: ttl must be positive";
  {
    capacity;
    ttl_us;
    on_evict;
    on_invalidate;
    table = Expiry_table.create ();
    generation = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let frame s =
  let n = String.length s in
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) ^ s

let key ~signed_bytes ~signature ~signer =
  Crypto.Sha256.digest (frame signed_bytes ^ frame signature ^ frame signer)

(* TTL expiry drops the entry: the signer binding may have been revoked
   since we verified, so the lookup misses and forces a re-verification.
   A disabled cache (capacity 0) never records, so every lookup misses. *)
let find t ~now k = Expiry_table.find_live t.table ~now k

let count_lookup (t : _ memo) ~hit =
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1

let check t ~now k =
  let hit = Option.is_some (find t ~now k) in
  count_lookup t ~hit;
  hit

(* Only a fresh key can push the cache past its bound; re-recording a
   present key just refreshes its TTL and moves it to the back. *)
let store t ~now k v =
  if t.capacity > 0 then begin
    if (not (Expiry_table.mem t.table k)) && Expiry_table.length t.table >= t.capacity
    then begin
      Expiry_table.pop_min t.table;
      t.evictions <- t.evictions + 1;
      t.on_evict ()
    end;
    Expiry_table.add t.table k ~expiry:(now + t.ttl_us) v
  end

let record t ~now k = store t ~now k ()
let flush t = Expiry_table.clear t.table

(* Explicit invalidation: unlike TTL expiry (a passive freshness bound) and
   capacity eviction (a space bound), these are {e correctness} events — a
   revocation arrived and the memoized verdicts are no longer trustworthy.
   They are counted separately so the invalidation storm is observable. *)
let invalidate t k =
  if Expiry_table.mem t.table k then begin
    Expiry_table.remove t.table k;
    t.invalidations <- t.invalidations + 1;
    t.on_invalidate ()
  end

(* One bump retires every entry: the cache cannot map a revoked serial
   back to the hashed keys that depend on it, so re-presentations pay the
   full RSA walk again. Clearing the table is O(1); only [on_invalidate]
   fires once per retired entry. *)
let bump_generation t =
  let n = Expiry_table.length t.table in
  Expiry_table.clear t.table;
  t.generation <- t.generation + 1;
  t.invalidations <- t.invalidations + n;
  for _ = 1 to n do
    t.on_invalidate ()
  done;
  n

let generation t = t.generation

let stats (t : _ memo) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    size = Expiry_table.length t.table;
  }

let size t = Expiry_table.length t.table
let capacity t = t.capacity
