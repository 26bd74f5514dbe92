(** A bounded-cache core: string keys mapped to values, each entry ranked
    by [(expiry, insertion seq)].

    A hash table finds entries by key; an array-backed binary min-heap
    orders them, so the entry that expires soonest — ties going to the
    one inserted first — is always at hand. Every operation is O(log n)
    except {!filter}, which walks the table once. The seq makes the order
    total and independent of hashing, so two tables fed the same
    operations always evict the same entries.

    The accept-once caches ([Replay_cache], [Seq_tracker], the
    [Secure_rpc] response cache) rank by the entry's own expiry and use
    {!make_room}. The TTL memo caches ([Verify_cache], [Link_cache]) rank
    by [recorded_at + ttl]; on a clock that never goes back that is
    recording order, so {!pop_min} evicts the least recently recorded. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val mem : 'a t -> string -> bool

val find : 'a t -> string -> 'a option
(** The value under a key, expired or not. *)

val find_live : 'a t -> now:int -> string -> 'a option
(** The value under a key whose expiry is after [now]; an entry that
    has expired is removed and the lookup answers [None]. *)

val add : 'a t -> string -> expiry:int -> 'a -> unit
(** Insert with a fresh seq, replacing any entry under the key. *)

val update : 'a t -> string -> expiry:int -> 'a -> unit
(** Replace an entry's expiry and value but keep its seq (its rank among
    equal expiries); {!add} when the key is absent. *)

val remove : 'a t -> string -> unit
val pop_min : 'a t -> unit
(** Remove the soonest-expiring entry, if any. *)

val purge : 'a t -> now:int -> unit
(** Remove every entry whose expiry is at or before [now]. *)

val make_room : 'a t -> capacity:int -> now:int -> on_evict:(unit -> unit) -> unit
(** The accept-once policy under capacity pressure: when the table holds
    [capacity] entries or more, purge the expired ones; if it is still
    full, {!pop_min} the live entry whose window closes soonest and call
    [on_evict]. *)

val filter : 'a t -> ('a -> bool) -> int
(** Keep the entries whose value satisfies the predicate; returns how many
    were removed. O(n). *)

val clear : 'a t -> unit
