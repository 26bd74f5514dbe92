(** Bounded memo cache for successful signature verifications.

    A depth-k public-key cascade (Figure 4) presented N times costs N*k RSA
    verifications at the end server; since certificates are immutable bytes
    and verification is deterministic, k of those suffice. The cache
    remembers {e (signed bytes, signature, verifying key)} triples — hashed
    together into one key — that verified successfully, so re-presentations
    skip straight to the cheap checks.

    What is deliberately {e not} cached:

    - certificate time windows and restriction checks — they depend on the
      request and the current time, so the verifier re-runs them on every
      presentation, cached or not; an expired certificate is refused even
      when its signature is remembered;
    - failures — a tampered certificate hashes to a different key, misses,
      and fails the real verification every time.

    Entries also carry a TTL (defaulting to [Pki.Resolver]'s): a cached
    verification asserts "this key signed these bytes", and the binding of
    that key to a principal is only as fresh as the resolver's cache, so
    both expire on the same clock.

    {b Revocation does not wait for the TTL.} The TTL is a freshness
    backstop only; the operative guarantee is {e explicit invalidation}:
    when a revocation bulletin applies ([Revocation] / [Authz.Guard]),
    the holder calls {!invalidate} for a known key or {!bump_generation}
    to retire every current entry at once, and invalidated entries can
    never be re-hit — the next presentation re-runs the full signature
    walk, where the verifier's revocation check refuses the revoked link.
    (Even a stale entry that somehow survived would not grant access:
    the verifier re-checks time windows, restrictions, {e and} revocation
    on every presentation; the cache only memoizes the RSA operation.)

    The cache is bounded: at capacity, recording a new key evicts the
    least recently recorded entry. Hit/miss/eviction/invalidation totals
    are kept here and callers (e.g. [Authz.Guard]) mirror them into
    [Sim.Metrics]. {!Link_cache} is the same cache with a structured
    value per key: both instantiate ['a memo] over one {!Expiry_table}. *)

type 'a memo
(** A TTL memo cache from string keys to ['a]; this module's own entries
    carry no value ([t]). *)

type t = unit memo
type stats = { hits : int; misses : int; evictions : int; invalidations : int; size : int }

val create :
  ?capacity:int ->
  ?ttl_us:int ->
  ?on_evict:(unit -> unit) ->
  ?on_invalidate:(unit -> unit) ->
  unit ->
  'a memo
(** Defaults: capacity 1024 entries, TTL one simulated hour. [on_evict]
    fires once per capacity eviction (not on TTL expiry); [on_invalidate]
    fires once per entry dropped by {!invalidate} or {!bump_generation}. A
    [capacity] of 0 creates a {e disabled} cache: {!check} always misses
    and {!record} is a no-op — differential tests use it to run identical
    guard wiring with caching off. *)

val frame : string -> string
(** Length framing: a 4-byte big-endian length, then the bytes. Framed
    concatenations are unambiguous, so ("ab","c") and ("a","bc") cannot
    key the same entry. *)

val key : signed_bytes:string -> signature:string -> signer:string -> string
(** Cache key for a verification: SHA-256 over the length-framed signed
    bytes, signature, and serialized verifying key. *)

val check : _ memo -> now:int -> string -> bool
(** [check t ~now key] is [true] when this verification succeeded before
    and the entry is still within its TTL. Counts a hit or a miss; expired
    entries are dropped and count as misses. *)

val record : t -> now:int -> string -> unit
(** Remember a successful verification, evicting the {e least recently
    recorded} entry when at capacity. Re-recording an existing key
    refreshes both its TTL and its eviction rank, so an entry that keeps
    being re-verified survives capacity churn instead of being first out
    of the door. Only call on success. *)

val find : 'a memo -> now:int -> string -> 'a option
(** The value under a key within its TTL, counting nothing; an expired
    entry is dropped. *)

val count_lookup : _ memo -> hit:bool -> unit
(** Count one hit or one miss (for callers that probe with {!find}). *)

val store : 'a memo -> now:int -> string -> 'a -> unit
(** {!record} with a value. *)

val flush : _ memo -> unit
(** Drop all entries (counters are kept). *)

val invalidate : _ memo -> string -> unit
(** Drop one entry by cache key, counting an invalidation if it was
    present. Used when the caller can name the exact verification to
    distrust (the keys are hashes, so this requires re-deriving the key
    from the certificate bytes). *)

val bump_generation : _ memo -> int
(** Retire {e every} entry: each is dropped and counted as an
    invalidation, and the generation counter advances. Returns the number
    of entries retired. This is the revocation-storm path: cache keys are
    one-way hashes, so a revoked link cannot be mapped back to the
    dependent entries — the bulletin holder retires everything and lets
    honest traffic repopulate the cache. The table is cleared in O(1);
    [on_invalidate] fires once per entry retired, so a storm of
    consecutive bumps costs O(entries live at the first bump). *)

val generation : _ memo -> int
(** Starts at 0; incremented by every {!bump_generation}. *)

val stats : _ memo -> stats
val size : _ memo -> int
val capacity : _ memo -> int
