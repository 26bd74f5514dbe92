(** Link-level (chain-prefix) memo cache for public-key cascade walks.

    [Verify_cache] memoizes individual signature verifications, so a
    depth-k cascade re-presented by the same holder costs k cache probes
    (and zero RSA) per presentation. This cache works one level up: it
    memoizes the {e verified walk state} of every chain prefix, keyed by a
    rolling digest over the certificate bytes. A presentation whose prefix
    was walked before resumes after the longest cached prefix, so:

    - M holders whose chains extend one shared depth-k cascade (the
      paper's Figure 4 fan-out) cost O(k+M) RSA verifications in total —
      the shared prefix is walked once and every holder pays only for its
      own tail — instead of the O(k·M) a whole-signature-granularity
      cache charges (each of the M distinct chains verified end to end);
    - a re-presentation of an already-seen chain is a single digest
      lookup, not k per-signature probes.

    What a prefix hit does {e not} skip: certificate time windows and
    revocation are re-checked for every link of the cached prefix on every
    presentation (the state retains each certificate's body for exactly
    this purpose), and restriction checks and proofs of possession run as
    always. Only the RSA signature walk — immutable bytes, deterministic
    outcome — is amortized, the same contract as [Verify_cache].

    The cache is [Verify_cache]'s memo with this walk state as its value:
    the same TTL, capacity bound and counters. {!bump_generation} (fired
    by [Authz.Guard] when a revocation bulletin extends coverage) retires
    every cached prefix at once, because a hashed prefix digest cannot be
    mapped back to the revoked link it embeds. Even a hit that somehow
    survived would not grant revoked authority — the per-link revocation
    re-check above refuses it — the bump only forces the RSA walk to be
    re-paid. *)

type state = {
  s_last : Proxy_cert.pk_cert;  (** resume point: signs/classifies the next link *)
  s_bodies : Proxy_cert.body list;
      (** head..last — re-checked (window + revocation) on every hit *)
  s_restrictions : Restriction.t list;  (** accumulated, grantee-discharged *)
  s_pending : Restriction.t list;  (** last link's Grantee restrictions, undischarged *)
  s_serials_rev : string list;  (** serials, most recent first *)
  s_expires : int;  (** min expiry over the prefix *)
  s_len : int;  (** number of certificates covered *)
}

type t

type stats = Verify_cache.stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

val create : unit -> t
(** Capacity 1024 prefixes, TTL one simulated hour (the same freshness
    backstop as [Verify_cache] — the operative revocation path is
    {!bump_generation}). A guard without a link cache is configured with
    none, not with a disabled one. *)

val digests : Proxy_cert.pk_cert list -> string array
(** Rolling prefix digests: element [i] covers certificates [0..i]
    (complete bytes — body, proxy key, signer tag {e and} signature, so a
    re-signed or tampered certificate can never collide with a verified
    prefix). Cost: one encode + SHA-256 per certificate. *)

val find_longest : t -> now:int -> string array -> (int * state) option
(** Probe the digests longest-first and return [(len, state)] for the
    longest cached, fresh prefix. Counts exactly one hit or one miss per
    call (not per probe). *)

val record : t -> now:int -> key:string -> state -> unit
(** Remember a verified prefix under its digest. Only call after every
    certificate of the prefix passed signature, window and revocation
    checks. Re-recording refreshes TTL and eviction rank. *)

val bump_generation : t -> int
(** Retire every entry; returns the number retired and charges them to
    [stats.invalidations] (see [Verify_cache.bump_generation]). *)

val stats : t -> stats
val size : t -> int
