(* Reference implementations of the bounded caches as they stood before
   they were ported onto [Expiry_table]: the fold-based accept-once tables
   ([Replay_cache], [Seq_tracker], the [Secure_rpc] response cache) and the
   FIFO-queue, lazy-generation [Verify_cache]. The equivalence property in
   test_expiry_table replays random traces against these and the real
   modules and requires identical answers, callbacks and sizes. *)

module Replay = struct
  type t = {
    entries : (string, int * int * string option) Hashtbl.t;
        (* identifier -> (expiry, insertion seq, tag) *)
    capacity : int;
    on_evict : unit -> unit;
    mutable next_seq : int;
        (* monotonic insertion counter — the eviction tie-break. Hashtbl fold
           order depends on resize history, so two caches holding the same
           entries can disagree about which of several equal-expiry entries
           "comes first"; the seq makes the soonest-expiry pick total. *)
  }

  let default_capacity = 1 lsl 17
  let no_evict () = ()

  let create ?(capacity = default_capacity) ?(on_evict = no_evict) () =
    if capacity < 1 then invalid_arg "Replay_cache.create: capacity must be positive";
    { entries = Hashtbl.create 64; capacity; on_evict; next_seq = 0 }

  let seen t ~now id =
    match Hashtbl.find_opt t.entries id with
    | None -> false
    | Some (expires, _, _) ->
        if expires > now then true
        else begin
          Hashtbl.remove t.entries id;
          false
        end

  let purge t ~now =
    let stale =
      Hashtbl.fold
        (fun id (expires, _, _) acc -> if expires <= now then id :: acc else acc)
        t.entries []
    in
    List.iter (Hashtbl.remove t.entries) stale

  (* Capacity pressure: purge the dead first; if the cache is genuinely full
     of live identifiers, drop the one closest to its natural expiry — it is
     the one whose replay window closes soonest, so forgetting it early
     reopens the smallest window. Expiry ties break by insertion seq (oldest
     first), never by hash iteration order. *)
  let evict_soonest t =
    match
      Hashtbl.fold
        (fun id (expires, seq, _) best ->
          match best with
          | Some (_, e, s) when (e, s) <= (expires, seq) -> best
          | _ -> Some (id, expires, seq))
        t.entries None
    with
    | None -> ()
    | Some (id, _, _) ->
        Hashtbl.remove t.entries id;
        t.on_evict ()

  let record t ~now ~expires ?tag id =
    if seen t ~now id then Error (Printf.sprintf "accept-once identifier %S already recorded" id)
    else begin
      if Hashtbl.length t.entries >= t.capacity then begin
        purge t ~now;
        if Hashtbl.length t.entries >= t.capacity then evict_soonest t
      end;
      Hashtbl.replace t.entries id (expires, t.next_seq, tag);
      t.next_seq <- t.next_seq + 1;
      Ok ()
    end

  (* Revocation cleanup: a bulletin that kills a grantor makes every
     accept-once identifier recorded under that grantor's authority moot —
     the credential that carried it can no longer verify, so keeping the
     record only burns capacity and, worse, collides with a legitimately
     re-issued credential that reuses the identifier (a re-drawn check
     number). One O(size) fold per freshly revoked tag; bounded by the
     capacity and far rarer than record/seen traffic. *)
  let shed t ~tag =
    let doomed =
      Hashtbl.fold
        (fun id (_, _, tg) acc -> if tg = Some tag then id :: acc else acc)
        t.entries []
    in
    List.iter (Hashtbl.remove t.entries) doomed;
    List.length doomed

  let size t = Hashtbl.length t.entries
  let capacity t = t.capacity
end

module Seq = struct
  type t = {
    entries : (string, int * int * int * string option) Hashtbl.t;
        (* key -> (progress, expiry, insertion seq, tag) *)
    capacity : int;
    on_evict : unit -> unit;
    mutable next_seq : int;
        (* monotonic insertion counter — the eviction tie-break, mirroring
           {!Replay_cache}: Hashtbl fold order depends on resize history, so
           equal-expiry entries need a total order of their own. *)
  }

  let default_capacity = 1 lsl 17
  let no_evict () = ()

  let create ?(capacity = default_capacity) ?(on_evict = no_evict) () =
    if capacity < 1 then invalid_arg "Seq_tracker.create: capacity must be positive";
    { entries = Hashtbl.create 64; capacity; on_evict; next_seq = 0 }

  let progress t ~now key =
    match Hashtbl.find_opt t.entries key with
    | None -> 0
    | Some (k, expires, _, _) ->
        if expires > now then k
        else begin
          Hashtbl.remove t.entries key;
          0
        end

  let purge t ~now =
    let stale =
      Hashtbl.fold
        (fun key (_, expires, _, _) acc -> if expires <= now then key :: acc else acc)
        t.entries []
    in
    List.iter (Hashtbl.remove t.entries) stale

  (* Capacity pressure mirrors {!Replay_cache}: purge the dead first; if the
     tracker is genuinely full of live entries, forget the one whose window
     closes soonest — losing it resets that sequence to its first step, which
     only ever narrows what the proxy can do. Expiry ties break by insertion
     seq (oldest first), never by hash iteration order. *)
  let evict_soonest t =
    match
      Hashtbl.fold
        (fun key (_, expires, seq, _) best ->
          match best with
          | Some (_, e, s) when (e, s) <= (expires, seq) -> best
          | _ -> Some (key, expires, seq))
        t.entries None
    with
    | None -> ()
    | Some (key, _, _) ->
        Hashtbl.remove t.entries key;
        t.on_evict ()

  let make_room t ~now =
    if Hashtbl.length t.entries >= t.capacity then begin
      purge t ~now;
      if Hashtbl.length t.entries >= t.capacity then evict_soonest t
    end

  (* Progress is max-monotone: concurrent advancement, replicated imports and
     retransmitted forwards can only move a sequence forward, never rewind
     it — rewinding would re-open already-consumed steps. Re-advancing an
     existing key keeps its original insertion seq (it is the same logical
     sequence, not a fresh one). *)
  let set_progress t ~now ~expires ?tag key k =
    let current = progress t ~now key in
    if k > current then begin
      let seq =
        match Hashtbl.find_opt t.entries key with
        | Some (_, _, s, _) -> s
        | None ->
            make_room t ~now;
            let s = t.next_seq in
            t.next_seq <- t.next_seq + 1;
            s
      in
      Hashtbl.replace t.entries key (k, expires, seq, tag)
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
    let doomed =
      Hashtbl.fold
        (fun key (_, _, _, tg) acc -> if tg = Some tag then key :: acc else acc)
        t.entries []
    in
    List.iter (Hashtbl.remove t.entries) doomed;
    List.length doomed

  let clear t = Hashtbl.reset t.entries
  let size t = Hashtbl.length t.entries
  let capacity t = t.capacity
end

module Response = struct
  type cache = {
    capacity : int;
    seen_auths : (string, int * int * string) Hashtbl.t;
        (* digest -> (expiry, insertion seq, sealed reply) *)
    mutable next_seq : int;
        (* monotonic insertion counter — the eviction tie-break. Hashtbl fold
           order depends on resize history, so two replicas holding the same
           entries (primary vs replication-seeded standby) could otherwise
           evict different equal-expiry responses and diverge. *)
  }

  let create_cache ?(capacity = 4096) () =
    if capacity < 1 then invalid_arg "Secure_rpc.create_cache: capacity must be positive";
    { capacity; seen_auths = Hashtbl.create 64; next_seq = 0 }

  let cache_insert ~on_evict cache ~now auth_id ~expires ~reply =
    let { capacity; seen_auths; _ } = cache in
    if Hashtbl.length seen_auths >= capacity then begin
      let stale =
        Hashtbl.fold
          (fun k (expiry, _, _) acc -> if expiry <= now then k :: acc else acc)
          seen_auths []
      in
      List.iter (Hashtbl.remove seen_auths) stale;
      if Hashtbl.length seen_auths >= capacity then begin
        match
          Hashtbl.fold
            (fun k (expiry, seq, _) best ->
              match best with
              | Some (_, e, s) when (e, s) <= (expiry, seq) -> best
              | _ -> Some (k, expiry, seq))
            seen_auths None
        with
        | None -> ()
        | Some (k, _, _) ->
            Hashtbl.remove seen_auths k;
            on_evict ()
      end
    end;
    Hashtbl.replace seen_auths auth_id (expires, cache.next_seq, reply);
    cache.next_seq <- cache.next_seq + 1

  let find cache auth_id =
    Option.map (fun (_, _, reply) -> reply) (Hashtbl.find_opt cache.seen_auths auth_id)

  let cached cache ~auth_id = Hashtbl.mem cache.seen_auths auth_id
end

module Verify = struct
  type t = {
    capacity : int;
    ttl_us : int;
    on_evict : unit -> unit;
    on_invalidate : unit -> unit;
    table : (string, int * int * int) Hashtbl.t;
        (* key -> (recorded_at, seq, generation). An entry whose generation
           predates [t.generation] was retired by a bump and is dead: it was
           already counted as an invalidation when the bump happened, so the
           lazy sweep that finds it later just drops it without touching any
           counter. *)
    order : (string * int) Queue.t;
        (* (key, seq) in recording order; an entry whose seq no longer matches
           the table was re-recorded later and is skipped. The seq (not the
           timestamp) carries eviction rank: the virtual clock may not advance
           between two records, but the sequence always does. *)
    mutable seq : int;
    mutable generation : int;
    mutable live : int;
        (* number of table entries carrying the current generation — the
           cache's logical size, and the exact count a bump must charge to
           [invalidations]. Maintained incrementally so {!bump_generation}
           never walks the table. *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable invalidations : int;
  }

  type stats = { hits : int; misses : int; evictions : int; invalidations : int; size : int }

  let default_capacity = 1024
  let default_ttl_us = 3_600_000_000 (* matches Pki.Resolver's default TTL *)
  let no_evict () = ()

  let create ?(capacity = default_capacity) ?(ttl_us = default_ttl_us)
      ?(on_evict = no_evict) ?(on_invalidate = no_evict) () =
    if capacity < 0 then invalid_arg "Verify_cache.create: capacity must be non-negative";
    if ttl_us < 1 then invalid_arg "Verify_cache.create: ttl must be positive";
    {
      capacity;
      ttl_us;
      on_evict;
      on_invalidate;
      table = Hashtbl.create (min capacity 64);
      order = Queue.create ();
      seq = 0;
      generation = 0;
      live = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      invalidations = 0;
    }

  let fresh t ~now inserted_at = inserted_at + t.ttl_us > now

  let check t ~now k =
    if t.capacity = 0 then begin
      (* Disabled cache: every lookup misses, nothing is remembered.  Used by
         differential tests to run the identical guard wiring with caching
         switched off. *)
      t.misses <- t.misses + 1;
      false
    end
    else
    match Hashtbl.find_opt t.table k with
    | Some (_, _, g) when g <> t.generation ->
        (* Dead generation: retired (and counted) by an earlier bump; drop the
           husk now that the lookup has found it. *)
        Hashtbl.remove t.table k;
        t.misses <- t.misses + 1;
        false
    | Some (recorded_at, _, _) when fresh t ~now recorded_at ->
        t.hits <- t.hits + 1;
        true
    | Some _ ->
        (* TTL expired: the signer binding may have been revoked since we
           verified — forget the entry and force a re-verification. *)
        Hashtbl.remove t.table k;
        t.live <- t.live - 1;
        t.misses <- t.misses + 1;
        false
    | None ->
        t.misses <- t.misses + 1;
        false

  let evict_one t =
    let rec pop () =
      match Queue.take_opt t.order with
      | None -> ()
      | Some (k, seq) -> (
          (* Evict only when this queue entry is the key's *latest* record: a
             mismatched seq means the entry was refreshed (re-pushed) later,
             so this one is stale and the key's turn comes with the newer
             entry. Dead-generation entries are dropped in passing without
             counting an eviction — their retirement was already charged to
             [invalidations] when the generation bumped. *)
          match Hashtbl.find_opt t.table k with
          | Some (_, s, g) when s = seq && g = t.generation ->
              Hashtbl.remove t.table k;
              t.live <- t.live - 1;
              t.evictions <- t.evictions + 1;
              t.on_evict ()
          | Some (_, s, g) when s = seq && g <> t.generation ->
              Hashtbl.remove t.table k;
              pop ()
          | _ -> pop () (* expired, evicted, or re-recorded since; skip *))
    in
    pop ()

  (* Refreshes and generation bumps leave dead entries behind; when they
     dominate, drop them in one O(queue) sweep so both the queue and the
     table stay within a constant factor of capacity. *)
  let compact t =
    if Queue.length t.order > 2 * t.capacity then begin
      let live = Queue.create () in
      Queue.iter
        (fun (k, seq) ->
          match Hashtbl.find_opt t.table k with
          | Some (_, s, g) when s = seq ->
              if g = t.generation then Queue.push (k, seq) live
              else Hashtbl.remove t.table k
          | _ -> ())
        t.order;
      Queue.clear t.order;
      Queue.transfer live t.order
    end

  let record t ~now k =
    if t.capacity = 0 then ()
    else begin
      let refresh =
        match Hashtbl.find_opt t.table k with
        | Some (_, _, g) when g = t.generation -> true
        | Some _ ->
            (* A dead-generation husk under the same key: replaced below, and
               the replacement is a fresh insertion, not a refresh. *)
            Hashtbl.remove t.table k;
            false
        | None -> false
      in
      if (not refresh) && t.live >= t.capacity then evict_one t;
      t.seq <- t.seq + 1;
      Hashtbl.replace t.table k (now, t.seq, t.generation);
      Queue.push (k, t.seq) t.order;
      if not refresh then t.live <- t.live + 1;
      compact t
    end

  let flush t =
    Hashtbl.reset t.table;
    Queue.clear t.order;
    t.live <- 0

  (* Explicit invalidation: unlike TTL expiry (a passive freshness bound) and
     capacity eviction (a space bound), these are {e correctness} events — a
     revocation arrived and the memoized verdicts are no longer trustworthy.
     They are counted separately so the invalidation storm is observable. *)

  let invalidate t k =
    match Hashtbl.find_opt t.table k with
    | Some (_, _, g) ->
        Hashtbl.remove t.table k;
        if g = t.generation then begin
          t.live <- t.live - 1;
          t.invalidations <- t.invalidations + 1;
          t.on_invalidate ()
        end
    | None -> ()

  (* One bump retires the whole current generation: every cached chain that
     shares the revoked link (and every other entry — the cache cannot map a
     serial back to the hashed keys that depend on it) is dropped, and
     re-presentations pay the full RSA walk again. The drop is *lazy*: the
     bump only advances the generation counter and charges the maintained
     live count to [invalidations]; dead entries are reaped as lookups,
     evictions and compactions stumble over them. A bulletin storm that
     bumps k times in a row therefore costs O(live-at-first-bump), not
     O(k * table), which is what keeps the verifier responsive under the
     L1 revocation-churn load. *)
  let bump_generation t =
    let n = t.live in
    t.generation <- t.generation + 1;
    t.live <- 0;
    t.invalidations <- t.invalidations + n;
    for _ = 1 to n do
      t.on_invalidate ()
    done;
    n

  let generation t = t.generation

  let stats (t : t) =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      invalidations = t.invalidations;
      size = t.live;
    }

  let size t = t.live
  let capacity t = t.capacity
end
