(* The bounded caches on [Expiry_table] against the implementations they
   replaced (test/support/cache_oracle.ml): random traces must give the
   same answers, the same eviction and invalidation callbacks and the same
   sizes after every step. Plus the flood regression: an insert into a
   full default-capacity accept-once table costs O(log n), not a scan. *)

module O = Cache_oracle

type op =
  | Tick of int (* advance the clock; it never goes back *)
  | Put of { key : int; dt : int; v : int; tag : int }
  | Get of int
  | Step of { key : int; dt : int; tag : int } (* Seq_tracker.advance *)
  | Shed of int
  | Purge
  | Clear (* Seq_tracker.clear, Verify_cache.flush *)
  | Bump
  | Drop of int (* Verify_cache.invalidate *)

let show = function
  | Tick d -> Printf.sprintf "tick %d" d
  | Put { key; dt; v; tag } -> Printf.sprintf "put k%d dt=%d v=%d tag=%d" key dt v tag
  | Get k -> Printf.sprintf "get k%d" k
  | Step { key; dt; tag } -> Printf.sprintf "step k%d dt=%d tag=%d" key dt tag
  | Shed t -> Printf.sprintf "shed %d" t
  | Purge -> "purge"
  | Clear -> "clear"
  | Bump -> "bump"
  | Drop k -> Printf.sprintf "drop k%d" k

let keys = 8
let key k = Printf.sprintf "k%d" k
let tag t = if t = 0 then None else Some (Printf.sprintf "g%d" t)

(* Small key space, small expiry deltas and small capacities, so that
   equal expiries, re-inserts while full, expired-but-unpurged entries and
   evictions all happen often. A delta of 0 records an entry that is
   already dead. *)
let gen_op =
  let open QCheck.Gen in
  let k = int_bound (keys - 1) and t = int_bound 2 in
  frequency
    [
      (2, map (fun d -> Tick d) (oneofl [ 0; 1; 1; 2; 5 ]));
      ( 6,
        map
          (fun (key, dt, v, tag) -> Put { key; dt; v; tag })
          (quad k (int_bound 5) (int_bound 4) t) );
      (4, map (fun k -> Get k) k);
      (2, map (fun (key, dt, tag) -> Step { key; dt; tag }) (triple k (int_bound 5) t));
      (1, map (fun t -> Shed t) (int_range 1 2));
      (1, return Purge);
      (1, return Clear);
      (1, return Bump);
      (1, map (fun k -> Drop k) k);
    ]

let arb_trace =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map show ops)))
    QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 1 80) gen_op))

(* One implementation under test: [apply] runs an op at the given clock
   and renders its answer; [size] and [state] observe it between steps.
   Each implementation logs its callbacks into its own list. *)
type impl = { apply : now:int -> op -> string; size : unit -> int; state : unit -> string }

let equivalent ~name (make : oracle:bool -> cap:int -> log:string list ref -> impl) =
  QCheck.Test.make ~count:500 ~name arb_trace (fun (cap, ops) ->
      let log_a = ref [] and log_b = ref [] in
      let a = make ~oracle:true ~cap ~log:log_a and b = make ~oracle:false ~cap ~log:log_b in
      let now = ref 0 in
      List.iteri
        (fun i op ->
          (match op with Tick d -> now := !now + d | _ -> ());
          let ra = a.apply ~now:!now op and rb = b.apply ~now:!now op in
          let fail what x y =
            QCheck.Test.fail_reportf "step %d (%s): %s differ: %S vs %S" i (show op) what x y
          in
          if ra <> rb then fail "answers" ra rb;
          if !log_a <> !log_b then
            fail "callbacks" (String.concat "," !log_a) (String.concat "," !log_b);
          if a.size () <> b.size () then
            fail "sizes" (string_of_int (a.size ())) (string_of_int (b.size ()));
          if a.state () <> b.state () then fail "contents" (a.state ()) (b.state ()))
        ops;
      true)

let no_state () = ""

(* Membership of every key, without the expiry side effects of a lookup. *)
let members mem = String.concat "" (List.init keys (fun k -> if mem (key k) then "1" else "0"))

let replay_impl ~oracle ~cap ~log =
  let on_evict () = log := "evict" :: !log in
  if oracle then
    let c = O.Replay.create ~capacity:cap ~on_evict () in
    let apply ~now = function
      | Put { key = k; dt; tag = t; _ } -> (
          match O.Replay.record c ~now ~expires:(now + dt) ?tag:(tag t) (key k) with
          | Ok () -> "ok"
          | Error e -> e)
      | Get k -> string_of_bool (O.Replay.seen c ~now (key k))
      | Shed t -> string_of_int (O.Replay.shed c ~tag:(Option.get (tag t)))
      | Purge ->
          O.Replay.purge c ~now;
          ""
      | _ -> ""
    in
    { apply; size = (fun () -> O.Replay.size c); state = no_state }
  else
    let c = Replay_cache.create ~capacity:cap ~on_evict () in
    let apply ~now = function
      | Put { key = k; dt; tag = t; _ } -> (
          match Replay_cache.record c ~now ~expires:(now + dt) ?tag:(tag t) (key k) with
          | Ok () -> "ok"
          | Error e -> e)
      | Get k -> string_of_bool (Replay_cache.seen c ~now (key k))
      | Shed t -> string_of_int (Replay_cache.shed c ~tag:(Option.get (tag t)))
      | Purge ->
          Replay_cache.purge c ~now;
          ""
      | _ -> ""
    in
    { apply; size = (fun () -> Replay_cache.size c); state = no_state }

let seq_impl ~oracle ~cap ~log =
  let on_evict () = log := "evict" :: !log in
  if oracle then
    let c = O.Seq.create ~capacity:cap ~on_evict () in
    let apply ~now = function
      | Put { key = k; dt; v; tag = t } ->
          O.Seq.set_progress c ~now ~expires:(now + dt) ?tag:(tag t) (key k) v;
          ""
      | Step { key = k; dt; tag = t } ->
          string_of_int (O.Seq.advance c ~now ~expires:(now + dt) ?tag:(tag t) (key k))
      | Get k -> string_of_int (O.Seq.progress c ~now (key k))
      | Shed t -> string_of_int (O.Seq.shed c ~tag:(Option.get (tag t)))
      | Purge ->
          O.Seq.purge c ~now;
          ""
      | Clear ->
          O.Seq.clear c;
          ""
      | _ -> ""
    in
    { apply; size = (fun () -> O.Seq.size c); state = no_state }
  else
    let c = Seq_tracker.create ~capacity:cap ~on_evict () in
    let apply ~now = function
      | Put { key = k; dt; v; tag = t } ->
          Seq_tracker.set_progress c ~now ~expires:(now + dt) ?tag:(tag t) (key k) v;
          ""
      | Step { key = k; dt; tag = t } ->
          string_of_int (Seq_tracker.advance c ~now ~expires:(now + dt) ?tag:(tag t) (key k))
      | Get k -> string_of_int (Seq_tracker.progress c ~now (key k))
      | Shed t -> string_of_int (Seq_tracker.shed c ~tag:(Option.get (tag t)))
      | Purge ->
          Seq_tracker.purge c ~now;
          ""
      | Clear ->
          Seq_tracker.clear c;
          ""
      | _ -> ""
    in
    { apply; size = (fun () -> Seq_tracker.size c); state = no_state }

(* The real response cache exposes no size or eviction hook (evictions
   tick a net metric inside [serve]); comparing the full key set after
   every step pins every eviction choice instead. *)
let response_impl ~oracle ~cap ~log:_ =
  let put, mem =
    if oracle then
      let c = O.Response.create_cache ~capacity:cap () in
      ( (fun ~now k ~expires ~reply ->
          O.Response.cache_insert ~on_evict:ignore c ~now k ~expires ~reply),
        fun k -> O.Response.cached c ~auth_id:k )
    else
      let c = Secure_rpc.create_cache ~capacity:cap () in
      ( (fun ~now k ~expires ~reply -> Secure_rpc.seed_response c ~now ~auth_id:k ~expires ~reply),
        fun k -> Secure_rpc.cached c ~auth_id:k )
  in
  let apply ~now = function
    | Put { key = k; dt; v; _ } ->
        put ~now (key k) ~expires:(now + dt) ~reply:(string_of_int v);
        ""
    | Get k -> string_of_bool (mem (key k))
    | _ -> ""
  in
  { apply; size = (fun () -> 0); state = (fun () -> members mem) }

let verify_impl ~oracle ~cap ~log =
  (* Capacity 0 is the disabled cache; the TTL is short enough that
     entries expire mid-trace. *)
  let capacity = cap - 1 and ttl_us = 4 in
  let on_evict () = log := "evict" :: !log
  and on_invalidate () = log := "invalidate" :: !log in
  let stats (h, m, e, i, s) = Printf.sprintf "hits=%d misses=%d ev=%d inv=%d size=%d" h m e i s in
  if oracle then
    let c = O.Verify.create ~capacity ~ttl_us ~on_evict ~on_invalidate () in
    let apply ~now = function
      | Put { key = k; _ } ->
          O.Verify.record c ~now (key k);
          ""
      | Get k -> string_of_bool (O.Verify.check c ~now (key k))
      | Drop k ->
          O.Verify.invalidate c (key k);
          ""
      | Bump -> string_of_int (O.Verify.bump_generation c)
      | Clear ->
          O.Verify.flush c;
          ""
      | _ -> ""
    in
    let state () =
      let s = O.Verify.stats c in
      stats O.Verify.(s.hits, s.misses, s.evictions, s.invalidations, s.size)
      ^ Printf.sprintf " gen=%d" (O.Verify.generation c)
    in
    { apply; size = (fun () -> O.Verify.size c); state }
  else
    let c = Verify_cache.create ~capacity ~ttl_us ~on_evict ~on_invalidate () in
    let apply ~now = function
      | Put { key = k; _ } ->
          Verify_cache.record c ~now (key k);
          ""
      | Get k -> string_of_bool (Verify_cache.check c ~now (key k))
      | Drop k ->
          Verify_cache.invalidate c (key k);
          ""
      | Bump -> string_of_int (Verify_cache.bump_generation c)
      | Clear ->
          Verify_cache.flush c;
          ""
      | _ -> ""
    in
    let state () =
      let s = Verify_cache.stats c in
      stats Verify_cache.(s.hits, s.misses, s.evictions, s.invalidations, s.size)
      ^ Printf.sprintf " gen=%d" (Verify_cache.generation c)
    in
    { apply; size = (fun () -> Verify_cache.size c); state }

let equivalence =
  List.map QCheck_alcotest.to_alcotest
    [
      equivalent ~name:"replay cache matches the fold-based oracle" replay_impl;
      equivalent ~name:"seq tracker matches the fold-based oracle" seq_impl;
      equivalent ~name:"response cache matches the fold-based oracle" response_impl;
      equivalent ~name:"verify cache matches the queue-based oracle" verify_impl;
    ]

(* Flood regression. At capacity the old tables folded every entry twice
   per insert, so an insert into a full 131072-entry table cost over 128x
   one into a full 1024-entry table. With the heap it costs O(log n): the
   same 2,000 inserts must take at most 10x as long. Times are process CPU
   time, the best of a few batches; a batch over budget stops early. *)
let flood_inserts = 2_000

let flood_ratio_bounded ~what ~create ~insert =
  let fill capacity =
    let t = create capacity in
    for i = 1 to capacity do
      insert t i
    done;
    t
  in
  (* The clock is read once per 100 inserts, so the batch times inserts,
     not clock reads. *)
  let batch t ~from ~budget =
    let t0 = Sys.time () in
    let rec go i =
      let elapsed = if i mod 100 = 0 then Sys.time () -. t0 else 0. in
      if i = flood_inserts then elapsed
      else if elapsed > budget then infinity
      else begin
        insert t (from + i);
        go (i + 1)
      end
    in
    go 0
  in
  let best capacity ~batches ~budget =
    let t = fill capacity in
    List.fold_left min infinity
      (List.init batches (fun b -> batch t ~from:(capacity + 1 + (b * flood_inserts)) ~budget))
  in
  let small = best 1024 ~batches:5 ~budget:infinity in
  let large = best (Replay_cache.capacity (Replay_cache.create ())) ~batches:3 ~budget:(10. *. small) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d inserts at 131072 (%s) within 10x of 1024 (%.2f ms)" what
       flood_inserts
       (if large = infinity then "over budget" else Printf.sprintf "%.2f ms" (large *. 1e3))
       (small *. 1e3))
    true
    (large <= 10. *. small)

(* Each insert is live (it never expires) and, with expiries counting
   down, the soonest-expiring: the worst case for the heap. *)
let test_flood () =
  flood_ratio_bounded ~what:"Replay_cache"
    ~create:(fun capacity -> Replay_cache.create ~capacity ())
    ~insert:(fun t i ->
      Result.get_ok (Replay_cache.record t ~now:0 ~expires:(max_int - i) (string_of_int i)));
  flood_ratio_bounded ~what:"Seq_tracker"
    ~create:(fun capacity -> Seq_tracker.create ~capacity ())
    ~insert:(fun t i ->
      Seq_tracker.set_progress t ~now:0 ~expires:(max_int - i) (string_of_int i) 1)

let () =
  Alcotest.run "expiry_table"
    [
      ("equivalence", equivalence);
      ("flood", [ Alcotest.test_case "insert at default capacity is O(log n)" `Quick test_flood ]);
    ]
