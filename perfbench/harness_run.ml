(* One benchmark run of one workload: repeated set-ups, the timed phase
   (untraced) or an untraced and a traced phase (traced run), the
   stationarity guards, the correctness checks, and the metrics. *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  diag : (string * string) list;  (** recorded with the run, not metrics *)
  violations : string list;
}

let specs = [ Wl_present.spec; Wl_ledger.spec; Wl_clearing.spec ]
let find name = List.find_opt (fun s -> s.Wl.name = name) specs
let setups_per_run = 3

(* Minor words one operation of a steady workload may allocate. One 512-bit
   RSA key generation allocates at least about 500,000 words (the fewest
   seen in 300 seeded keys); a present or ledger operation allocates at
   most about 170,000 words. An operation above the bound generated a key. *)
let steady_op_words = 300_000.

type phase = {
  count : int;
  wall_ns : int array;
  scaled_ns : float array;  (** [wall_ns] at the reference machine speed *)
  calib_ms : float array;  (** the calibration samples around the groups *)
  sim_us : int array;
  client_ns : int array;
  endorse_ns : int array;
  max_op_words : float;
  failed : int;
  errors : string list;
  delta : (string * int) list;  (** Sim.Metrics deltas *)
  calls : (string * int) list;  (** the benchmark's own call-count deltas *)
  kinds : (string * int) list;
  kind_of : int -> string;  (** kind of the i-th operation of the phase *)
  minor_words : float;  (** allocated by the operations, not the calibration *)
  promoted_words : float;
  major_collections : int;
  attrib : Attrib.t;
  violations : string list;
}

let get l k = Option.value (List.assoc_opt k l) ~default:0

let tally l =
  let t = Hashtbl.create 8 in
  List.iter (fun k -> Wl.bump t k 1) l;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

(* Operations between calibration samples: about 0.2 s of work at the
   nominal rate, so the samples follow the machine's changes of speed,
   which last from under a second to minutes. *)
let calib_every spec = max 1 (spec.Wl.rate / 5)

let run_phase spec (inst : Wl.instance) (ctx : Wl.ctx) ~timing ~first ~count =
  let attrib = Attrib.create ~timing ~classify:inst.Wl.classify () in
  ctx.Wl.tracing <- timing;
  let metrics = Sim.Net.metrics inst.Wl.net in
  let before = Sim.Metrics.snapshot metrics in
  let calls_before = Hashtbl.copy ctx.Wl.calls in
  let wall = Array.make count 0 and sim = Array.make count 0 in
  let client = Array.make count 0 and endorse = Array.make count 0 in
  let max_words = ref 0. and op_words = ref 0. in
  let failed = ref 0 and errors = ref [] in
  let every = calib_every spec in
  let samples = Array.make (((count + every - 1) / every) + 1) 0. in
  Gc.full_major ();
  Attrib.install attrib inst.Wl.net;
  let gc0 = Gc.quick_stat () in
  samples.(0) <- Calib.sample ();
  for i = 0 to count - 1 do
    let k = first + i in
    let v0 = Sim.Net.now inst.Wl.net in
    let s0 = ctx.Wl.sub_total in
    let w0 = Gc.minor_words () in
    let t0 = Timer.now_ns () in
    let r = inst.Wl.run k in
    let dt = Timer.now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    max_words := Float.max !max_words words;
    op_words := !op_words +. words;
    wall.(i) <- dt;
    sim.(i) <- Sim.Net.now inst.Wl.net - v0;
    if timing then begin
      (* Client time outside the benchmark's timed sub-calls and outside
         server handlers. An endorsing call's share of it runs from its
         mark to its first request, which carries the endorsed check. *)
      let residual = dt - (ctx.Wl.sub_total - s0) - Attrib.take_top attrib in
      let first = Attrib.take_first_top attrib in
      if ctx.Wl.endorse_from > 0 && first > 0 then endorse.(i) <- first - ctx.Wl.endorse_from;
      ctx.Wl.endorse_from <- 0;
      client.(i) <- residual - endorse.(i)
    end;
    if (i + 1) mod every = 0 || i = count - 1 then samples.((i / every) + 1) <- Calib.sample ();
    match r with
    | Ok () -> ()
    | Error e ->
        incr failed;
        if List.length !errors < 5 then errors := e :: !errors
  done;
  let gc1 = Gc.quick_stat () in
  Sim.Net.clear_tap inst.Wl.net;
  ctx.Wl.tracing <- false;
  let delta = Sim.Metrics.diff ~before ~after:(Sim.Metrics.snapshot metrics) in
  let calls =
    Hashtbl.fold (fun k v acc -> (k, v - Wl.get calls_before k) :: acc) ctx.Wl.calls []
  in
  let d = get delta in
  (* Stationarity guards: the timed phase must do only steady-state work. *)
  let kdc = d "kdc.as_req" + d "kdc.tgs_req" + Attrib.requests_to attrib inst.Wl.kdc_node in
  let keygens = get calls "rsa.keygen" + d "accounting.endorsements" in
  (* Each handled request inserts into its node's response cache and, at
     capacity, evicts and counts one entry. Replies seeded into a standby's
     cache by replication evict uncounted, so they are left out. *)
  let inserts = Attrib.total_requests attrib inst.Wl.served in
  let evictions = d "rpc.cache_evictions" in
  let violations =
    List.filter_map Fun.id
      [
        (if kdc > 0 then Some (Printf.sprintf "timed phase made %d KDC exchanges" kdc) else None);
        (if inst.Wl.steady && keygens > 0 then
           Some (Printf.sprintf "timed phase generated %d RSA keys" keygens)
         else None);
        (if inst.Wl.steady && !max_words > steady_op_words then
           Some
             (Printf.sprintf "an operation allocated %.0f minor words, as a key generation does"
                !max_words)
         else None);
        (if inst.Wl.steady && evictions <> inserts then
           Some
             (Printf.sprintf
                "response caches were not at capacity when timing started: %d evictions for %d inserts"
                evictions inserts)
         else None);
        (if (not inst.Wl.steady) && evictions > 0 then
           Some (Printf.sprintf "response caches evicted %d entries" evictions)
         else None);
      ]
  in
  {
    count;
    wall_ns = wall;
    scaled_ns = Calib.scale_ops ~every ~samples wall;
    calib_ms = samples;
    sim_us = sim;
    client_ns = client;
    endorse_ns = endorse;
    max_op_words = !max_words;
    failed = !failed;
    errors = List.rev !errors;
    delta;
    calls;
    kinds = tally (List.init count (fun i -> inst.Wl.kind (first + i)));
    kind_of = (fun i -> inst.Wl.kind (first + i));
    minor_words = !op_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    attrib;
    violations;
  }

let ms ns = Timer.ms_of_ns ns
let per n x = if n = 0 then 0. else x /. float_of_int n
let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* The timed phase is cut into consecutive blocks of [spec.block]
   operations; tail latency and throughput are medians over blocks, so a
   stall confined to a minority of blocks moves neither. Times are
   nanoseconds, scaled or not. *)
let blocks spec p ns =
  let block = min spec.Wl.block p.count in
  (block, List.init (p.count / block) (fun b -> Array.sub ns (b * block) block))

(* Median over blocks of each block's tail percentile, in milliseconds. *)
let tail spec p ns =
  let block, bs = blocks spec p ns in
  let pct = Stats.tail_percentile block in
  ( pct,
    block,
    Stats.median_float (List.map (fun b -> Stats.percentile (Stats.sorted_copy b) pct /. 1e6) bs) )

(* Median over blocks of operations per second of operation time. *)
let throughput_median spec p ns =
  let block, bs = blocks spec p ns in
  Stats.median_float
    (List.map (fun b -> float_of_int block /. (Array.fold_left ( +. ) 0. b /. 1e9)) bs)

let raw p = Array.map float_of_int p.wall_ns
let p50_ms ns = Stats.median ns /. 1e6

let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Set up [times] worlds and keep the last. A calibration follows each
   set-up; [calib] is the one taken before the first. Each set-up's time is
   returned as measured and scaled by the mean of the two around it. *)
let set_up spec ~seed ~ops ~times ~calib =
  let rec go k c0 acc =
    Gc.full_major ();
    let ctx = Wl.create_ctx () in
    let t0 = Timer.now_ns () in
    let inst = spec.Wl.setup ~seed ~ops ctx in
    let dt = Timer.now_ns () - t0 in
    let c1 = Calib.measure () in
    let acc = (float_of_int dt /. 1e9, Calib.scale dt ((c0 +. c1) /. 2.) /. 1e9) :: acc in
    if k <= 1 then (inst, ctx, List.split (List.rev acc)) else go (k - 1) c1 acc
  in
  go times calib []

let fmt_list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"
let fmt_float = Printf.sprintf "%.6g"
(* A JSON string literal; bytes above 0x7f pass through. *)
let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Per operation kind: p10, p50, p90 wall milliseconds — where the cost
   modes sit relative to the reported percentiles. *)
let kind_spread p =
  List.map
    (fun (k, _) ->
      let xs =
        Stats.sorted_copy
          (Array.of_list
             (List.filteri (fun i _ -> p.kind_of i = k) (Array.to_list p.wall_ns)))
      in
      Printf.sprintf "%s: [%s]" (quote k)
        (String.concat ", "
           (List.map (fun q -> fmt_float (ms (Stats.percentile xs q))) [ 10.; 50.; 90. ])))
    p.kinds

let common_diag spec p ~calib_before ~calib_after ~setups =
  let pct, block, tail_ms = tail spec p (raw p) in
  let calib = Stats.sorted_copy p.calib_ms in
  [
    ("workload", quote spec.Wl.name);
    ("operations", string_of_int p.count);
    ("tail_percentile", fmt_float pct);
    ("tail_block", string_of_int block);
    ("calibration_before_ms", fmt_float calib_before);
    ("calibration_after_ms", fmt_float calib_after);
    ( "calibration_sample_p10_p50_p90_ms",
      fmt_list (fun q -> fmt_float (Stats.percentile calib q)) [ 10.; 50.; 90. ] );
    ("setup_s_each", fmt_list fmt_float setups);
    ( "unscaled",
      Printf.sprintf
        "{\"throughput_ops_s\": %s, \"latency_p50_ms\": %s, \"latency_tail_ms\": %s}"
        (fmt_float (throughput_median spec p (raw p)))
        (fmt_float (p50_ms (raw p)))
        (fmt_float tail_ms) );
    ("shares", "{" ^ String.concat ", "
                      (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (quote k) v) p.kinds) ^ "}");
    ( "wall_p90_p99_p999_max_ms",
      let xs = Stats.sorted_copy p.wall_ns in
      fmt_list (fun q -> fmt_float (ms (Stats.percentile xs q))) [ 90.; 99.; 99.9; 100. ] );
    ("kind_p10_p50_p90_ms", "{" ^ String.concat ", " (kind_spread p) ^ "}");
    ("max_op_minor_words", Printf.sprintf "%.0f" p.max_op_words);
    ("errors", fmt_list quote p.errors);
  ]

let run_untraced spec ~seed ~seconds =
  let n = spec.Wl.rate * seconds in
  let calib_before = Calib.measure () in
  let inst, ctx, (setups, scaled_setups) =
    set_up spec ~seed ~ops:n ~times:setups_per_run ~calib:calib_before
  in
  let p = run_phase spec inst ctx ~timing:false ~first:0 ~count:n in
  let heap = live_heap_mb () in
  let violations = p.violations @ inst.Wl.check () in
  let calib_after = Calib.measure () in
  let _, _, tail_ms = tail spec p p.scaled_ns in
  let m name value unit_ = { name; value; unit_ } in
  {
    correct = violations = [] && p.failed = 0;
    attempted = n;
    failed = p.failed;
    metrics =
      [
        m "setup_s" (Stats.median_float scaled_setups) "s";
        m "throughput_ops_s" (throughput_median spec p p.scaled_ns) "1/s";
        m "latency_p50_ms" (p50_ms p.scaled_ns) "ms";
        m "latency_tail_ms" tail_ms "ms";
        m "sim_latency_p50_ms" (float_of_int (Stats.median p.sim_us) /. 1000.) "ms";
        m "heap_live_mb" heap "MB";
        m "success_rate" (float_of_int (n - p.failed) /. float_of_int n) "fraction";
      ];
    diag = common_diag spec p ~calib_before ~calib_after ~setups;
    violations;
  }

let run_traced spec ~seed ~seconds =
  let n = spec.Wl.rate * seconds in
  let calib_before = Calib.measure () in
  let inst, ctx, (setups, _) = set_up spec ~seed ~ops:(2 * n) ~times:1 ~calib:calib_before in
  let a = run_phase spec inst ctx ~timing:false ~first:0 ~count:n in
  let b = run_phase spec inst ctx ~timing:true ~first:n ~count:n in
  let replay_entries = inst.Wl.replay_entries () in
  let violations = a.violations @ b.violations @ inst.Wl.check () in
  let calib_after = Calib.measure () in
  let d = get b.delta in
  let at = b.attrib in
  (* Layer times are scaled by the traced phase's median calibration. *)
  let speed = Calib.reference_ms /. Stats.median_float (Array.to_list b.calib_ms) in
  let per_op_ms ns = speed *. per n (float_of_int ns) /. 1e6 in
  let self cls = per_op_ms (Attrib.self_ns at cls) in
  let sub name = per_op_ms (Wl.get ctx.Wl.sub_ns name) in
  let sum_ms a = per_op_ms (Array.fold_left ( + ) 0 a) in
  let writes = List.fold_left (fun acc k -> acc + get b.kinds k) 0 inst.Wl.writes in
  let primaries_handled = Attrib.handled at "bank" + Attrib.handled at "interbank" in
  let handled = Attrib.total_requests at inst.Wl.served in
  let per_op x = per n (float_of_int x) in
  let endorsements = d "accounting.endorsements" in
  let m name value unit_ = { name; value; unit_ } in
  let metrics =
    [
      m "presentation.attach_ms" (sub "presentation.attach") "ms";
      m "proxy.check_write_ms" (sub "proxy.check_write") "ms";
      m "router.endorse_ms" (sum_ms b.endorse_ns) "ms";
      m "secure_rpc.client_ms" (sum_ms b.client_ns) "ms";
      m "guard.serve_ms" (self "fs") "ms";
      m "accounting_server.serve_ms" (self "bank") "ms";
      m "accounting_server.collect_ms" (self "interbank") "ms";
      m "shard.replicate_ms" (self "standby") "ms";
      m "shard.repl_per_write" (per writes (float_of_int (d "cluster.repl_shipped"))) "1/write";
      m "shard.read_skip_ratio" (per primaries_handled (float_of_int (d "cluster.repl_read_skips"))) "ratio";
      m "rsa.keygen_per_op" (per_op (get b.calls "rsa.keygen" + endorsements)) "1/op";
      m "rsa.sign_per_op" (per_op (get b.calls "rsa.sign" + endorsements)) "1/op";
      m "rsa.verify_per_op" (per_op (d "crypto.rsa_verify")) "1/op";
      m "link_cache.hit_ratio" (ratio (d "link_cache.hits") (d "link_cache.misses")) "ratio";
      m "verify_cache.hit_ratio" (ratio (d "verify_cache.hits") (d "verify_cache.misses")) "ratio";
      m "secure_rpc.evictions_per_call" (per handled (float_of_int (d "rpc.cache_evictions"))) "1/call";
      m "crypto.seal_per_op" (per_op (d "crypto.seal")) "1/op";
      m "crypto.open_per_op" (per_op (d "crypto.open")) "1/op";
      m "net.msgs_per_op" (per_op (d "net.messages")) "1/op";
      m "net.bytes_per_op" (per_op (d "net.bytes")) "B/op";
      m "kdc.requests_per_op" (per_op (d "kdc.as_req" + d "kdc.tgs_req")) "1/op";
      m "kdc.serve_ms" (self "kdc") "ms";
      m "gc.minor_words_per_op" (per n a.minor_words) "words/op";
      m "gc.promoted_words_per_op" (per n a.promoted_words) "words/op";
      m "gc.major_collections" (float_of_int a.major_collections) "count";
      m "replay_cache.entries" (float_of_int replay_entries) "count";
      m "tracing.overhead_pct"
        (let ta = throughput_median spec a a.scaled_ns in
         100. *. (ta -. throughput_median spec b b.scaled_ns) /. ta)
        "%";
    ]
  in
  {
    correct = violations = [] && a.failed + b.failed = 0;
    attempted = 2 * n;
    failed = a.failed + b.failed;
    metrics;
    diag = common_diag spec a ~calib_before ~calib_after ~setups;
    violations;
  }

let run spec ~seed ~seconds ~trace =
  if trace then run_traced spec ~seed ~seconds else run_untraced spec ~seed ~seconds

let result_json o =
  let metric m =
    Printf.sprintf "%s: {\"value\": %.15g, \"unit\": %s}" (quote m.name) m.value (quote m.unit_)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " (List.map metric o.metrics))

let diag_json o =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (quote k) v) o.diag) ^ "}"
