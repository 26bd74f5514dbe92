(* Unit checks of the benchmark's own machinery: tap-based self-time
   attribution on a synthetic nested exchange, JSON string quoting, the
   tail-percentile rule, exact operation shares, the scaling of wall times
   by calibration samples, and that a calibration sample never collects. Run with: dune build @perfbench/selftest *)

open Perfbench

let failures = ref 0

let expect name got want =
  if got <> want then begin
    incr failures;
    Printf.printf "FAIL %s: got %d, want %d\n" name got want
  end
  else Printf.printf "ok   %s = %d\n" name got

(* At time 100, client -> outer; outer works 10, calls inner (5), works 3, calls inner
   again (7), works 2; then a second top-level call to leaf (4). Time is a
   fake clock the handlers advance, so every interval is exact. *)
let attribution () =
  let clock = ref 100 in
  let work n = clock := !clock + n in
  let net = Sim.Net.create ~seed:"selftest" () in
  let at =
    Attrib.create ~now:(fun () -> !clock) ~timing:true
      ~classify:(fun ~src:_ ~dst -> dst) ()
  in
  let inner_cost = ref [ 5; 7 ] in
  Sim.Net.register net ~name:"inner" (fun req ->
      (match !inner_cost with
      | c :: rest ->
          work c;
          inner_cost := rest
      | [] -> ());
      req);
  Sim.Net.register net ~name:"leaf" (fun req ->
      work 4;
      req);
  Sim.Net.register net ~name:"outer" (fun req ->
      work 10;
      ignore (Sim.Net.rpc net ~src:"outer" ~dst:"inner" "a");
      work 3;
      ignore (Sim.Net.rpc net ~src:"outer" ~dst:"inner" "b");
      work 2;
      req);
  Attrib.install at net;
  ignore (Sim.Net.rpc net ~src:"client" ~dst:"outer" "x");
  expect "outer self" (Attrib.self_ns at "outer") 15;
  expect "inner self (two calls)" (Attrib.self_ns at "inner") 12;
  expect "top-level after outer" (Attrib.take_top at) 27;
  expect "first top-level request" (Attrib.take_first_top at) 100;
  ignore (Sim.Net.rpc net ~src:"client" ~dst:"leaf" "y");
  expect "leaf self" (Attrib.self_ns at "leaf") 4;
  expect "top-level after leaf" (Attrib.take_top at) 4;
  expect "first top-level request after reset" (Attrib.take_first_top at) 127;
  expect "inner handled" (Attrib.handled at "inner") 2;
  expect "requests to outer" (Attrib.requests_to at "outer") 1;
  expect "requests to inner, leaf" (Attrib.total_requests at [ "inner"; "leaf" ]) 3;
  Sim.Net.clear_tap net;
  (* Untimed mode still counts requests, and times nothing. *)
  let counting = Attrib.create ~timing:false ~classify:(fun ~src:_ ~dst -> dst) () in
  Attrib.install counting net;
  inner_cost := [ 1; 1 ];
  ignore (Sim.Net.rpc net ~src:"client" ~dst:"outer" "z");
  expect "untimed: requests to inner" (Attrib.requests_to counting "inner") 2;
  expect "untimed: no self time" (Attrib.self_ns counting "outer") 0

let tail_rule () =
  let pct n = int_of_float (Stats.tail_percentile n *. 100.) in
  expect "tail percentile x100 at 100000 ops" (pct 100_000) 9999;
  expect "tail percentile x100 at 2000 ops" (pct 2000) 9950;
  expect "tail percentile x100 at 1000 ops" (pct 1000) 9900;
  expect "tail percentile x100 at 200 ops" (pct 200) 9500;
  expect "tail percentile x100 at 150 ops" (pct 150) 9000;
  expect "tail percentile x100 at 100 ops" (pct 100) 9000;
  let sorted = Array.init 100 (fun i -> i + 1) in
  expect "nearest-rank p50 of 1..100" (Stats.percentile sorted 50.) 50;
  expect "nearest-rank p99 of 1..100" (Stats.percentile sorted 99.) 99

let shares () =
  let mix = [ "a"; "a"; "a"; "b"; "c" ] in
  let count seed k =
    let ops = Wl.shuffled_blocks (Wl.rng ~seed "t") ~ops:1000 mix in
    Array.fold_left (fun acc x -> if x = k then acc + 1 else acc) 0 ops
  in
  expect "share of a, seed 1" (count "1" "a") 600;
  expect "share of a, seed 2" (count "2" "a") 600;
  expect "share of c, seed 2" (count "2" "c") 200

(* Group g's operations are scaled by the mean of samples g and g + 1, and
   a calibration sample never collects, so it cannot feel the heap. *)
let calibration () =
  let r = Calib.reference_ms in
  let scaled =
    Calib.scale_ops ~every:2 ~samples:[| r; 3. *. r; r |] [| 600; 600; 600; 600; 600 |]
  in
  let got i = int_of_float (Float.round scaled.(i)) in
  expect "scaled op 0 (speed 1/2)" (got 0) 300;
  expect "scaled op 3 (speed 1/2)" (got 3) 300;
  expect "scaled op 4 (last group, one sample after)" (got 4) 600;
  let collections () = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.minor ();
  let c0 = collections () in
  ignore (Sys.opaque_identity (Calib.work ()));
  expect "minor collections in the calibration loop, from an empty minor heap"
    (collections () - c0) 0

let json_quote () =
  let got = Harness_run.quote "a\"b\\c\n\xc3\xa9" in
  let want = "\"a\\\"b\\\\c\\u000a\xc3\xa9\"" in
  if got <> want then begin
    incr failures;
    Printf.printf "FAIL json quote: got %s, want %s\n" got want
  end
  else print_endline ("ok   json quote = " ^ got)

let () =
  attribution ();
  json_quote ();
  tail_rule ();
  shares ();
  calibration ();
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
