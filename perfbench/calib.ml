(* Machine-speed calibration: a fixed loop that calls no repository code.
   It mixes the kinds of work the request path does: integer mixing over a
   small array, products of 26-bit limbs into fresh arrays, and building
   and hashing short strings.

   This shared machine's speed changes by up to 2x within seconds, as other
   tenants come and go, and wall times move with it. The runner takes a
   sample of this loop before and after every group of operations and
   scales each operation's wall time to the speed at which one sample
   takes [reference_ms]. A program change does not move the loop, so it
   shows in full in the scaled times; a machine change moves both, and
   cancels. The loop allocates as the program does, which makes it feel
   contention for the caches as the program does; it never collects, so
   the program's heap cannot slow it down. *)

let mix = Array.init 4096 (fun i -> (i * 7919) land 0xFFFF)
let y = Array.init 20 (fun i -> ((i * 40503) + 977) land 0x3FFFFFF)
let x0 = Array.init 20 (fun i -> ((i * 2654435) + 12345) land 0x3FFFFFF)

(* The 40-limb schoolbook product of two 20-limb numbers, in base 2^26. *)
let product a b =
  let r = Array.make 40 0 in
  for i = 0 to 19 do
    let carry = ref 0 in
    let ai = a.(i) in
    for j = 0 to 19 do
      let t = (ai * b.(j)) + r.(i + j) + !carry in
      r.(i + j) <- t land 0x3FFFFFF;
      carry := t lsr 26
    done;
    r.(i + 20) <- !carry
  done;
  r

let work () =
  let h = ref 0 in
  for round = 1 to 100 do
    for i = 0 to 4095 do
      let v = (mix.(i) * 31) + round + !h in
      mix.(i) <- v land 0xFFFF;
      h := (!h lxor v) land 0xFFFFFF
    done
  done;
  (* each product feeds the next, through fresh arrays *)
  let x = ref x0 in
  for _ = 1 to 1500 do
    let p = product !x y in
    x := Array.init 20 (fun i -> p.(i + 10) lor 1)
  done;
  h := !h lxor !x.(7);
  let recent = Array.make 256 "" in
  for i = 1 to 4000 do
    let s = string_of_int (i * 7) in
    recent.(i land 255) <- s ^ s;
    h := !h lxor Hashtbl.hash recent.((i * 37) land 255)
  done;
  !h

(* Wall milliseconds of one run of the loop. The loop allocates less than
   the minor heap holds, and starts with it empty, so it never collects. *)
let sample () =
  Gc.minor ();
  let t0 = Timer.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  Timer.ms_of_ns (Timer.now_ns () - t0)

(* One sample's time at the reference speed: about the fastest the loop
   ran on the 2-core x86-64 container this benchmark was built on. *)
let reference_ms = 2.0

let trials = 9

(* Median of [trials] samples: the machine's speed at one moment. *)
let measure () = Stats.median_float (List.init trials (fun _ -> sample ()))

(* [ns] scaled to the reference speed, for a machine on which a sample took
   [c] ms. *)
let scale ns c = float_of_int ns *. reference_ms /. c

(* Operation [i]'s wall time [ns.(i)] scaled to the reference speed. Sample
   [g] was taken just before operation [g * every], so the operations of
   group [g] ran between samples [g] and [g + 1]; their mean stands for the
   machine's speed meanwhile. *)
let scale_ops ~every ~samples ns =
  let last = Array.length samples - 1 in
  Array.mapi
    (fun i t ->
      let g = i / every in
      scale t ((samples.(min g last) +. samples.(min (g + 1) last)) /. 2.))
    ns
