(* What a workload hands the runner, and the context it reports into. *)

type ctx = {
  mutable tracing : bool;
  sub_ns : (string, int) Hashtbl.t;
      (* wall time of client-side calls into one layer, when tracing *)
  mutable sub_total : int;
  calls : (string, int) Hashtbl.t;
      (* the benchmark's own calls into functions that generate RSA keys or
         sign: the program keeps no counter for either *)
  mutable endorse_from : int;
      (* when tracing, the wall time at which the current operation entered
         Router.deposit; 0 when it has not *)
}

let create_ctx () =
  {
    tracing = false;
    sub_ns = Hashtbl.create 8;
    sub_total = 0;
    calls = Hashtbl.create 8;
    endorse_from = 0;
  }

let bump tbl k n = Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)
let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0

(* Run [f], a client-side call into layer [name]; timed only when tracing. *)
let sub ctx name f =
  if not ctx.tracing then f ()
  else begin
    let t0 = Timer.now_ns () in
    let r = f () in
    let dt = Timer.now_ns () - t0 in
    bump ctx.sub_ns name dt;
    ctx.sub_total <- ctx.sub_total + dt;
    r
  end

let count ctx name n = bump ctx.calls name n

(* Mark the start of a client call that endorses a check before its first
   request goes out: the runner times the endorsement up to that request. *)
let mark_endorse ctx = if ctx.tracing then ctx.endorse_from <- Timer.now_ns ()

type instance = {
  net : Sim.Net.t;
  kind : int -> string;  (** operation kind of the k-th operation *)
  run : int -> (unit, string) result;
      (** run the k-th operation of the seeded sequence; [Error] is a
          failure or a wrong answer *)
  classify : src:string -> dst:string -> string;
      (** layer class of a request, for the tap *)
  served : string list;
      (** nodes serving over [Secure_rpc]: every request they handle
          inserts one entry into that node's response cache *)
  kdc_node : string;
  steady : bool;
      (** the timed phase must generate no RSA key and find every touched
          response cache at capacity; otherwise caches must stay below it *)
  writes : string list;  (** operation kinds that mutate a ledger *)
  check : unit -> string list;  (** correctness violations after the run *)
  replay_entries : unit -> int;  (** live accept-once entries on the servers *)
}

type spec = {
  name : string;
  rate : int;
      (** nominal operations per second: a run performs [rate * seconds]
          operations, a fixed count, so same-seed runs do identical work *)
  block : int;  (** operations per block for tail latency and throughput *)
  setup : seed:string -> ops:int -> ctx -> instance;
}

(* Deterministic benchmark-side randomness for inputs, from the seed. *)
let rng ~seed label =
  let d = Crypto.Sha256.digest (label ^ ":" ^ seed) in
  Random.State.make (Array.init 8 (fun i -> Char.code d.[i] lor (Char.code d.[i + 8] lsl 8)))

(* Seeded one-way latency in [480, 520] us on each directed link between
   the given nodes, so virtual latency depends on the seed but repeats
   exactly under it. *)
let seed_latencies net st pairs =
  List.iter
    (fun (a, b) ->
      Sim.Net.set_latency net ~src:a ~dst:b (480 + Random.State.int st 41);
      Sim.Net.set_latency net ~src:b ~dst:a (480 + Random.State.int st 41))
    pairs

(* Exact operation shares: the sequence is whole blocks, each a seeded
   shuffle of [kinds], so every seed keeps the same mix. *)
let shuffled_blocks st ~ops kinds =
  let len = List.length kinds in
  let out = Array.make (((ops + len - 1) / len) * len) "" in
  for b = 0 to (Array.length out / len) - 1 do
    let blk = Array.of_list kinds in
    for i = len - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = blk.(i) in
      blk.(i) <- blk.(j);
      blk.(j) <- t
    done;
    Array.blit blk 0 out (b * len) len
  done;
  out

let ok_or ctx = function Ok v -> v | Error e -> failwith (Printf.sprintf "setup (%s): %s" ctx e)
