(* ledger: a 4-shard primary/standby bank reached through Router, in a
   fixed mix of balance reads, intra-shard transfers (replicated to the
   standby) and pipelined audit sweeps (Secure_rpc.call_batch). Symmetric
   crypto only: no RSA, no verifier, no key generation. *)

module Shard = Cluster.Shard
module Router = Cluster.Router

let shards = 4
let clients = 16
let sweep_width = 6
let usd = "usd"
let initial = 1_000_000
let audit_balance = 1_000
let capacity = 4096

(* One block of the mix: 13 reads, 6 transfers, 1 sweep per 20. *)
let mix =
  List.init 13 (fun _ -> "read") @ List.init 6 (fun _ -> "transfer") @ [ "sweep" ]

let setup ~seed ~ops (_ : Wl.ctx) =
  let w = World.create ~seed:("ledger:" ^ seed) () in
  let net = w.World.net in
  let st = Wl.rng ~seed "ledger" in
  let b = Banks.create w ~count:shards ~routes:false in
  let kdc_node = Principal.to_string w.World.kdc_name in
  let principals = Array.init clients (fun c -> fst (World.enrol w (Printf.sprintf "client-%02d" c))) in
  let auditor, _ = World.enrol w "auditor" in
  Wl.seed_latencies net st
    (List.concat_map
       (fun p -> List.map (fun n -> (Principal.to_string p, n)) (Banks.nodes b))
       (auditor :: Array.to_list principals)
    @ Banks.bank_links b);
  let routers = Array.map (Banks.router b) principals in
  (* accounts.(c).(s): client c's account on shard s *)
  let accounts =
    Array.init clients (fun c ->
        Array.map (fun names -> names.(0))
          (Banks.names_per_shard b ~prefix:(Printf.sprintf "c%02d" c) ~n:1))
  in
  let model = Hashtbl.create 64 in
  let minted = ref 0 in
  let open_and_mint router name amount =
    Wl.ok_or name (Router.open_account router ~name);
    Wl.ok_or name (Shard.mint (Banks.shard b (Banks.shard_of b name)) ~name ~currency:usd amount);
    minted := !minted + amount
  in
  Array.iteri
    (fun c accts ->
      Array.iter
        (fun name ->
          open_and_mint routers.(c) name initial;
          Hashtbl.replace model name initial)
        accts)
    accounts;
  let auditor_router = Banks.router b auditor in
  let audits = Banks.names_per_shard b ~prefix:"audit" ~n:sweep_width in
  Array.iter (Array.iter (fun n -> open_and_mint auditor_router n audit_balance)) audits;
  let audit_creds =
    let tgt = World.login w auditor in
    Array.of_list
      (List.map
         (fun id -> World.credentials_for w ~tgt (Shard.logical (Banks.shard b id)))
         b.Banks.ids)
  in
  let shard_at s = Banks.shard b (List.nth b.Banks.ids s) in
  let read c s =
    let name = accounts.(c).(s) in
    match Router.balance routers.(c) ~name ~currency:usd with
    | Ok (avail, 0) when avail = Hashtbl.find model name -> Ok ()
    | Ok (avail, held) -> Error (Printf.sprintf "balance %s: %d/%d" name avail held)
    | Error e -> Error ("balance " ^ name ^ ": " ^ e)
  in
  let transfer c d s amount =
    let from_ = accounts.(c).(s) and to_ = accounts.(d).(s) in
    match Router.transfer routers.(c) ~from_ ~to_ ~currency:usd ~amount with
    | Ok () ->
        Hashtbl.replace model from_ (Hashtbl.find model from_ - amount);
        Hashtbl.replace model to_ (Hashtbl.find model to_ + amount);
        Ok ()
    | Error e -> Error (Printf.sprintf "transfer %s -> %s: %s" from_ to_ e)
  in
  let sweep s =
    let sh = shard_at s in
    let payloads =
      Array.to_list
        (Array.map (fun n -> Wire.L [ Wire.S "balance"; Wire.S n; Wire.S usd ]) audits.(s))
    in
    match
      Secure_rpc.call_batch net ~creds:audit_creds.(s) ~dst:(Shard.primary_node sh)
        ~fallback_dsts:[ Shard.standby_node sh ] payloads
    with
    | Error e -> Error ("sweep: " ^ e)
    | Ok items ->
        if
          List.for_all
            (function
              | Ok reply -> Result.bind (Wire.field reply 0) Wire.to_int = Ok audit_balance
              | Error _ -> false)
            items
        then Ok ()
        else Error "sweep: wrong or failed balance"
  in
  (* Warm-up: per shard, enough transfers to take the standby past capacity
     (each inserts a replication request and a seeded reply there) and
     enough reads on top to take the primary past it. *)
  let fail e = failwith ("ledger warm-up: " ^ e) in
  let writes = (capacity / 2) + 64 in
  for s = 0 to shards - 1 do
    for i = 0 to writes - 1 do
      match transfer (i mod clients) ((i + 1) mod clients) s 1 with
      | Ok () -> ()
      | Error e -> fail e
    done;
    for i = 0 to capacity + 64 - writes - 1 do
      match read (i mod clients) s with Ok () -> () | Error e -> fail e
    done
  done;
  let kinds = Wl.shuffled_blocks st ~ops mix in
  let op_c = Array.init ops (fun _ -> Random.State.int st clients) in
  let op_d = Array.map (fun c -> (c + 1 + Random.State.int st (clients - 1)) mod clients) op_c in
  let op_s = Array.init ops (fun _ -> Random.State.int st shards) in
  let op_amount = Array.init ops (fun _ -> 1 + Random.State.int st 20) in
  let run k =
    match kinds.(k) with
    | "read" -> read op_c.(k) op_s.(k)
    | "transfer" -> transfer op_c.(k) op_d.(k) op_s.(k) op_amount.(k)
    | _ -> sweep op_s.(k)
  in
  {
    Wl.net;
    kind = (fun k -> kinds.(k));
    run;
    classify = Banks.classify b ~kdc_node;
    served = Banks.nodes b;
    kdc_node;
    steady = true;
    writes = [ "transfer" ];
    check = (fun () -> Banks.violations b ~currency:usd ~minted:!minted model);
    replay_entries = (fun () -> Banks.replay_entries b);
  }

let spec = { Wl.name = "ledger"; rate = 2200; block = 200; setup }
