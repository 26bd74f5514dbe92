(* clearing: every operation is one cross-shard check. Check.write draws
   it (a fresh proxy key), then Router.deposit runs the payee endorsement
   (another key), the bank's endorsement (a third), the collect at the
   drawee, replication and the advice. Fresh chains every time, so the
   link cache is bypassed; response caches stay below capacity. *)

module Shard = Cluster.Shard
module Router = Cluster.Router

let shards = 4
let per_shard = 2
let usd = "usd"
let initial = 1_000_000
let warm_ops = 4
let resample = 8

type client = {
  principal : Principal.t;
  rsa : Crypto.Rsa.private_;
  router : Router.t;
  account : string;
  shard : string;
}

let setup ~seed ~ops (ctx : Wl.ctx) =
  let w = World.create ~seed:("clearing:" ^ seed) () in
  let net = w.World.net in
  let st = Wl.rng ~seed "clearing" in
  let b = Banks.create w ~count:shards ~routes:true in
  let kdc_node = Principal.to_string w.World.kdc_name in
  let names = Banks.names_per_shard b ~prefix:"acct" ~n:per_shard in
  let minted = ref 0 in
  let model = Hashtbl.create 16 in
  let clients =
    Array.concat
      (Array.to_list
         (Array.map
            (Array.map (fun account ->
                 let principal, _, rsa = World.enrol_pk w ("owner-" ^ account) in
                 let router = Banks.router b principal in
                 let shard = Banks.shard_of b account in
                 Wl.ok_or account (Router.open_account router ~name:account);
                 Wl.ok_or account (Shard.mint (Banks.shard b shard) ~name:account ~currency:usd initial);
                 minted := !minted + initial;
                 Hashtbl.replace model account initial;
                 { principal; rsa; router; account; shard }))
            names))
  in
  let n_clients = Array.length clients in
  Wl.seed_latencies net st
    (List.concat_map
       (fun c -> List.map (fun n -> (Principal.to_string c.principal, n)) (Banks.nodes b))
       (Array.to_list clients)
    @ Banks.bank_links b);
  let cleared = ref [] in
  let drbg = Sim.Net.drbg net in
  let clear i j amount =
    let payor = clients.(i) and payee = clients.(j) in
    let now = World.now w in
    let check =
      Wl.sub ctx "proxy.check_write" (fun () ->
          Check.write ~drbg ~now ~expires:(now + (24 * World.hour)) ~payor:payor.principal
            ~payor_key:payor.rsa
            ~account:
              (Accounting_server.account (Shard.primary_server (Banks.shard b payor.shard))
                 payor.account)
            ~payee:payee.principal ~currency:usd ~amount ())
    in
    Wl.count ctx "rsa.keygen" 2;
    Wl.count ctx "rsa.sign" 2;
    Wl.mark_endorse ctx;
    match Router.deposit payee.router ~endorser_key:payee.rsa ~check ~to_account:payee.account with
    | Ok got when got = amount ->
        Hashtbl.replace model payor.account (Hashtbl.find model payor.account - amount);
        Hashtbl.replace model payee.account (Hashtbl.find model payee.account + amount);
        cleared := (check, j) :: !cleared;
        Ok ()
    | Ok got -> Error (Printf.sprintf "check %s cleared %d of %d" check.Check.number got amount)
    | Error e -> Error ("deposit: " ^ e)
  in
  let pick () =
    let i = Random.State.int st n_clients in
    let rec payee () =
      let j = Random.State.int st n_clients in
      if clients.(j).shard = clients.(i).shard then payee () else j
    in
    let j = payee () in
    (i, j, 1 + Random.State.int st 10)
  in
  for _ = 1 to warm_ops do
    let i, j, amount = pick () in
    match clear i j amount with Ok () -> () | Error e -> failwith ("clearing warm-up: " ^ e)
  done;
  let plan = Array.init ops (fun _ -> pick ()) in
  let run k =
    let i, j, amount = plan.(k) in
    clear i j amount
  in
  (* After timing: a sample of cleared checks deposited again must be
     refused, each redeemed exactly once. *)
  let redeposits () =
    let all = Array.of_list (List.rev !cleared) in
    let n = Array.length all in
    let k = min resample n in
    List.filter_map
      (fun r ->
        let check, j = all.(r * n / k) in
        let payee = clients.(j) in
        match Router.deposit payee.router ~endorser_key:payee.rsa ~check ~to_account:payee.account with
        | Ok _ -> Some ("check " ^ check.Check.number ^ " redeemed twice")
        | Error _ -> None)
      (List.init k Fun.id)
  in
  {
    Wl.net;
    kind = (fun _ -> "clear");
    run;
    classify = Banks.classify b ~kdc_node;
    served = Banks.nodes b;
    kdc_node;
    steady = false;
    writes = [ "clear" ];
    check =
      (fun () ->
        let before = Banks.violations b ~currency:usd ~minted:!minted model in
        let again = redeposits () in
        before @ again @ Banks.violations b ~currency:usd ~minted:!minted model);
    replay_entries = (fun () -> Banks.replay_entries b);
  }

let spec = { Wl.name = "clearing"; rate = 30; block = 100; setup }
