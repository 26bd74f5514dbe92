(* The replicated bank shards shared by the ledger and clearing workloads:
   [count] primary/standby pairs on a consistent-hash ring. *)

module Shard = Cluster.Shard
module Ring = Cluster.Ring
module Router = Cluster.Router

type t = {
  w : World.t;
  ids : string list;
  shards : (string * Shard.t) list;
  ring : Ring.t;
  endpoints : (string * Router.endpoint) list;
  primaries : string list;
  standbys : string list;
  logicals : string list;  (** the shards' service principals, as network sources *)
}

let create w ~count ~routes =
  let net = w.World.net in
  let ids = List.init count (Printf.sprintf "bank-%d") in
  let shards =
    List.map
      (fun id ->
        let p, key, rsa = World.enrol_pk w id in
        let s =
          Wl.ok_or id
            (Shard.create net ~me:p ~my_key:key ~kdc:w.World.kdc_name ~signing_key:rsa
               ~lookup:(fun q -> Directory.public w.World.dir q)
               ~primary_node:(id ^ "-a") ~standby_node:(id ^ "-b") ())
        in
        Shard.install s;
        (id, s))
      ids
  in
  if routes then
    List.iter
      (fun (_, s1) ->
        List.iter
          (fun (_, s2) ->
            if s1 != s2 then begin
              Shard.set_route s1 ~drawee:(Shard.logical s2)
                ~via:[ Shard.primary_node s2; Shard.standby_node s2 ]
                ~next_hop:(Shard.logical s2) ();
              Wl.ok_or "warm" (Shard.warm s1 ~drawee:(Shard.logical s2))
            end)
          shards)
      shards;
  let endpoints =
    List.map
      (fun (id, s) ->
        ( id,
          {
            Router.ep_logical = Shard.logical s;
            ep_primary = Shard.primary_node s;
            ep_standby = Shard.standby_node s;
          } ))
      shards
  in
  {
    w;
    ids;
    shards;
    ring = Ring.create ids;
    endpoints;
    primaries = List.map (fun (_, s) -> Shard.primary_node s) shards;
    standbys = List.map (fun (_, s) -> Shard.standby_node s) shards;
    logicals = List.map (fun (_, s) -> Principal.to_string (Shard.logical s)) shards;
  }

let shard t id = List.assoc id t.shards
let shard_of t name = Ring.lookup t.ring name

(* Per shard, in shard order, the first [n] names [prefix-j] the ring
   places on it. *)
let names_per_shard t ~prefix ~n =
  let found = Hashtbl.create 8 in
  let names id = Option.value (Hashtbl.find_opt found id) ~default:[] in
  let rec go j =
    if List.exists (fun id -> List.length (names id) < n) t.ids then begin
      let name = Printf.sprintf "%s-%d" prefix j in
      let id = shard_of t name in
      if List.length (names id) < n then Hashtbl.replace found id (names id @ [ name ]);
      go (j + 1)
    end
  in
  go 0;
  Array.of_list (List.map (fun id -> Array.of_list (names id)) t.ids)

(* The directed links banks call out on, under their logical identity:
   replication to their own standby, collect and advice to other banks'
   primaries. *)
let bank_links t =
  List.concat
    (List.mapi
       (fun i src ->
         (src, List.nth t.standbys i)
         :: List.filteri (fun j _ -> j <> i) (List.map (fun p -> (src, p)) t.primaries))
       t.logicals)
let nodes t = t.primaries @ t.standbys

(* A router for [principal], its ticket for every shard fetched now so no
   later operation needs the KDC. *)
let router t principal =
  let tgt = World.login t.w principal in
  let creds =
    List.map
      (fun (_, s) ->
        let logical = Shard.logical s in
        (logical, World.credentials_for t.w ~tgt logical))
      t.shards
  in
  let creds_for logical =
    match List.find_opt (fun (l, _) -> Principal.equal l logical) creds with
    | Some (_, c) -> Ok c
    | None -> Error "no ticket for this shard"
  in
  Router.create t.w.World.net ~ring:t.ring ~endpoints:t.endpoints ~creds_for ()

(* A bank calls out under its logical identity: a request from one to a
   primary is inter-bank (collect, advice); one to a standby is
   replication. *)
let classify t ~kdc_node ~src ~dst =
  if List.mem dst t.primaries then if List.mem src t.logicals then "interbank" else "bank"
  else if List.mem dst t.standbys then "standby"
  else if dst = kdc_node then "kdc"
  else "other"

let ledger_of t name = Accounting_server.ledger (Shard.authoritative (shard t (shard_of t name)))

(* After a run: value is conserved against the amount minted, every
   account matches the benchmark's [model] of balances, and every standby
   ledger equals its primary's. *)
let violations t ~currency ~minted model =
  let total =
    List.fold_left
      (fun acc (_, s) -> acc + Ledger.total (Accounting_server.ledger (Shard.authoritative s)) ~currency)
      0 t.shards
  in
  (if total <> minted then
     [ Printf.sprintf "conservation: %d %s held, %d minted" total currency minted ]
   else [])
  @ Hashtbl.fold
      (fun name v acc ->
        if Ledger.balance (ledger_of t name) ~name ~currency = v then acc
        else ("balance of " ^ name ^ " differs from the model") :: acc)
      model []
  @ List.concat_map
      (fun (id, s) ->
        let p = Accounting_server.ledger (Shard.primary_server s) in
        let b = Accounting_server.ledger (Shard.standby_server s) in
        let names l = List.sort compare (Ledger.accounts l) in
        if names p <> names b then [ id ^ ": standby holds other accounts" ]
        else
          List.filter_map
            (fun name ->
              if
                Ledger.balance p ~name ~currency = Ledger.balance b ~name ~currency
                && Ledger.held p ~name ~currency = Ledger.held b ~name ~currency
              then None
              else Some (Printf.sprintf "%s: standby differs on %s" id name))
            (names p))
      t.shards

let replay_entries t =
  List.fold_left
    (fun acc (_, s) ->
      List.fold_left
        (fun acc srv ->
          acc + Replay_cache.size (Guard.replay_cache (Accounting_server.guard srv)))
        acc
        [ Shard.primary_server s; Shard.standby_server s ])
    0 t.shards
