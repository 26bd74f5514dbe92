(* present: a worker presents pre-granted public-key bearer cascades to a
   guarded file server over Secure_rpc. Every operation is one
   File_server.attach (the client's RSA proof signature) and one
   File_server.read, whose guard verifies the chain offline with
   link-cache hits on the shared prefixes. No key generation, no ledger. *)

module R = Restriction

let objects = 12
let owners = 3
let content_bytes = 512

(* Holders per object, as the holder each one extends (-1 for the root
   grant): a depth-1..4 spine and two branches, so holders share
   prefixes. *)
let holder_parents = [| -1; 0; 1; 2; 0; 2 |]
let holders = Array.length holder_parents
let response_cache_capacity = 4096

let obj_name o = Printf.sprintf "obj-%02d" o

let setup ~seed ~ops (ctx : Wl.ctx) =
  let w = World.create ~seed:("present:" ^ seed) () in
  let net = w.World.net in
  let st = Wl.rng ~seed "present" in
  let fs_name, fs_key = World.enrol w "files" in
  let fs =
    File_server.create net ~me:fs_name ~my_key:fs_key
      ~lookup_pub:(fun q -> Directory.public w.World.dir q)
      ~link_cache:(Link_cache.create ()) ~acl:(Acl.create ()) ()
  in
  File_server.install fs;
  let worker, _ = World.enrol w "worker" in
  let fs_node = Principal.to_string fs_name in
  let worker_node = Principal.to_string worker in
  Wl.seed_latencies net st [ (worker_node, fs_node) ];
  let creds = World.credentials_for w ~tgt:(World.login w worker) fs_name in
  let owner_keys =
    Array.init owners (fun i -> World.enrol_pk w (Printf.sprintf "owner-%d" i))
  in
  let contents =
    Array.init objects (fun o ->
        let hex =
          String.concat ""
            (List.init (content_bytes / 2) (fun _ ->
                 Printf.sprintf "%02x" (Random.State.int st 256)))
        in
        let path = obj_name o in
        let body = path ^ ":" ^ hex in
        let owner, _, _ = owner_keys.(o mod owners) in
        File_server.put_direct fs ~path body;
        Acl.add (File_server.acl fs) ~target:path
          { Acl.subject = Acl.Principal_is owner; rights = [ "read" ]; restrictions = [] };
        body)
  in
  let now = World.now w in
  let expires = now + (24 * World.hour) in
  let drbg = Sim.Net.drbg net in
  let chains =
    Array.init objects (fun o ->
        let owner, _, owner_rsa = owner_keys.(o mod owners) in
        let made = Array.make holders None in
        Array.iteri
          (fun h parent ->
            let p =
              if parent < 0 then
                Proxy.grant_pk ~drbg ~now ~expires ~grantor:owner ~grantor_key:owner_rsa
                  ~restrictions:[ R.Authorized [ { R.target = obj_name o; ops = [ "read" ] } ] ]
                  ()
              else
                Wl.ok_or "cascade"
                  (Proxy.restrict_pk ~drbg ~now ~expires ~restrictions:[]
                     (Option.get made.(parent)))
            in
            made.(h) <- Some p)
          holder_parents;
        Array.map Option.get made)
  in
  let zipf = Load.Population.zipf objects in
  let zipf_drbg = Crypto.Drbg.create ~seed:("present-objects:" ^ seed) in
  let op_obj = Array.init ops (fun _ -> Load.Population.zipf_sample zipf zipf_drbg) in
  let op_holder = Array.init ops (fun _ -> Random.State.int st holders) in
  let read o h =
    let path = obj_name o in
    let presented =
      Wl.sub ctx "presentation.attach" (fun () ->
          File_server.attach net ~proxy:chains.(o).(h) ~server:fs_name ~operation:"read" ~path)
    in
    Wl.count ctx "rsa.sign" 1;
    match File_server.read net ~creds ~proxies:[ presented ] ~path () with
    | Ok body when body = contents.(o) -> Ok ()
    | Ok _ -> Error (Printf.sprintf "read %s: wrong content" path)
    | Error e -> Error (Printf.sprintf "read %s: %s" path e)
  in
  (* Warm-up: every holder presents once (link and signature caches), then
     cheap direct-ACL reads take the response cache past capacity, so the
     timed phase evicts on every request from its first one. *)
  let fail e = failwith ("present warm-up: " ^ e) in
  for o = 0 to objects - 1 do
    for h = 0 to holders - 1 do
      match read o h with Ok () -> () | Error e -> fail e
    done
  done;
  File_server.put_direct fs ~path:"warm" "warm";
  Acl.add (File_server.acl fs) ~target:"warm"
    { Acl.subject = Acl.Principal_is worker; rights = [ "read" ]; restrictions = [] };
  for _ = 1 to response_cache_capacity + 64 - (objects * holders) do
    match File_server.read net ~creds ~path:"warm" () with
    | Ok "warm" -> ()
    | Ok _ -> fail "wrong warm content"
    | Error e -> fail e
  done;
  let kdc_node = Principal.to_string w.World.kdc_name in
  {
    Wl.net;
    kind = (fun _ -> "read");
    run = (fun k -> read op_obj.(k) op_holder.(k));
    classify =
      (fun ~src:_ ~dst ->
        if dst = fs_node then "fs" else if dst = kdc_node then "kdc" else "other");
    served = [ fs_node ];
    kdc_node;
    steady = true;
    writes = [];
    check =
      (fun () ->
        List.concat
          (List.init objects (fun o ->
               if File_server.get_direct fs ~path:(obj_name o) = Some contents.(o) then []
               else [ "stored content of " ^ obj_name o ^ " changed" ])));
    replay_entries =
      (fun () -> Replay_cache.size (Guard.replay_cache (File_server.guard fs)));
  }

let spec = { Wl.name = "present"; rate = 1100; block = 200; setup }
