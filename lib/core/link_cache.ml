type state = {
  s_last : Proxy_cert.pk_cert;
  s_bodies : Proxy_cert.body list;
  s_restrictions : Restriction.t list;
  s_pending : Restriction.t list;
  s_serials_rev : string list;
  s_expires : int;
  s_len : int;
}

type t = state Verify_cache.memo

type stats = Verify_cache.stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

let create () = Verify_cache.create ()
let root = Crypto.Sha256.digest "link-cache-prefix-v1"

let digests certs =
  let n = List.length certs in
  let out = Array.make n "" in
  let _ =
    List.fold_left
      (fun (prev, i) cert ->
        let bytes = Wire.encode (Proxy_cert.pk_cert_to_wire cert) in
        let d = Crypto.Sha256.digest (prev ^ Verify_cache.frame bytes) in
        out.(i) <- d;
        (d, i + 1))
      (root, 0) certs
  in
  out

let find_longest t ~now digests =
  let rec probe i =
    if i < 0 then None
    else
      match Verify_cache.find t ~now digests.(i) with
      | Some st when st.s_len = i + 1 -> Some (i + 1, st)
      | _ -> probe (i - 1)
  in
  let found = probe (Array.length digests - 1) in
  Verify_cache.count_lookup t ~hit:(Option.is_some found);
  found

let record t ~now ~key st = Verify_cache.store t ~now key st
let bump_generation = Verify_cache.bump_generation
let stats = Verify_cache.stats
let size = Verify_cache.size
