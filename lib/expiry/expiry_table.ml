type 'a entry = {
  key : string;
  mutable expiry : int;
  seq : int;
  mutable pos : int; (* index in [heap] *)
  mutable value : 'a;
}

type 'a t = {
  index : (string, 'a entry) Hashtbl.t;
  mutable heap : 'a entry array;
      (* binary min-heap on (expiry, seq) in slots [0, size); slots past
         [size] are filler that only ever points at live entries *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { index = Hashtbl.create 64; heap = [||]; size = 0; next_seq = 0 }
let length t = t.size
let before a b = a.expiry < b.expiry || (a.expiry = b.expiry && a.seq < b.seq)

let place t i e =
  t.heap.(i) <- e;
  e.pos <- i

let rec sift_up t e =
  if e.pos > 0 then begin
    let parent = t.heap.((e.pos - 1) / 2) in
    if before e parent then begin
      let i = e.pos in
      place t parent.pos e;
      place t i parent;
      sift_up t e
    end
  end

let rec sift_down t e =
  let l = (2 * e.pos) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let c = if r < t.size && before t.heap.(r) t.heap.(l) then t.heap.(r) else t.heap.(l) in
    if before c e then begin
      let i = e.pos in
      place t c.pos e;
      place t i c;
      sift_down t e
    end
  end

let detach t e =
  Hashtbl.remove t.index e.key;
  let last = t.size - 1 in
  t.size <- last;
  if last = 0 then t.heap <- [||]
  else begin
    let moved = t.heap.(last) in
    if moved != e then begin
      place t e.pos moved;
      sift_up t moved;
      sift_down t moved
    end;
    t.heap.(last) <- t.heap.(0)
  end

let push t e =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (max 16 (2 * t.size)) e in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  place t t.size e;
  t.size <- t.size + 1;
  sift_up t e

let mem t key = Hashtbl.mem t.index key

let find t key = Option.map (fun e -> e.value) (Hashtbl.find_opt t.index key)

let find_live t ~now key =
  match Hashtbl.find_opt t.index key with
  | Some e when e.expiry > now -> Some e.value
  | Some e ->
      detach t e;
      None
  | None -> None

let add t key ~expiry value =
  Option.iter (detach t) (Hashtbl.find_opt t.index key);
  let e = { key; expiry; seq = t.next_seq; pos = 0; value } in
  t.next_seq <- t.next_seq + 1;
  Hashtbl.add t.index key e;
  push t e

let update t key ~expiry value =
  match Hashtbl.find_opt t.index key with
  | Some e ->
      e.expiry <- expiry;
      e.value <- value;
      sift_up t e;
      sift_down t e
  | None -> add t key ~expiry value

let remove t key = Option.iter (detach t) (Hashtbl.find_opt t.index key)

let pop_min t = if t.size > 0 then detach t t.heap.(0)

let rec purge t ~now =
  if t.size > 0 && t.heap.(0).expiry <= now then begin
    detach t t.heap.(0);
    purge t ~now
  end

let make_room t ~capacity ~now ~on_evict =
  if t.size >= capacity then begin
    purge t ~now;
    if t.size >= capacity then begin
      pop_min t;
      on_evict ()
    end
  end

let filter t keep =
  let doomed = ref [] in
  for i = 0 to t.size - 1 do
    let e = t.heap.(i) in
    if not (keep e.value) then doomed := e :: !doomed
  done;
  List.iter (detach t) !doomed;
  List.length !doomed

let clear t =
  Hashtbl.reset t.index;
  t.heap <- [||];
  t.size <- 0
