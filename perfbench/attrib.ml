(* Outside-in attribution of wall time to server handlers, from a network
   tap. The simulated network is synchronous: a request's tap event fires
   just before its handler runs and the response's just after it returns,
   so the two bracket the handler, and exchanges a handler makes nest
   strictly inside it. A handler's self time is its interval minus the
   intervals nested directly inside it. The tap always delivers. *)

type frame = { cls : string; start : int; mutable nested : int }

type t = {
  now : unit -> int;
  classify : src:string -> dst:string -> string;
  timing : bool;
  mutable stack : frame list;
  mutable top_ns : int;
  mutable first_top : int;  (* when the first top-level request went out; 0 if none *)
  self_ns : (string, int) Hashtbl.t;
  handled : (string, int) Hashtbl.t;
  requests_to : (string, int) Hashtbl.t;
}

let create ?(now = Timer.now_ns) ~timing ~classify () =
  {
    now;
    classify;
    timing;
    stack = [];
    top_ns = 0;
    first_top = 0;
    self_ns = Hashtbl.create 16;
    handled = Hashtbl.create 16;
    requests_to = Hashtbl.create 16;
  }

let bump tbl k n = Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)
let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0

let enter t ~src ~dst =
  bump t.requests_to dst 1;
  if t.timing then begin
    let start = t.now () in
    if t.stack = [] && t.first_top = 0 then t.first_top <- start;
    t.stack <- { cls = t.classify ~src ~dst; start; nested = 0 } :: t.stack
  end

let leave t =
  if t.timing then
    match t.stack with
    | [] -> failwith "Attrib.leave: response without a request"
    | f :: rest ->
        let interval = t.now () - f.start in
        bump t.self_ns f.cls (interval - f.nested);
        bump t.handled f.cls 1;
        (match rest with
        | parent :: _ -> parent.nested <- parent.nested + interval
        | [] -> t.top_ns <- t.top_ns + interval);
        t.stack <- rest

let tap t ~dir ~src ~dst _payload =
  (match dir with `Request -> enter t ~src ~dst | `Response -> leave t);
  Sim.Net.Deliver

let install t net = Sim.Net.set_tap net (tap t)

(* Total handler time outside any enclosing handler, and reset it: the
   caller subtracts it from a client call's wall time. *)
let take_top t =
  let v = t.top_ns in
  t.top_ns <- 0;
  v

(* Wall time at which the first top-level request since the last call went
   out (0 if none), and reset it. *)
let take_first_top t =
  let v = t.first_top in
  t.first_top <- 0;
  v

let self_ns t cls = get t.self_ns cls
let handled t cls = get t.handled cls
let requests_to t node = get t.requests_to node
let total_requests t nodes = List.fold_left (fun acc n -> acc + requests_to t n) 0 nodes
