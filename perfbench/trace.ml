(* In-memory span and counter recorder for the traced replay.

   A span is one call into a layer: its name, the span that caused it,
   and wall-clock start/end.  Spans are recorded from any domain (the
   replay's pool tasks run on worker domains), so the store is
   mutex-guarded; nothing is written out until the replay ends.  A
   layer's self time is its span's duration minus the part of that
   interval its child spans cover. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

type t = {
  lock : Mutex.t;
  mutable next_id : int;
  mutable spans : span list;
  counters : (string, float) Hashtbl.t;
}

let root = 0

let create () =
  { lock = Mutex.create (); next_id = 1; spans = []; counters = Hashtbl.create 64 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let now = Unix.gettimeofday

(* [span t ~parent name f] runs [f id] inside a new span [id] child of
   [parent]; the span is recorded even when [f] raises. *)
let span t ~parent name f =
  let id =
    locked t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        id)
  in
  let t0 = now () in
  let record () =
    let s = { id; parent; name; t0; t1 = now () } in
    locked t (fun () -> t.spans <- s :: t.spans)
  in
  match f id with
  | r ->
      record ();
      r
  | exception e ->
      record ();
      raise e

let add t name v =
  locked t (fun () ->
      let old = Option.value ~default:0.0 (Hashtbl.find_opt t.counters name) in
      Hashtbl.replace t.counters name (old +. v))

let count t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counters name)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = Float.max a lo and b = Float.min b hi in
           if b > a then Some (a, b) else None)
         intervals)
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let children t =
  let tbl = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add tbl s.parent (s.t0, s.t1)) t.spans;
  fun id -> Hashtbl.find_all tbl id

let duration s = s.t1 -. s.t0

(* Per span name: (calls, total duration, self time). *)
let summary t =
  let kids = children t in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = duration s -. covered ~lo:s.t0 ~hi:s.t1 (kids s.id) in
      let c, d, sf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (c + 1, d +. duration s, sf +. self))
    t.spans;
  fun name -> Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl name)

(* Share of the wall time of the spans named [root_name] that their
   direct children cover. *)
let coverage t ~root_name =
  let kids = children t in
  let wall, covered_time =
    List.fold_left
      (fun (wall, cov) s ->
        if String.equal s.name root_name then
          (wall +. duration s, cov +. covered ~lo:s.t0 ~hi:s.t1 (kids s.id))
        else (wall, cov))
      (0.0, 0.0) t.spans
  in
  if wall > 0.0 then covered_time /. wall else 0.0
