module Pqueue = Cddpd_util.Pqueue
module Obs = Cddpd_obs

let m_nodes_expanded = Obs.Registry.counter "advisor.ranking.nodes_expanded"
let m_paths_emitted = Obs.Registry.counter "advisor.ranking.paths_emitted"
let m_paths_pruned = Obs.Registry.counter "advisor.ranking.paths_pruned"
let m_partials_pruned = Obs.Registry.counter "advisor.ranking.partials_pruned"
let m_queue_peak = Obs.Registry.histogram "advisor.ranking.queue_peak"

type partial = {
  stage : int; (* stage of the last chosen node *)
  node : int;
  g_cost : float; (* actual cost up to and including (stage, node) *)
  rev_path : int list;
}

let enumerate (g : Staged_dag.t) =
  let n = g.Staged_dag.n_nodes in
  let stages = g.Staged_dag.n_stages in
  let h = Staged_dag.cost_to_go g in
  let initial_queue = ref Pqueue.empty in
  for j = 0 to n - 1 do
    let g_cost = Staged_dag.source_cost g j +. Staged_dag.node_cost g 0 j in
    initial_queue :=
      Pqueue.insert !initial_queue
        (g_cost +. h.(j))
        { stage = 0; node = j; g_cost; rev_path = [ j ] }
  done;
  (* Best-first expansion.  With an exact heuristic, the f-value of a popped
     state equals the true cost of the best completion of its prefix, so
     completed paths pop in nondecreasing cost order. *)
  let rec next queue () =
    match Pqueue.pop_min queue with
    | None -> Seq.Nil
    | Some (f, partial, queue) ->
        Obs.Counter.incr m_nodes_expanded;
        if partial.stage = stages - 1 then begin
          Obs.Counter.incr m_paths_emitted;
          let path = Array.of_list (List.rev partial.rev_path) in
          Seq.Cons ((f, path), next queue)
        end
        else begin
          let queue = ref queue in
          let hb = (partial.stage + 1) * n in
          for j' = 0 to n - 1 do
            let g_cost =
              partial.g_cost
              +. Staged_dag.edge_cost g partial.node j'
              +. Staged_dag.node_cost g (partial.stage + 1) j'
            in
            queue :=
              Pqueue.insert !queue
                (g_cost +. h.(hb + j'))
                {
                  stage = partial.stage + 1;
                  node = j';
                  g_cost;
                  rev_path = j' :: partial.rev_path;
                }
          done;
          next !queue ()
        end
  in
  next !initial_queue

type give_up_reason = Space_exhausted | Path_budget | Queue_budget

let reason_to_string reason =
  match reason with
  | Space_exhausted -> "space exhausted"
  | Path_budget -> "path budget hit"
  | Queue_budget -> "queue budget hit"

type gave_up = {
  examined : int;
  queue_peak : int;
  reason : give_up_reason;
}

(* The budgeted search keeps its frontier in a growable arena instead of
   per-partial path lists: one slot per inserted partial holding its node,
   stage, accumulated cost and parent slot, with the priority queue
   carrying arena ids only.  Paths are rebuilt by chasing parents on
   emission.  This caps the per-insertion footprint at a few words,
   detaches memory from path length, and makes the queue budget exact. *)
type arena = {
  mutable nodes : int array;
  mutable stages : int array;
  mutable parents : int array;
  mutable g_costs : float array;
  mutable len : int;
}

let arena_create () =
  {
    nodes = Array.make 1024 0;
    stages = Array.make 1024 0;
    parents = Array.make 1024 (-1);
    g_costs = Array.make 1024 0.0;
    len = 0;
  }

let arena_push a ~node ~stage ~parent ~g_cost =
  if a.len = Array.length a.nodes then begin
    let grow ar fill =
      let bigger = Array.make (2 * Array.length ar) fill in
      Array.blit ar 0 bigger 0 a.len;
      bigger
    in
    a.nodes <- grow a.nodes 0;
    a.stages <- grow a.stages 0;
    a.parents <- grow a.parents (-1);
    a.g_costs <- grow a.g_costs 0.0
  end;
  let id = a.len in
  a.nodes.(id) <- node;
  a.stages.(id) <- stage;
  a.parents.(id) <- parent;
  a.g_costs.(id) <- g_cost;
  a.len <- id + 1;
  id

let arena_path a id ~stages =
  let path = Array.make stages 0 in
  let rec go id s =
    path.(s) <- a.nodes.(id);
    if s > 0 then go a.parents.(id) (s - 1)
  in
  go id (stages - 1);
  path

(* Mutable binary min-heap over (f-value, arena id), ties broken by arena
   id — i.e. insertion order.  The stable tie-break is load-bearing for
   the bound-pruning guarantee: arena ids stay in the same relative order
   whether or not over-bound partials were discarded, so the pruned and
   unpruned searches pop identical state sequences and accept the same
   path at the same rank (a structure-dependent tie-break like the
   persistent leftist heap's would not promise that). *)
type heap = {
  mutable prios : float array;
  mutable heap_ids : int array;
  mutable size : int;
}

let heap_create () = { prios = Array.make 1024 0.0; heap_ids = Array.make 1024 0; size = 0 }

let heap_less h i j =
  h.prios.(i) < h.prios.(j)
  || (Float.equal h.prios.(i) h.prios.(j) && h.heap_ids.(i) < h.heap_ids.(j))

let heap_swap h i j =
  let p = h.prios.(i) and id = h.heap_ids.(i) in
  h.prios.(i) <- h.prios.(j);
  h.heap_ids.(i) <- h.heap_ids.(j);
  h.prios.(j) <- p;
  h.heap_ids.(j) <- id

let heap_push h prio id =
  if h.size = Array.length h.prios then begin
    let grow ar fill =
      let bigger = Array.make (2 * Array.length ar) fill in
      Array.blit ar 0 bigger 0 h.size;
      bigger
    in
    h.prios <- grow h.prios 0.0;
    h.heap_ids <- grow h.heap_ids 0
  end;
  h.prios.(h.size) <- prio;
  h.heap_ids.(h.size) <- id;
  h.size <- h.size + 1;
  let i = ref (h.size - 1) in
  while !i > 0 && heap_less h !i ((!i - 1) / 2) do
    heap_swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let heap_pop h =
  if h.size = 0 then None
  else begin
    let prio = h.prios.(0) and id = h.heap_ids.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.prios.(0) <- h.prios.(h.size);
      h.heap_ids.(0) <- h.heap_ids.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && heap_less h l !smallest then smallest := l;
        if r < h.size && heap_less h r !smallest then smallest := r;
        if !smallest = !i then continue := false
        else begin
          heap_swap h !i !smallest;
          i := !smallest
        end
      done
    end;
    Some (prio, id)
  end

let solve_constrained g ~k ~initial ?upper_bound ?(max_paths = 1_000_000)
    ?(max_queue = max_int) () =
  Obs.Span.with_span "advisor.ranking" (fun () ->
      let n = g.Staged_dag.n_nodes in
      let stages = g.Staged_dag.n_stages in
      let h = Staged_dag.cost_to_go g in
      (* Slackened like the k-aware pruner: a bound that is the cost of a
         feasible path can never cut the constrained optimum, float
         rounding included. *)
      let ub =
        match upper_bound with
        | None -> infinity
        | Some ub -> ub +. (Float.abs ub *. 1e-9)
      in
      let arena = arena_create () in
      let queue = heap_create () in
      let queue_peak = ref 0 in
      let partials_pruned = ref 0 in
      let over_budget = ref false in
      let push ~node ~stage ~parent ~g_cost f =
        if f > ub then incr partials_pruned
        else if queue.size >= max_queue then over_budget := true
        else begin
          let id = arena_push arena ~node ~stage ~parent ~g_cost in
          heap_push queue f id;
          if queue.size > !queue_peak then queue_peak := queue.size
        end
      in
      for j = 0 to n - 1 do
        let g_cost = Staged_dag.source_cost g j +. Staged_dag.node_cost g 0 j in
        push ~node:j ~stage:0 ~parent:(-1) ~g_cost (g_cost +. h.(j))
      done;
      let rec scan rank =
        if !over_budget then `Stop (Queue_budget, rank - 1)
        else
          match heap_pop queue with
          | None -> `Stop (Space_exhausted, rank - 1)
          | Some (f, id) ->
              Obs.Counter.incr m_nodes_expanded;
              let stage = arena.stages.(id) in
              if stage = stages - 1 then begin
                Obs.Counter.incr m_paths_emitted;
                let path = arena_path arena id ~stages in
                if Staged_dag.path_changes g ~initial path <= k then
                  `Done (f, path, rank)
                else if rank >= max_paths then `Stop (Path_budget, rank)
                else begin
                  Obs.Counter.incr m_paths_pruned;
                  scan (rank + 1)
                end
              end
              else begin
                let g_cost = arena.g_costs.(id) in
                let node = arena.nodes.(id) in
                let hb = (stage + 1) * n in
                for j' = 0 to n - 1 do
                  let g_cost' =
                    g_cost
                    +. Staged_dag.edge_cost g node j'
                    +. Staged_dag.node_cost g (stage + 1) j'
                  in
                  push ~node:j' ~stage:(stage + 1) ~parent:id ~g_cost:g_cost'
                    (g_cost' +. h.(hb + j'))
                done;
                scan rank
              end
      in
      let outcome = scan 1 in
      if Obs.Registry.enabled () then begin
        Obs.Counter.add m_partials_pruned !partials_pruned;
        Obs.Histogram.observe m_queue_peak (float_of_int !queue_peak)
      end;
      match outcome with
      | `Done (cost, path, rank) -> `Found (cost, path, rank)
      | `Stop (reason, examined) ->
          `Gave_up { examined; queue_peak = !queue_peak; reason })
