type t = {
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * Json.t) list;
}

let correct t = List.for_all snd t.checks

let metrics_of catalogue values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("Outcome.metrics_of: unknown metric " ^ name))
    values;
  List.map
    (fun (name, _) ->
      (name, Option.value ~default:0.0 (List.assoc_opt name values)))
    catalogue

let all_pass lists =
  List.fold_left
    (fun acc (name, ok) ->
      match List.assoc_opt name acc with
      | Some prior -> (name, prior && ok) :: List.remove_assoc name acc
      | None -> (name, ok) :: acc)
    [] (List.concat lists)
  |> List.rev

let mean = function
  | [] -> []
  | first :: _ as lists ->
      let k = float_of_int (List.length lists) in
      List.mapi
        (fun i (name, _) ->
          (name, List.fold_left (fun acc l -> acc +. snd (List.nth l i)) 0.0 lists /. k))
        first

let result_json t ~units =
  Json.Obj
    [
      ("correct", Json.Bool (correct t));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, value) ->
               ( name,
                 Json.Obj
                   [
                     ("value", Json.Float value);
                     ("unit", Json.String (List.assoc name units));
                   ] ))
             t.metrics) );
    ]
