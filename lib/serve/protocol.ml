type backend = Cpsrisk.Backend.t = Water_tank | Topology | Hierarchy

type request =
  | Load_model of {
      name : string;
      backend : backend;
      horizon : int option;
      model_src : string option;
    }
  | Sweep of { model : string; mutations : string; jobs : int option }
  | Mitigate of {
      model : string;
      search : Cpsrisk.Pipeline.frontier_request;
    }
  | Solve of { program : string; limit : int option; optimal : bool }
  | Status
  | Stats
  | List_models
  | Evict_model of { name : string }
  | Shutdown

let search_name = function
  | Cpsrisk.Pipeline.Frontier_optimal _ -> "optimal"
  | Cpsrisk.Pipeline.Frontier_pareto -> "pareto"
  | Cpsrisk.Pipeline.Frontier_sweep _ -> "budget-curve"

let request_to_json = function
  | Load_model { name; backend; horizon; model_src } ->
      Json.Obj
        (List.concat
           [
             [
               ("op", Json.String "load-model");
               ("name", Json.String name);
               ("backend", Json.String (Cpsrisk.Backend.name backend));
             ];
             (match horizon with
             | Some h -> [ ("horizon", Json.Int h) ]
             | None -> []);
             (match model_src with
             | Some s -> [ ("model_src", Json.String s) ]
             | None -> []);
           ])
  | Sweep { model; mutations; jobs } ->
      Json.Obj
        (List.concat
           [
             [
               ("op", Json.String "sweep");
               ("model", Json.String model);
               ("mutations", Json.String mutations);
             ];
             (match jobs with Some j -> [ ("jobs", Json.Int j) ] | None -> []);
           ])
  | Mitigate { model; search } ->
      Json.Obj
        (List.concat
           [
             [
               ("op", Json.String "mitigate");
               ("model", Json.String model);
               ("search", Json.String (search_name search));
             ];
             (match search with
             | Cpsrisk.Pipeline.Frontier_optimal (Some b) ->
                 [ ("budget", Json.Int b) ]
             | Cpsrisk.Pipeline.Frontier_sweep bs ->
                 [ ("budgets", Json.List (List.map (fun b -> Json.Int b) bs)) ]
             | _ -> []);
           ])
  | Solve { program; limit; optimal } ->
      Json.Obj
        (List.concat
           [
             [ ("op", Json.String "solve"); ("program", Json.String program) ];
             (match limit with Some l -> [ ("limit", Json.Int l) ] | None -> []);
             (if optimal then [ ("optimal", Json.Bool true) ] else []);
           ])
  | Status -> Json.Obj [ ("op", Json.String "status") ]
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | List_models -> Json.Obj [ ("op", Json.String "list-models") ]
  | Evict_model { name } ->
      Json.Obj [ ("op", Json.String "evict-model"); ("name", Json.String name) ]
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]

(* every element must be an integer: a curve silently missing a budget
   would answer a different question than the one asked *)
let budgets_of_json json =
  match Json.mem_list "budgets" json with
  | None | Some [] -> Error "mitigate: budget-curve needs a \"budgets\" list"
  | Some items ->
      let rec ints i = function
        | [] -> Ok []
        | Json.Int b :: rest -> Result.map (List.cons b) (ints (i + 1) rest)
        | v :: _ ->
            Error
              (Printf.sprintf
                 "mitigate: \"budgets\"[%d] must be an integer, got %s" i
                 (Json.to_string v))
      in
      ints 0 items

let request_of_json json =
  match Json.mem_string "op" json with
  | None -> Error "missing \"op\" field"
  | Some op -> (
      match op with
      | "load-model" -> (
          match Json.mem_string "name" json with
          | None -> Error "load-model: missing \"name\""
          | Some name -> (
              let backend_name =
                Option.value ~default:"water-tank"
                  (Json.mem_string "backend" json)
              in
              match Cpsrisk.Backend.of_name backend_name with
              | None ->
                  Error
                    (Printf.sprintf
                       "load-model: unknown backend %S (water-tank | topology)"
                       backend_name)
              | Some backend -> (
                  match Json.mem_int "horizon" json with
                  | Some h when h < 0 ->
                      Error
                        (Printf.sprintf
                           "load-model: \"horizon\" must be at least 0, got %d"
                           h)
                  | horizon ->
                      Ok
                        (Load_model
                           {
                             name;
                             backend;
                             horizon;
                             model_src = Json.mem_string "model_src" json;
                           }))))
      | "sweep" -> (
          match
            (Json.mem_string "model" json, Json.mem_string "mutations" json)
          with
          | Some model, Some mutations ->
              Ok (Sweep { model; mutations; jobs = Json.mem_int "jobs" json })
          | None, _ -> Error "sweep: missing \"model\""
          | _, None -> Error "sweep: missing \"mutations\"")
      | "mitigate" -> (
          match Json.mem_string "model" json with
          | None -> Error "mitigate: missing \"model\""
          | Some model ->
              let search =
                match
                  Option.value ~default:"optimal" (Json.mem_string "search" json)
                with
                | "optimal" ->
                    Ok (Cpsrisk.Pipeline.Frontier_optimal (Json.mem_int "budget" json))
                | "pareto" -> Ok Cpsrisk.Pipeline.Frontier_pareto
                | "budget-curve" ->
                    Result.map
                      (fun bs -> Cpsrisk.Pipeline.Frontier_sweep bs)
                      (budgets_of_json json)
                | search ->
                    Error
                      (Printf.sprintf
                         "mitigate: unknown search %S (optimal | pareto | \
                          budget-curve)"
                         search)
              in
              Result.map (fun search -> Mitigate { model; search }) search)
      | "solve" -> (
          match Json.mem_string "program" json with
          | None -> Error "solve: missing \"program\""
          | Some program -> (
              match Json.mem_int "limit" json with
              | Some l when l < 1 ->
                  Error
                    (Printf.sprintf
                       "solve: \"limit\" must be at least 1, got %d" l)
              | limit ->
                  Ok
                    (Solve
                       {
                         program;
                         limit;
                         optimal =
                           Option.value ~default:false
                             (Json.mem_bool "optimal" json);
                       })))
      | "status" -> Ok Status
      | "stats" -> Ok Stats
      | "list-models" -> Ok List_models
      | "evict-model" -> (
          match Json.mem_string "name" json with
          | None -> Error "evict-model: missing \"name\""
          | Some name -> Ok (Evict_model { name }))
      | "shutdown" -> Ok Shutdown
      | op -> Error (Printf.sprintf "unknown op %S" op))

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "invalid JSON: %s" msg)
  | Ok json -> request_of_json json

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let response_result json =
  match Json.mem_bool "ok" json with
  | Some true -> Ok json
  | Some false ->
      Error
        (Option.value ~default:"unspecified server error"
           (Json.mem_string "error" json))
  | None -> Error "malformed response: missing \"ok\""
