type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
  }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let roundtrip t json =
  match
    output_string t.oc (Json.to_string json);
    output_char t.oc '\n';
    flush t.oc;
    input_line t.ic
  with
  | exception End_of_file -> Error "connection closed by server"
  | exception Sys_error msg -> Error ("connection lost: " ^ msg)
  | line -> (
      match Json.parse line with
      | Error msg -> Error (Printf.sprintf "malformed response: %s" msg)
      | Ok response -> Protocol.response_result response)

let call t request = roundtrip t (Protocol.request_to_json request)

let request ~socket json =
  match connect socket with
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s (is the daemon running?)"
           socket (Unix.error_message err))
  | t -> Fun.protect ~finally:(fun () -> close t) (fun () -> roundtrip t json)

let with_connection ~socket f =
  match connect socket with
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s (is the daemon running?)"
           socket (Unix.error_message err))
  | t -> Fun.protect ~finally:(fun () -> close t) (fun () -> Ok (f t))
