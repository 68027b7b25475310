(* The repo's one JSON module: the value type, a printer, a strict
   reader and accessors. No external dependency (the repo has none to
   offer); integers and floats kept distinct so specs round-trip
   exactly ([%.17g] is lossless for IEEE doubles). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ----- printing ----- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec write b ~indent ~level v =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char b '\n' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.1f" f)
    else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | String s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_char b '[';
    nl ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char b ',';
          nl ()
        end;
        pad (level + 1);
        write b ~indent ~level:(level + 1) item)
      items;
    nl ();
    pad level;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_char b '{';
    nl ();
    List.iteri
      (fun i (k, item) ->
        if i > 0 then begin
          Buffer.add_char b ',';
          nl ()
        end;
        pad (level + 1);
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\": ";
        write b ~indent ~level:(level + 1) item)
      fields;
    nl ();
    pad level;
    Buffer.add_char b '}'

let to_string ?(indent = false) v =
  let b = Buffer.create 256 in
  write b ~indent ~level:0 v;
  if indent then Buffer.add_char b '\n';
  Buffer.contents b

(* ----- parsing ----- *)

type cursor = { s : string; mutable pos : int }

let fail c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then fail c "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents b
    | '\\' ->
      (if c.pos >= String.length c.s then fail c "unterminated escape";
       let e = c.s.[c.pos] in
       c.pos <- c.pos + 1;
       match e with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'n' -> Buffer.add_char b '\n'
       | 'r' -> Buffer.add_char b '\r'
       | 't' -> Buffer.add_char b '\t'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'u' ->
         if c.pos + 4 > String.length c.s then fail c "bad \\u escape";
         let digit i =
           match c.s.[c.pos + i] with
           | '0' .. '9' as h -> Char.code h - Char.code '0'
           | 'a' .. 'f' as h -> Char.code h - Char.code 'a' + 10
           | 'A' .. 'F' as h -> Char.code h - Char.code 'A' + 10
           | _ -> fail c "bad \\u escape"
         in
         let code =
           (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3
         in
         c.pos <- c.pos + 4;
         (* Encode the BMP code point as UTF-8; surrogates are not paired. *)
         if code < 0x80 then Buffer.add_char b (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> fail c "bad escape");
      go ()
    | ch when Char.code ch < 0x20 ->
      c.pos <- c.pos - 1;
      fail c "control character in string"
    | ch ->
      Buffer.add_char b ch;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && is_num c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  if tok = "" then fail c "expected number";
  if String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') tok then
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec go () =
        items := parse_value c :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          go ()
        | Some ']' -> c.pos <- c.pos + 1
        | _ -> fail c "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (k, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          go ()
        | Some '}' -> c.pos <- c.pos + 1
        | _ -> fail c "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

let validate s =
  match of_string s with
  | _ -> Ok ()
  | exception Parse_error msg -> Error msg

(* ----- accessors ----- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get key v ~of_ =
  match member key v with
  | Some x -> of_ x
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" key))

let to_int = function
  | Int i -> i
  | Float f when Float.is_integer f -> int_of_float f
  | _ -> raise (Parse_error "expected int")

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> raise (Parse_error "expected number")

let to_string_v = function
  | String s -> s
  | _ -> raise (Parse_error "expected string")

let to_bool = function
  | Bool b -> b
  | _ -> raise (Parse_error "expected bool")

let to_list = function
  | List l -> l
  | _ -> raise (Parse_error "expected array")
