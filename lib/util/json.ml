type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

let int n = Num (float_of_int n)

(* 2^53: up to it a float holds every integer exactly; far beyond it
   [int_of_float] wraps or returns 0. *)
let max_exact = 9007199254740992.0

(* -- printing ---------------------------------------------------------------- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let quote s =
  let b = Buffer.create (String.length s + 8) in
  add_string b s;
  Buffer.contents b

(* Integral values up to 2^53 print as integers; other finite values
   in the shortest %g form that reads back as the same float. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f <= max_exact then
    string_of_int (int_of_float f)
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec add_compact b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num f -> Buffer.add_string b (number f)
  | Str s -> add_string b s
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        add_compact b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_string b k;
        Buffer.add_char b ':';
        add_compact b v)
      kvs;
    Buffer.add_char b '}'

let compact v =
  let b = Buffer.create 256 in
  add_compact b v;
  Buffer.contents b

(* Pretty layout, for committed files that should diff row by row: a
   container stays on one line when it holds no container or its
   compact form fits in [width] columns; otherwise each element goes
   on its own indented line. *)
let width = 100

let rec add_pretty b indent v =
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let flat = compact v in
  let too_wide = indent + String.length flat > width in
  let block opening closing items add_item =
    Buffer.add_char b opening;
    List.iteri
      (fun i item ->
        Buffer.add_string b (if i > 0 then ",\n" else "\n");
        Buffer.add_string b (String.make (indent + 2) ' ');
        add_item item)
      items;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_char b closing
  in
  match v with
  | Arr vs when too_wide && not (List.for_all scalar vs) ->
    block '[' ']' vs (add_pretty b (indent + 2))
  | Obj kvs when too_wide && not (List.for_all (fun (_, v) -> scalar v) kvs) ->
    block '{' '}' kvs (fun (k, v) ->
        add_string b k;
        Buffer.add_string b ": ";
        add_pretty b (indent + 2) v)
  | _ -> Buffer.add_string b flat

let to_string ?(pretty = false) v =
  if pretty then begin
    let b = Buffer.create 1024 in
    add_pretty b 0 v;
    Buffer.add_char b '\n';
    Buffer.contents b
  end
  else compact v

(* -- parsing ---------------------------------------------------------------- *)

exception Bad of string

(* Far deeper than any document this repo reads or writes; it bounds
   the parser's recursion on untrusted request lines. *)
let max_depth = 512

let parse (s : string) : (value, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for k = 0 to 3 do
      v := (!v lsl 4) lor digit s.[!pos + k]
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'; advance ()
         | Some '\\' -> Buffer.add_char b '\\'; advance ()
         | Some '/' -> Buffer.add_char b '/'; advance ()
         | Some 'n' -> Buffer.add_char b '\n'; advance ()
         | Some 'r' -> Buffer.add_char b '\r'; advance ()
         | Some 't' -> Buffer.add_char b '\t'; advance ()
         | Some 'b' -> Buffer.add_char b '\b'; advance ()
         | Some 'f' -> Buffer.add_char b '\012'; advance ()
         | Some 'u' ->
           advance ();
           let cp = hex4 () in
           (* Trusted-producer escape handling: BMP code points are
              re-encoded as UTF-8; surrogate pairs are not decoded
              (protocol strings are config text and identifiers). *)
           if cp < 0x80 then Buffer.add_char b (Char.chr cp)
           else if cp < 0x800 then begin
             Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
             Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
           end
           else begin
             Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
             Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
             Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
           end
         | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when numchar c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value depth =
    skip_ws ();
    let open_container () =
      if depth >= max_depth then fail "nesting too deep";
      advance ()
    in
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      open_container ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      open_container ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let get_string = function Str s -> Some s | _ -> None
let get_int = function
  | Num f when Float.is_integer f && Float.abs f <= max_exact -> Some (int_of_float f)
  | _ -> None
let get_float = function Num f -> Some f | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_list = function Arr vs -> Some vs | _ -> None

let string_list v =
  match v with
  | Arr vs ->
    List.fold_right
      (fun v acc ->
        match (get_string v, acc) with Some s, Some tl -> Some (s :: tl) | _ -> None)
      vs (Some [])
  | _ -> None
