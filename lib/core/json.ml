(* One JSON value for every document the suite writes or reads.

   BENCH.json, the certificate documents, the chaos campaign record and
   the trace export are all built as [t] values and printed by
   [to_string]; the CI gates read them back with [parse].  The repo
   deliberately carries no JSON dependency, so both sides are
   hand-rolled: a compact printer with one escaper and one number rule,
   and a small recursive-descent reader covering the same subset -
   objects, arrays, strings with backslash escapes, numbers, booleans,
   null. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* ---------------------------------------------------------------- *)
(* Printer                                                           *)
(* ---------------------------------------------------------------- *)

(* An integral number prints exactly (byte counters stay exact); any
   other prints with %g.  JSON has no spelling for nan or infinity. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let to_string v =
  let b = Buffer.create 4096 in
  let str s =
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  in
  let seq o c f l =
    Buffer.add_char b o;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        f x)
      l;
    Buffer.add_char b c
  in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (number f)
    | Str s -> str s
    | Arr l -> seq '[' ']' go l
    | Obj kvs ->
        seq '{' '}'
          (fun (k, v) ->
            str k;
            Buffer.add_char b ':';
            go v)
          kvs
  in
  go v;
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Reader                                                            *)
(* ---------------------------------------------------------------- *)

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail fmt =
    Printf.ksprintf
      (fun m -> raise (Bad (Printf.sprintf "%s at offset %d" m !pos)))
      fmt
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail "expected %c" c
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char buf c
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'u' when !pos + 4 < n -> (
              match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some u ->
                  Buffer.add_utf_8_uchar buf
                    (if Uchar.is_valid u then Uchar.of_int u else Uchar.rep);
                  pos := !pos + 4
              | None -> fail "bad \\u escape")
          | _ -> fail "bad escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c -> num_char c | None -> false do
      advance ()
    done;
    if !pos = start then fail "expected number"
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos < n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  with Bad m -> Error m

(* ---------------------------------------------------------------- *)
(* Accessors                                                         *)
(* ---------------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let arr = function Arr l -> Some l | _ -> None
let num = function Num f -> Some f | _ -> None
let str = function Str s -> Some s | _ -> None

let num_at path v =
  let rec go v = function
    | [] -> num v
    | k :: rest -> Option.bind (member k v) (fun v -> go v rest)
  in
  go v path
