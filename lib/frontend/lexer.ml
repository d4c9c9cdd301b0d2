(* Lexer for the surface language (section II-C / III-B).

   The token set covers the informally specified language of the paper:
   lets, maps (mapnests), loops, ifs, slicing (triplet and LMAD forms),
   in-place updates with [with], and the usual scalar operators. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | DEF
  | LET
  | IN
  | IF
  | THEN
  | ELSE
  | LOOP
  | FOR
  | DO
  | MAP
  | WITH
  | TRUE
  | FALSE
  | I64
  | F64
  | BOOL
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | COMMA
  | COLON
  | SEMI
  | EQ
  | EQEQ
  | LT
  | LE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | ANDAND
  | OROR
  | BANG
  | ARROW
  | EOF

exception Lex_error of string * int (* message, position *)

let keyword = function
  | "def" -> DEF
  | "let" -> LET
  | "in" -> IN
  | "if" -> IF
  | "then" -> THEN
  | "else" -> ELSE
  | "loop" -> LOOP
  | "for" -> FOR
  | "do" -> DO
  | "map" -> MAP
  | "with" -> WITH
  | "true" -> TRUE
  | "false" -> FALSE
  | "i64" -> I64
  | "f64" -> F64
  | "bool" -> BOOL
  | "inf" -> FLOAT infinity
  | s -> IDENT s

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* Tokenize a whole string; comments run from "--" to end of line. *)
let tokenize (src : string) : (token * int) list =
  let n = String.length src in
  let toks = ref [] in
  let emit t pos = toks := (t, pos) :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do
        incr j
      done;
      if
        !j < n && src.[!j] = '.'
        && !j + 1 < n
        && is_digit src.[!j + 1]
      then begin
        incr j;
        while !j < n && is_digit src.[!j] do
          incr j
        done;
        emit (FLOAT (float_of_string (String.sub src !i (!j - !i)))) pos
      end
      else emit (INT (int_of_string (String.sub src !i (!j - !i)))) pos;
      i := !j
    end
    else if is_alpha c then begin
      let j = ref !i in
      while !j < n && (is_alpha src.[!j] || is_digit src.[!j]) do
        incr j
      done;
      emit (keyword (String.sub src !i (!j - !i))) pos;
      i := !j
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub src !i 2) else None
      in
      match two with
      | Some "==" ->
          emit EQEQ pos;
          i := !i + 2
      | Some "<=" ->
          emit LE pos;
          i := !i + 2
      | Some "&&" ->
          emit ANDAND pos;
          i := !i + 2
      | Some "||" ->
          emit OROR pos;
          i := !i + 2
      | Some "->" ->
          emit ARROW pos;
          i := !i + 2
      | _ -> (
          (match c with
          | '(' -> emit LPAREN pos
          | ')' -> emit RPAREN pos
          | '[' -> emit LBRACKET pos
          | ']' -> emit RBRACKET pos
          | '{' -> emit LBRACE pos
          | '}' -> emit RBRACE pos
          | ',' -> emit COMMA pos
          | ':' -> emit COLON pos
          | ';' -> emit SEMI pos
          | '=' -> emit EQ pos
          | '<' -> emit LT pos
          | '+' -> emit PLUS pos
          | '-' -> emit MINUS pos
          | '*' -> emit STAR pos
          | '/' -> emit SLASH pos
          | '%' -> emit PERCENT pos
          | '!' -> emit BANG pos
          | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, pos)));
          incr i)
    end
  done;
  emit EOF n;
  List.rev !toks

let token_name = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | DEF -> "def"
  | LET -> "let"
  | IN -> "in"
  | IF -> "if"
  | THEN -> "then"
  | ELSE -> "else"
  | LOOP -> "loop"
  | FOR -> "for"
  | DO -> "do"
  | MAP -> "map"
  | WITH -> "with"
  | TRUE -> "true"
  | FALSE -> "false"
  | I64 -> "i64"
  | F64 -> "f64"
  | BOOL -> "bool"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | COMMA -> ","
  | COLON -> ":"
  | SEMI -> ";"
  | EQ -> "="
  | EQEQ -> "=="
  | LT -> "<"
  | LE -> "<="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | ANDAND -> "&&"
  | OROR -> "||"
  | BANG -> "!"
  | ARROW -> "->"
  | EOF -> "end of input"
