(* Recursive-descent parser for the surface language.

   The concrete syntax mirrors the paper's informal notation:

     def diag (n: i64, a: [n*n]f64): [n*n]f64 =
       let x = map (i < n) { a[i*n + i] + a[i] } in
       let a2 = a with [0; (n : n + 1)] = x in    -- LMAD slice update
       a2

   A loop may carry several accumulators, [loop (x = e1, y = e2) for i < n
   do { ... (x', y') }], whose results a tuple [let (x, y) = ...] binds.

   Slices come in the two forms of section III-B:
   - triplet, one component per dimension: [start : count : stride, ...]
     (a bare expression fixes the dimension);
   - LMAD, over the flat index space: [offset; (n1 : s1), ..., (nq : sq)].
*)

open Lexer

type sexpr =
  | SVar of string
  | SInt of int
  | SFloat of float
  | SBool of bool
  | SBin of string * sexpr * sexpr
  | SUn of string * sexpr
  | SCall of string * sexpr list
  | SIndex of sexpr * sslice
      (* a[...]: a fully-fixed triplet is an element read, anything else
         (ranges, LMAD form) is an O(1) slice *)
  | SLet of string * sexpr * sexpr
  | SLetTuple of string list * sexpr * sexpr (* let (x, y) = loop ... *)
  | SMap of (string * sexpr) list * sexpr
  | SLoop of {
      accs : (string * sexpr) list; (* accumulators and their initial values *)
      var : string;
      bound : sexpr;
      body : sexpr;
    }
  | SIf of sexpr * sexpr * sexpr
  | SWith of sexpr * sslice * sexpr (* a with [slice] = e *)
  | STuple of sexpr list (* (e1, e2, ...): a loop body's results *)

and sdim =
  | DFix of sexpr
  | DRange of sexpr * sexpr * sexpr option (* start : count (: stride) *)

and sslice = Striplet of sdim list | Slmad of sexpr * (sexpr * sexpr) list

type stype =
  | TyI64
  | TyF64
  | TyBool
  | TyArr of sexpr list * stype (* dims, element type *)

type sprog = {
  pname : string;
  pparams : (string * stype) list;
  pret : stype;
  pbody : sexpr;
}

exception Parse_error of string * int

(* ---------------------------------------------------------------- *)
(* Token-stream state                                                *)
(* ---------------------------------------------------------------- *)

type state = { mutable toks : (token * int) list }

let peek st = match st.toks with (t, _) :: _ -> t | [] -> EOF
let pos st = match st.toks with (_, p) :: _ -> p | [] -> -1

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st t =
  if peek st = t then advance st
  else
    raise
      (Parse_error
         ( Printf.sprintf "expected %s but found %s" (token_name t)
             (token_name (peek st)),
           pos st ))

let ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | t ->
      raise
        (Parse_error
           (Printf.sprintf "expected an identifier, found %s" (token_name t), pos st))

(* One or more [item]s separated by commas. *)
let comma_list st item =
  let rec go acc =
    let x = item st in
    if peek st = COMMA then begin
      advance st;
      go (x :: acc)
    end
    else List.rev (x :: acc)
  in
  go []

(* ---------------------------------------------------------------- *)
(* Types                                                             *)
(* ---------------------------------------------------------------- *)

let rec parse_type st =
  match peek st with
  | I64 ->
      advance st;
      TyI64
  | F64 ->
      advance st;
      TyF64
  | BOOL ->
      advance st;
      TyBool
  | LBRACKET ->
      let rec dims acc =
        if peek st = LBRACKET then begin
          advance st;
          let d = parse_expr st in
          expect st RBRACKET;
          dims (d :: acc)
        end
        else List.rev acc
      in
      let ds = dims [] in
      let elt = parse_type st in
      (match elt with
      | TyArr _ ->
          raise (Parse_error ("nested array type syntax", pos st))
      | _ -> ());
      TyArr (ds, elt)
  | t ->
      raise
        (Parse_error
           (Printf.sprintf "expected a type, found %s" (token_name t), pos st))

(* ---------------------------------------------------------------- *)
(* Expressions (precedence climbing)                                 *)
(* ---------------------------------------------------------------- *)

and parse_expr st : sexpr =
  match peek st with
  | LET ->
      advance st;
      let tuple = peek st = LPAREN in
      if tuple then advance st;
      let names = if tuple then comma_list st ident else [ ident st ] in
      if tuple then expect st RPAREN;
      expect st EQ;
      let rhs = parse_expr st in
      expect st IN;
      let body = parse_expr st in
      (match names with
      | [ name ] when not tuple -> SLet (name, rhs, body)
      | names -> SLetTuple (names, rhs, body))
  | IF ->
      advance st;
      let c = parse_expr st in
      expect st THEN;
      let t = parse_expr st in
      expect st ELSE;
      let e = parse_expr st in
      SIf (c, t, e)
  | MAP ->
      advance st;
      expect st LPAREN;
      let rec nest acc =
        let v = ident st in
        expect st LT;
        let bound = parse_expr st in
        if peek st = COMMA then begin
          advance st;
          nest ((v, bound) :: acc)
        end
        else List.rev ((v, bound) :: acc)
      in
      let ns = nest [] in
      expect st RPAREN;
      expect st LBRACE;
      let body = parse_expr st in
      expect st RBRACE;
      SMap (ns, body)
  | LOOP ->
      advance st;
      expect st LPAREN;
      let accs =
        comma_list st (fun st ->
            let acc = ident st in
            expect st EQ;
            (acc, parse_expr st))
      in
      expect st RPAREN;
      expect st FOR;
      let var = ident st in
      expect st LT;
      let bound = parse_expr st in
      expect st DO;
      expect st LBRACE;
      let body = parse_expr st in
      expect st RBRACE;
      SLoop { accs; var; bound; body }
  | _ -> parse_with st

(* a with [slice] = e *)
and parse_with st =
  let lhs = parse_or st in
  if peek st = WITH then begin
    advance st;
    expect st LBRACKET;
    let slc = parse_slice st in
    expect st RBRACKET;
    expect st EQ;
    let rhs = parse_expr st in
    SWith (lhs, slc, rhs)
  end
  else lhs

and parse_or st =
  let rec go acc =
    if peek st = OROR then begin
      advance st;
      go (SBin ("||", acc, parse_and st))
    end
    else acc
  in
  go (parse_and st)

and parse_and st =
  let rec go acc =
    if peek st = ANDAND then begin
      advance st;
      go (SBin ("&&", acc, parse_cmp st))
    end
    else acc
  in
  go (parse_cmp st)

and parse_cmp st =
  let lhs = parse_add st in
  match peek st with
  | EQEQ ->
      advance st;
      SBin ("==", lhs, parse_add st)
  | LT ->
      advance st;
      SBin ("<", lhs, parse_add st)
  | LE ->
      advance st;
      SBin ("<=", lhs, parse_add st)
  | _ -> lhs

and parse_add st =
  let rec go acc =
    match peek st with
    | PLUS ->
        advance st;
        go (SBin ("+", acc, parse_mul st))
    | MINUS ->
        advance st;
        go (SBin ("-", acc, parse_mul st))
    | _ -> acc
  in
  go (parse_mul st)

and parse_mul st =
  let rec go acc =
    match peek st with
    | STAR ->
        advance st;
        go (SBin ("*", acc, parse_unary st))
    | SLASH ->
        advance st;
        go (SBin ("/", acc, parse_unary st))
    | PERCENT ->
        advance st;
        go (SBin ("%", acc, parse_unary st))
    | _ -> acc
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | MINUS ->
      advance st;
      SUn ("-", parse_unary st)
  | BANG ->
      advance st;
      SUn ("!", parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec go acc =
    if peek st = LBRACKET then begin
      advance st;
      let slc = parse_slice st in
      expect st RBRACKET;
      go (SIndex (acc, slc))
    end
    else acc
  in
  go (parse_atom st)

and parse_dim st =
  let e = parse_add st in
  if peek st = COLON then begin
    advance st;
    let count = parse_add st in
    if peek st = COLON then begin
      advance st;
      let stride = parse_add st in
      DRange (e, count, Some stride)
    end
    else DRange (e, count, None)
  end
  else DFix e

(* slice := LMAD ( off ; (n : s), ... ) or triplet dims *)
and parse_slice st =
  let first = parse_add st in
  if peek st = SEMI then begin
    advance st;
    let rec dims acc =
      expect st LPAREN;
      let n = parse_add st in
      expect st COLON;
      let s = parse_add st in
      expect st RPAREN;
      if peek st = COMMA then begin
        advance st;
        dims ((n, s) :: acc)
      end
      else List.rev ((n, s) :: acc)
    in
    Slmad (first, dims [])
  end
  else if peek st = COLON then begin
    advance st;
    let count = parse_add st in
    let stride =
      if peek st = COLON then begin
        advance st;
        Some (parse_add st)
      end
      else None
    in
    let rec rest acc =
      if peek st = COMMA then begin
        advance st;
        rest (parse_dim st :: acc)
      end
      else List.rev acc
    in
    Striplet (DRange (first, count, stride) :: rest [])
  end
  else begin
    (* a list of fixed/sliced dimensions starting with a fix *)
    let rec rest acc =
      if peek st = COMMA then begin
        advance st;
        rest (parse_dim st :: acc)
      end
      else List.rev acc
    in
    Striplet (DFix first :: rest [])
  end

and parse_atom st =
  match peek st with
  | INT i ->
      advance st;
      SInt i
  | FLOAT f ->
      advance st;
      SFloat f
  | TRUE ->
      advance st;
      SBool true
  | FALSE ->
      advance st;
      SBool false
  | F64 ->
      (* f64(e): conversion *)
      advance st;
      expect st LPAREN;
      let e = parse_expr st in
      expect st RPAREN;
      SUn ("f64", e)
  | I64 ->
      advance st;
      expect st LPAREN;
      let e = parse_expr st in
      expect st RPAREN;
      SUn ("i64", e)
  | IDENT name ->
      advance st;
      if peek st = LPAREN then begin
        advance st;
        let rec args acc =
          if peek st = RPAREN then List.rev acc
          else
            let a = parse_expr st in
            if peek st = COMMA then begin
              advance st;
              args (a :: acc)
            end
            else List.rev (a :: acc)
        in
        let a = args [] in
        expect st RPAREN;
        SCall (name, a)
      end
      else SVar name
  | LPAREN -> (
      advance st;
      match comma_list st parse_expr with
      | [ e ] ->
          expect st RPAREN;
          e
      | es ->
          expect st RPAREN;
          STuple es)
  | t ->
      raise
        (Parse_error
           (Printf.sprintf "unexpected %s in expression" (token_name t), pos st))

(* ---------------------------------------------------------------- *)
(* Programs                                                          *)
(* ---------------------------------------------------------------- *)

let parse_program st : sprog =
  expect st DEF;
  let pname = ident st in
  expect st LPAREN;
  let rec params acc =
    if peek st = RPAREN then List.rev acc
    else
      let v = ident st in
      expect st COLON;
      let t = parse_type st in
      if peek st = COMMA then begin
        advance st;
        params ((v, t) :: acc)
      end
      else List.rev ((v, t) :: acc)
  in
  let pparams = params [] in
  expect st RPAREN;
  expect st COLON;
  let pret = parse_type st in
  expect st EQ;
  let pbody = parse_expr st in
  expect st EOF;
  { pname; pparams; pret; pbody }

let parse (src : string) : sprog =
  parse_program { toks = tokenize src }
