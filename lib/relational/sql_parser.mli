(** Recursive-descent parser for the SQL subset.

    Grammar (keywords case-insensitive):

    {v
query     ::= SELECT cols FROM ident ("," ident)* [WHERE conj]
cols      ::= "*" | column ("," column)*
column    ::= ident ["." ident]
conj      ::= condition (AND condition)*
condition ::= operand op operand            -- comparison or equi-join
            | operand op operand op operand -- chained: 30 < age < 50
            | column BETWEEN literal AND literal
op        ::= "=" | "<" | ">" | "<=" | ">="
operand   ::= column | literal
literal   ::= integer | float | string | DATE 'yyyy-mm-dd'
    v}

    The chained comparison form (the paper writes [30 < age < 50]) is
    normalized into an inclusive BETWEEN; strict integer/date bounds are
    tightened by one ([30 < age] ⇒ [age >= 31]). *)

val parse : string -> Sql_ast.select
(** @raise Sql_lexer.Error on lexical and syntax errors. *)
