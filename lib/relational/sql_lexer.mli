(** Hand-written lexer for the SQL subset.

    Keywords are case-insensitive. String literals use single quotes with
    [''] as the escape for a quote. [DATE 'yyyy-mm-dd'] produces a date
    literal; bare [yyyy-mm-dd] inside quotes is {e not} special (it stays a
    string), matching common SQL practice. *)

exception Error of string
(** The SQL front-end's one exception: {!Sql_parser} and {!Sql} raise it
    too. A lexical error's message names its 0-based byte offset:
    ["lexical error at offset 33: ..."]. *)

val tokenize : string -> Sql_token.t list
(** The token stream, always terminated by [Eof].
    @raise Error on malformed input, including an integer literal outside
    [int]'s range. *)
