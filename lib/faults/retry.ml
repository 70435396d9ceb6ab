type policy = { max_attempts : int }

let none = { max_attempts = 1 }
let default = { max_attempts = 4 }

(* Validation speaks the structured error type of the public surface
   ([P2prange.Error] re-exports it), with the offending field in the
   context — same convention as [Config.validate]. *)
let validate p =
  if p.max_attempts < 1 then
    P2perror.raise_error
      ~context:
        [ ("field", "retry.max_attempts");
          ("value", string_of_int p.max_attempts) ]
      P2perror.Invalid_config "Retry: max_attempts must be >= 1"
