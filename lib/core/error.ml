(* The implementation and its one interface live in [lib/error] so layers
   below core (the fault plane) can raise the same structured exception;
   this module is the public face and adds nothing. *)
include P2perror
