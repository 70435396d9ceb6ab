(* The answer log of one timed phase: what every query and publish
   returned, recorded into preallocated arrays so that logging adds no
   allocation to the phase. Everything computed from it — the answer
   digest, the deterministic metrics and the output checks — runs after
   the phase. *)

module Range = Rangeset.Range
module Query_result = P2prange.Query_result

type t = {
  mutable len : int;
  is_query : bool array;
  q_lo : int array;
  q_hi : int array;
  m_lo : int array; (* -1 when unmatched *)
  m_hi : int array;
  messages : int array;
  hop_sum : int array;
  hop_n : int array;
  recall : float array;
  similarity : float array;
  responders : int array;
  identifiers : int array;
  degraded : bool array;
  failed : bool array; (* the call raised *)
}

let create capacity =
  {
    len = 0;
    is_query = Array.make capacity false;
    q_lo = Array.make capacity 0;
    q_hi = Array.make capacity 0;
    m_lo = Array.make capacity (-1);
    m_hi = Array.make capacity (-1);
    messages = Array.make capacity 0;
    hop_sum = Array.make capacity 0;
    hop_n = Array.make capacity 0;
    recall = Array.make capacity 0.0;
    similarity = Array.make capacity 0.0;
    responders = Array.make capacity 0;
    identifiers = Array.make capacity 0;
    degraded = Array.make capacity false;
    failed = Array.make capacity false;
  }

let next t ~query range =
  let i = t.len in
  t.len <- i + 1;
  t.is_query.(i) <- query;
  t.q_lo.(i) <- Range.lo range;
  t.q_hi.(i) <- Range.hi range;
  i

let record_query t range (r : Query_result.t) =
  let i = next t ~query:true range in
  (match Query_result.matched_range r with
  | None -> ()
  | Some m ->
    t.m_lo.(i) <- Range.lo m;
    t.m_hi.(i) <- Range.hi m);
  let s = r.Query_result.stats in
  t.messages.(i) <- s.Query_result.messages;
  t.hop_sum.(i) <- List.fold_left ( + ) 0 s.Query_result.hops;
  t.hop_n.(i) <- List.length s.Query_result.hops;
  t.recall.(i) <- r.Query_result.recall;
  t.similarity.(i) <- r.Query_result.similarity;
  t.responders.(i) <- r.Query_result.responders;
  t.identifiers.(i) <- List.length s.Query_result.identifiers;
  t.degraded.(i) <- r.Query_result.degraded

let record_publish t range (s : Query_result.lookup_stats) =
  let i = next t ~query:false range in
  t.messages.(i) <- s.Query_result.messages;
  t.hop_sum.(i) <- List.fold_left ( + ) 0 s.Query_result.hops;
  t.hop_n.(i) <- List.length s.Query_result.hops;
  t.identifiers.(i) <- List.length s.Query_result.identifiers

let record_failure t ~query range =
  let i = next t ~query range in
  t.failed.(i) <- true

(* Digest of the answer stream: per answer its kind, matched range and
   message count. Two runs of one op stream agree on it exactly when
   they returned the same answers at the same cost. *)
let digest t =
  let b = Buffer.create (t.len * 16) in
  for i = 0 to t.len - 1 do
    if t.failed.(i) then Buffer.add_string b "x;"
    else if t.is_query.(i) then
      Printf.bprintf b "q%d,%d:%d;" t.m_lo.(i) t.m_hi.(i) t.messages.(i)
    else Printf.bprintf b "p:%d;" t.messages.(i)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

type summary = {
  attempted : int;  (** queries and publishes *)
  queries : int;  (** queries that returned *)
  failed : int;  (** calls that raised *)
  answered : int;  (** returned, and for queries not degraded *)
  msgs_per_query : float;
  hops_per_lookup : float;
  recall_mean : float;
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let summary t =
  let queries = ref 0 and failed = ref 0 and answered = ref 0 in
  let msgs = ref 0 and hops = ref 0 and lookups = ref 0 in
  let recall = ref 0.0 in
  for i = 0 to t.len - 1 do
    if t.failed.(i) then incr failed
    else begin
      if not (t.is_query.(i) && t.degraded.(i)) then incr answered;
      if t.is_query.(i) then begin
        incr queries;
        msgs := !msgs + t.messages.(i);
        hops := !hops + t.hop_sum.(i);
        lookups := !lookups + t.hop_n.(i);
        recall := !recall +. t.recall.(i)
      end
    end
  done;
  {
    attempted = t.len;
    queries = !queries;
    failed = !failed;
    answered = !answered;
    msgs_per_query = ratio !msgs !queries;
    hops_per_lookup = ratio !hops !lookups;
    recall_mean = (if !queries = 0 then 0.0 else !recall /. float_of_int !queries);
  }

(* Output checks, one line per failing answer (capped): every query's
   recall and similarity must equal what its matched range gives, and on
   a fault-free system every owner must answer. *)
let check t ~fault_free =
  let problems = ref [] and count = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr count;
        if !count <= 5 then problems := s :: !problems)
      fmt
  in
  let close a b = Float.abs (a -. b) <= 1e-12 in
  for i = 0 to t.len - 1 do
    if t.is_query.(i) && not t.failed.(i) then begin
      let q = Range.make ~lo:t.q_lo.(i) ~hi:t.q_hi.(i) in
      let recall, similarity =
        if t.m_lo.(i) < 0 then (0.0, 0.0)
        else
          let m = Range.make ~lo:t.m_lo.(i) ~hi:t.m_hi.(i) in
          (Range.containment ~query:q ~answer:m, Range.jaccard q m)
      in
      if not (close recall t.recall.(i) && close similarity t.similarity.(i))
      then
        fail "answer %d: recall %g similarity %g, expected %g %g" i
          t.recall.(i) t.similarity.(i) recall similarity;
      if fault_free && t.responders.(i) <> t.identifiers.(i) then
        fail "answer %d: %d responders for %d identifiers on a fault-free run"
          i t.responders.(i) t.identifiers.(i)
    end
  done;
  if !count > 5 then
    problems := Printf.sprintf "... %d failing answers in all" !count :: !problems;
  List.rev !problems
