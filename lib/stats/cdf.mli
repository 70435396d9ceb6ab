(** Empirical cumulative distributions.

    The recall figures of the paper (Figs. 8–10) plot, for each recall level
    [x], the percentage of queries whose recall is [>= x] — a complementary
    CDF read right-to-left. This module computes both orientations from raw
    samples and evaluates them at arbitrary thresholds. *)

type t

val of_samples : float list -> t
(** @raise Invalid_argument on the empty list. *)

val count : t -> int

val fraction_at_most : t -> float -> float
(** [fraction_at_most t x] = |{s : s <= x}| / n — the classical CDF. *)

val fraction_at_least : t -> float -> float
(** [fraction_at_least t x] = |{s : s >= x}| / n — what the paper's recall
    plots show (as a percentage). *)

val percent_at_least : t -> float -> float
(** [fraction_at_least] × 100. *)

val series : t -> thresholds:float list -> (float * float) list
(** [(x, percent_at_least x)] for each threshold, in the given order. *)
