(** Summary statistics for experiment measurements. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1), 0 for n <= 1 *)
  min : float;
  max : float;
}

val of_list : float list -> t
(** Raises [Invalid_argument] on an empty list. *)

val percentile : float array -> p:float -> float
(** [percentile xs ~p] with [p] in [0..100], linear interpolation between
    order statistics. Does not modify [xs]. Raises [Invalid_argument] on
    an empty array or [p] outside the range. *)
