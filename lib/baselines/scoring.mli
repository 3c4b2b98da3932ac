(** Scoring detector verdicts against ground truth.

    All comparisons happen at {e word} level — (owner node, public word
    offset) — the finest unit every method can name: the offline
    happens-before checker yields racy word sets, the lockset baseline
    yields violated words, and the online detector's flagged granules
    expand to their words. *)

type words = (int * int) list
(** Sorted, duplicate-free (node, offset) lists. *)

type confusion = {
  true_pos : int;
  false_pos : int;
  false_neg : int;
  precision : float;  (** 1.0 when nothing is flagged *)
  recall : float;  (** 1.0 when nothing is racy *)
}

val ground_truth_words : Dsm_trace.Trace.t -> words
(** Words covered by the overlap of at least one ground-truth race pair. *)

val detector_words : Dsm_core.Report.t -> words
(** Words of the granules the online detector flagged. *)

val confusion : truth:words -> flagged:words -> confusion

val f1 : confusion -> float
