(** Producer/consumer pipeline over a flag-published buffer.

    The producer writes a batch of data into the consumer's public buffer
    and then raises a flag word; the consumer polls the flag with
    one-sided gets and reads the data once it sees it raised. This is the
    idiomatic (and subtly dangerous) DSM hand-off: the {e flag} accesses
    race — the poll is an unsynchronized read of a concurrently written
    word — while the {e data} accesses are ordered {e through} the flag
    (the paper's clocks carry the producer's history into the consumer
    when the raised flag is read).

    The detector therefore signals on the flag word only, pointing the
    developer exactly at the hand-off to fix (e.g. with an atomic flag):
    the signature of this workload measured in the test suite. *)

type params = {
  batches : int;
  batch_words : int;
  poll_interval : float;
  seed : int;
}

val default : params

val setup : Dsm_pgas.Env.t -> params -> unit
(** Node 0 produces, node 1 consumes (needs exactly >= 2 nodes; others
    idle). The caller runs the machine. Word [i] of batch [b] (both from
    0) carries [100 (b + 1) + i + seed]; at the end the consumer puts
    the sum of every word it read into node 1's ["pipe.checksum"]. *)
