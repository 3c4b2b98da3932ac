(* The types of [Run]: what a command asks of a run and what the run
   returns. Types only, so [Run]'s interface includes them rather than
   restating them; [Run] documents the entry point. *)

type error =
  | Usage of string
      (** bad input: a flag out of its range, an unreadable program, a
          process count that does not fit, an unwritable output file *)
  | Fault of { file : string; proc : string; msg : string }
      (** the program faulted at run time ({!Dsm_lang.Exec.Runtime_error}) *)

(** {2 One-shot runs} *)

type workload = Random | Master_worker | Stencil | Pipeline | Locked_counter

type metrics_out = No_metrics | Print_metrics | Metrics_file of string

type program =
  | Workload of {
      which : workload;
      ops : int;  (** ops per process, tasks, batches or iterations *)
      racy : bool;  (** the racy master-worker variant *)
      coherence : bool;  (** attach the coherence checker *)
      seed : int;
      trace_dot : string option;
      trace_csv : string option;
      signals_csv : string option;
    }
  | Scale of {
      rounds : int;
      chunk : int;
      racy : bool;
      batched : bool;
      seed : int;
    }
  | Source of { path : string; instrument : bool }  (** a [.dsm] file *)
  | Figure of string  (** one of {!Dsm_experiments.Figures.figure_names} *)

type one_shot = {
  program : program;
  n : int;  (** figures run on at least their minimum regardless *)
  model : Dsm_rdma.Model.t;
  detect : bool;
  verbose : bool;
  explain : bool;  (** keep a flight recorder and explain every signal *)
  race_report : string option;  (** the explanations as a JSON file *)
  trace_out : string option;  (** a Perfetto timeline of the run *)
  metrics : metrics_out;
}

type ran = {
  machine : Dsm_rdma.Machine.t;
  detector : Dsm_core.Detector.t option;
  coherence : Dsm_rdma.Coherence.t option;
  program : (Dsm_lang.Ir.program * Dsm_lang.Exec.runtime) option;
  wall : float;  (** seconds the run took *)
  completed : bool;
  explanations : Dsm_obs.Explain.t list option;
      (** [Some] exactly when [explain] or [race_report] asked for them *)
  registry : Dsm_obs.Metrics.t option;
  trace : (string * Dsm_obs.Trace_json.stats) option;
      (** the timeline written, as the validator read it back *)
}

(** {2 Explored runs} *)

type explore = {
  spec : Dsm_explore.Token.spec;
  model : Dsm_rdma.Model.t option;
      (** [--model] as given: a replayed token minted under another model
          is refused unless [force] *)
  runs : int;
  depth : int option;
  jobs : int;
  chunk : int;
  dpor : bool;
  diff_models : string option;
  force : bool;
  replay : string option;
  no_minimize : bool;
  metrics : bool;
  expect_races : bool option;
  trace_out_violation : string option;
  explain : bool;
  race_report : string option;
}

type explanation = string * (string * Dsm_obs.Trace_json.stats) option
(** A token's explanation text and the trace written beside it. *)

type explored =
  | Replayed of {
      token : Dsm_explore.Token.t;
      result : Dsm_explore.Explore.run_result;
      arrows : Dsm_trace.Spacetime.arrow list;
      marks : Dsm_trace.Spacetime.mark list;  (** one per race signal *)
      explained : explanation option;
    }
  | Compared of {
      models : Dsm_rdma.Model.t * Dsm_rdma.Model.t;
      outcome : Dsm_explore.Diff.outcome;
      explained : explanation option;  (** of the side that raced *)
    }
  | Searched of {
      runs : int;
      violated : int;
      pruned : int option;  (** [Some] under [dpor] *)
      found :
        (Dsm_explore.Explore.run_result
        * Dsm_explore.Token.t
        * explanation option)
        option;
          (** the first violating run, its token (minimized unless
              [no_minimize]) and its explanation *)
      metrics : Dsm_obs.Metrics.t option;  (** [Some] when [metrics] *)
      races : (int * bool) option;
          (** the race count and [expect_races], after a clean search *)
    }

type _ spec =
  | One_shot : one_shot -> ran spec
  | Explore : explore -> explored spec
