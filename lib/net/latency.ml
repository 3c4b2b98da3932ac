type t =
  | Constant of float
  | Linear of { base : float; per_word : float }
  | Logp of { latency : float; overhead : float; gap_per_word : float }
  | Jittered of { model : t; mean_jitter : float }

let infiniband_like =
  Logp { latency = 1.5; overhead = 0.4; gap_per_word = 0.0025 }

let ethernet_like = Logp { latency = 25.0; overhead = 3.0; gap_per_word = 0.08 }

let min_delay = 1e-6

let rec delay model rng ~words =
  if words < 0 then invalid_arg "Latency.delay: negative size";
  let d =
    match model with
    | Constant c -> c
    | Linear { base; per_word } -> base +. (float_of_int words *. per_word)
    | Logp { latency; overhead; gap_per_word } ->
        latency +. (2. *. overhead) +. (float_of_int words *. gap_per_word)
    | Jittered { model; mean_jitter } ->
        delay model rng ~words
        +. Dsm_sim.Prng.exponential rng ~mean:mean_jitter
  in
  max d min_delay

let rec to_string = function
  | Constant c -> Printf.sprintf "constant:%g" c
  | Linear { base; per_word } -> Printf.sprintf "linear:%g:%g" base per_word
  | Logp { latency; overhead; gap_per_word } ->
      Printf.sprintf "logp:%g:%g:%g" latency overhead gap_per_word
  | Jittered { model; mean_jitter } ->
      Printf.sprintf "jitter:%g:%s" mean_jitter (to_string model)

let of_string s =
  let ( let* ) = Result.bind in
  let num what v =
    match float_of_string_opt v with
    | Some x when Float.is_finite x && x >= 0. -> Ok x
    | _ ->
        Error
          (Printf.sprintf "latency model: %s must be a non-negative number, \
                           got %S" what v)
  in
  let split1 s =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  let rec parse s =
    let kind, rest = split1 s in
    match (kind, rest) with
    | ("infiniband" | "ib"), None -> Ok infiniband_like
    | "ethernet", None -> Ok ethernet_like
    | "constant", Some v ->
        let* c = num "constant delay" v in
        Ok (Constant c)
    | "linear", Some v -> (
        match String.split_on_char ':' v with
        | [ b; p ] ->
            let* base = num "base" b in
            let* per_word = num "per-word gap" p in
            Ok (Linear { base; per_word })
        | _ -> Error "latency model: expected linear:BASE:PER_WORD")
    | "logp", Some v -> (
        match String.split_on_char ':' v with
        | [ l; o; g ] ->
            let* latency = num "wire latency" l in
            let* overhead = num "overhead" o in
            let* gap_per_word = num "per-word gap" g in
            Ok (Logp { latency; overhead; gap_per_word })
        | _ -> Error "latency model: expected logp:L:O:G")
    | "jitter", Some v -> (
        let mean_s, inner = split1 v in
        match inner with
        | None -> Error "latency model: expected jitter:MEAN:MODEL"
        | Some inner ->
            let* mean_jitter = num "jitter mean" mean_s in
            let* model = parse inner in
            Ok (Jittered { model; mean_jitter }))
    | _ ->
        Error
          (Printf.sprintf
             "latency model: unknown %S (try infiniband, ethernet, \
              constant:C, linear:BASE:PER_WORD, logp:L:O:G, or \
              jitter:MEAN:MODEL)" s)
  in
  parse (String.trim s)
