type space = Private | Public

type global = { pid : int; space : space; offset : int }

type region = { base : global; len : int }

let global ~pid ~space ~offset =
  if pid < 0 then invalid_arg "Addr.global: negative pid";
  if offset < 0 then invalid_arg "Addr.global: negative offset";
  { pid; space; offset }

let region ~pid ~space ~offset ~len =
  if len < 1 then invalid_arg "Addr.region: empty region";
  { base = global ~pid ~space ~offset; len }

let region_of_global base ~len =
  if len < 1 then invalid_arg "Addr.region_of_global: empty region";
  { base; len }

let last_offset r = r.base.offset + r.len - 1

let overlap a b =
  a.base.pid = b.base.pid && a.base.space = b.base.space
  && a.base.offset <= last_offset b
  && b.base.offset <= last_offset a

let is_public r = r.base.space = Public

let space_name = function Private -> "priv" | Public -> "pub"

let pp_global ppf g =
  Format.fprintf ppf "P%d.%s[%d]" g.pid (space_name g.space) g.offset

let pp_region ppf r =
  if r.len = 1 then pp_global ppf r.base
  else
    Format.fprintf ppf "P%d.%s[%d..%d]" r.base.pid (space_name r.base.space)
      r.base.offset (last_offset r)

let to_string r = Format.asprintf "%a" pp_region r
