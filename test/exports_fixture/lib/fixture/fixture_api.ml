let used x = x
let test_only x = x + 1
let knob ?(depth = 0) () = depth
let mixed ?(cap = 0) () = cap
let limited ?(limit = 0) () = limit
