let clamp ~cap x = min cap x

let () =
  print_int (Fixture_api.used 1);
  print_int (Fixture_api.knob ());
  print_int (Fixture_api.mixed ());
  print_int (clamp ~cap:3 4);
  print_int (Fixture_api.limited ~limit:2 ())
