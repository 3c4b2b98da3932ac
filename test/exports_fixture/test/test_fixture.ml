let () =
  assert (Fixture_api.test_only 1 = 2);
  assert (Fixture_api.knob ~depth:3 () = 3);
  assert (Fixture_api.used 0 = 0)
