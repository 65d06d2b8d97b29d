module W = Callers_fixture.Widget

let () =
  let c = { W.default with slack = 1 } in
  print_string (W.debug (W.make ~config:c ~scale:2 () + W.only_tested 1))
