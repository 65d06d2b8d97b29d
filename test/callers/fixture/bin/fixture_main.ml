module W = Callers_fixture.Widget

let () = print_int (W.make ~config:{ W.default with width = 3 } () + W.used 1)
