type config = { width : int; slack : int }

let default = { width = 1; slack = 0 }
let make ?(config = default) ?(scale = 1) () = scale * (config.width + config.slack)
let used x = x + 1
let only_tested x = x * 2
let debug = string_of_int
