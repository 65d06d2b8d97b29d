type t = { nvars : int; bits : Bytes.t }

let max_vars = 20

let check nvars =
  if nvars < 0 || nvars > max_vars then invalid_arg "Truthtable: unsupported variable count"

let create nvars f =
  check nvars;
  let size = 1 lsl nvars in
  let bits = Bytes.make size '\000' in
  for m = 0 to size - 1 do
    if f m then Bytes.unsafe_set bits m '\001'
  done;
  { nvars; bits }

let nvars t = t.nvars
let eval t m = Bytes.get t.bits m <> '\000'

let minterms t =
  let out = ref [] in
  for m = Bytes.length t.bits - 1 downto 0 do
    if eval t m then out := m :: !out
  done;
  !out

let count_ones t =
  let acc = ref 0 in
  for m = 0 to Bytes.length t.bits - 1 do
    if eval t m then incr acc
  done;
  !acc

let complement t = create t.nvars (fun m -> not (eval t m))

let dual t =
  let all = (1 lsl t.nvars) - 1 in
  create t.nvars (fun m -> not (eval t (m lxor all)))

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let xor_n nvars = create nvars (fun m -> popcount m land 1 = 1)

let majority_n nvars =
  if nvars land 1 = 0 then invalid_arg "Truthtable.majority_n: even input count";
  create nvars (fun m -> popcount m > nvars / 2)
