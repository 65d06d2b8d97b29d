(* SPICE value syntax: a float literal optionally followed by an
   engineering suffix and then arbitrary trailing unit letters ("10pF",
   "2ns").  The scale is decided by the FIRST letters after the number:
   "meg" is 1e6, "mil" is 25.4e-6, any other leading letter is looked up
   in the single-letter table ("m" is 1e-3 -- the classic m-vs-meg trap)
   and unknown letters mean scale 1 (a bare unit like "10V").  We scan
   the float prefix by hand rather than trusting [float_of_string] so
   that "nan", "inf" and hex literals are rejected. *)
let parse_spice s =
  let s = String.trim s in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  if n = 0 then None
  else begin
    let i = ref 0 in
    if !i < n && (s.[!i] = '+' || s.[!i] = '-') then incr i;
    let int_start = !i in
    while !i < n && is_digit s.[!i] do incr i done;
    let int_digits = !i - int_start in
    let frac_digits = ref 0 in
    if !i < n && s.[!i] = '.' then begin
      incr i;
      let fs = !i in
      while !i < n && is_digit s.[!i] do incr i done;
      frac_digits := !i - fs
    end;
    if int_digits = 0 && !frac_digits = 0 then None
    else begin
      (* Optional exponent; only consumed when a digit actually follows,
         so "2n" keeps its 'n' for the suffix pass. *)
      let before_exp = !i in
      (if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
         let j = ref (!i + 1) in
         if !j < n && (s.[!j] = '+' || s.[!j] = '-') then incr j;
         let ds = !j in
         while !j < n && is_digit s.[!j] do incr j done;
         if !j > ds then i := !j else i := before_exp
       end);
      match float_of_string_opt (String.sub s 0 !i) with
      | None -> None
      | Some v ->
        let rest = String.lowercase_ascii (String.sub s !i (n - !i)) in
        let all_letters = String.for_all (fun c -> c >= 'a' && c <= 'z') rest in
        if rest = "" then if Float.is_finite v then Some v else None
        else if not all_letters then None
        else begin
          let starts p =
            String.length rest >= String.length p
            && String.sub rest 0 (String.length p) = p
          in
          let scale =
            if starts "meg" then 1e6
            else if starts "mil" then 25.4e-6
            else
              match rest.[0] with
              | 'f' -> 1e-15 | 'p' -> 1e-12 | 'n' -> 1e-9 | 'u' -> 1e-6
              | 'm' -> 1e-3  | 'k' -> 1e3   | 'g' -> 1e9  | 't' -> 1e12
              | _ -> 1.0
          in
          let r = v *. scale in
          if Float.is_finite r then Some r else None
        end
    end
  end

let print_spice x =
  if not (Float.is_finite x) then Printf.sprintf "%.17g" x
  else if x = 0.0 && 1.0 /. x > 0.0 then "0"
  else begin
    let bits = Int64.bits_of_float x in
    let exact s =
      match parse_spice s with
      | Some y -> Int64.equal (Int64.bits_of_float y) bits
      | None -> false
    in
    (* Candidates in preference order: plain decimal first, then suffixed
       forms from the largest scale down.  Each is kept only if it
       reparses to the identical bit pattern; a strictly shorter later
       candidate beats an earlier one, ties keep the earlier, so the
       result is deterministic.  A candidate no shorter than the best so
       far could not win, so it is not reparsed. *)
    let best = ref None in
    let consider s =
      match !best with
      | Some b when String.length b <= String.length s -> ()
      | _ -> if exact s then best := Some s
    in
    let shortest_for prefix_v suffix =
      (* Rendering length is not monotone in precision ("%.1g" of
         9.999999999999998 is "1e+01", "%.2g" is "10"), so every
         precision competes and [consider] keeps the shortest. *)
      for p = 1 to 17 do
        consider (Printf.sprintf "%.*g%s" p prefix_v suffix)
      done
    in
    shortest_for x "";
    List.iter
      (fun (suffix, scale) ->
        let v = x /. scale in
        if Float.is_finite v && v <> 0.0 then shortest_for v suffix)
      [ ("t", 1e12); ("g", 1e9); ("meg", 1e6); ("k", 1e3); ("m", 1e-3);
        ("u", 1e-6); ("n", 1e-9); ("p", 1e-12); ("f", 1e-15) ];
    match !best with
    | Some s -> s
    | None -> Printf.sprintf "%.17g" x
  end
