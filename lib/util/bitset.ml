(* Growable bitset; absent bits read as false, so a set that never sees a
   [set] costs one word regardless of the index space (the common case for
   null bitmaps over non-null columns). *)

type t = { mutable words : int array; mutable any : bool }

let bits_per_word = Sys.int_size

let create () = { words = Array.make 1 0; any = false }

let ensure t w =
  if w >= Array.length t.words then begin
    let words = Array.make (max (w + 1) (2 * Array.length t.words)) 0 in
    Array.blit t.words 0 words 0 (Array.length t.words);
    t.words <- words
  end

let set t i =
  if i < 0 then invalid_arg "Bitset.set: negative index";
  let w = i / bits_per_word in
  ensure t w;
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word));
  t.any <- true

let clear t i =
  if i < 0 then invalid_arg "Bitset.clear: negative index";
  let w = i / bits_per_word in
  if w < Array.length t.words then
    t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let mem t i =
  if i < 0 then false
  else begin
    let w = i / bits_per_word in
    w < Array.length t.words
    && t.words.(w) land (1 lsl (i mod bits_per_word)) <> 0
  end

let any t = t.any
(* [any] is sticky across [clear]: a false reply is always exact, a true
   reply may be stale after clears — callers use it only to skip the
   per-row test on sets that never held a bit. *)
