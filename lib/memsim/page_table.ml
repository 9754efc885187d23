(** Per-process virtual→physical page mapping.

    Supports both conventional mappings (each virtual page gets its own
    frame) and BHive's trick of aliasing many virtual pages onto one
    physical frame. *)

type t = { entries : (int64, int64) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let translate_page t vpn = Hashtbl.find_opt t.entries vpn

let map t ~vpn ~pfn = Hashtbl.replace t.entries vpn pfn

let unmap t vpn = Hashtbl.remove t.entries vpn

let unmap_all t = Hashtbl.reset t.entries

let mapped_pages t =
  Hashtbl.fold (fun vpn pfn acc -> (vpn, pfn) :: acc) t.entries []
  |> List.sort compare

let count t = Hashtbl.length t.entries

(* Number of distinct physical frames currently mapped; equals 1 when the
   BHive single-physical-page aliasing is in effect. *)
let distinct_frames t =
  let seen = Hashtbl.create 8 in
  Hashtbl.iter (fun _ pfn -> Hashtbl.replace seen pfn ()) t.entries;
  Hashtbl.length seen
