(** Machine-readable table exports.

    Writes the regenerated tables as CSV files (one per table, with
    paper reference columns included), so downstream analysis does not
    need to scrape the bench's text output. *)

val write_table4 : string -> unit

val write_all : dir:string -> string list
(** Writes [resim_table<n>.csv] into [dir]; returns the paths written. *)
