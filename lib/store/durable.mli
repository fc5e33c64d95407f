(** Renames that survive a power loss.

    A rename is durable only once the directory holding the new name
    is fsynced; the renamed file's own bytes must already be (fsync
    it before the rename). Every file the store replaces or rotates —
    checkpoint images, rebuilt logs, the rotated log — goes through
    {!rename}, so a checkpoint never deletes the records an image
    covers before the image is on disk. *)

val fsync_dir : string -> unit
(** Fsync a directory. Raises [Sys_error]. *)

val rename : src:string -> dst:string -> unit
(** Rename [src] over [dst], then fsync [dst]'s directory. Raises
    [Sys_error] (the rename happened when only the directory fsync
    failed). *)
