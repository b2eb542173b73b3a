(** The cudadev device runtime library (paper 4.2.2), exposed to kernel
    code as interpreter builtins.

    One {!install} call per block adds the library to the block's
    builtin table, closing over the SIMT block state; each builtin finds
    its calling thread through the interpreter context it is passed
    ({!Cinterp.Interp.t.thread}).  Installed entry points include:

    - identity: [cudadev_thread_id], [cudadev_team_id],
      [omp_get_thread_num], [omp_get_num_threads], ...;
    - the master/worker scheme: [cudadev_in_masterwarp],
      [cudadev_is_masterthr], [cudadev_register_parallel],
      [cudadev_workerfunc], [cudadev_exit_target] (B1/B2 protocol);
    - the shared-memory stack: [cudadev_push_shmem],
      [cudadev_pop_shmem], [cudadev_getaddr];
    - worksharing: [cudadev_get_distribute_chunk],
      [cudadev_get_static_chunk], [cudadev_get_dynamic_chunk],
      [cudadev_get_guided_chunk], [cudadev_ws_barrier],
      [cudadev_barrier], [cudadev_sections_next];
    - synchronisation: [cudadev_lock]/[cudadev_unlock] (CAS spin locks),
      atomic reductions ([cudadev_reduce_*]);
    - CUDA intrinsics for hand-written kernels: [__syncthreads],
      [atomicAdd], [atomicCAS], [atomicExch]. *)

exception Devrt_error of string

(** Per-thread OpenMP execution context (thread id / team size), one
    per thread of the block; the master/worker engine overrides it for
    the duration of a region. *)
type omp_ctx = { mutable omp_id : int; mutable omp_num : int }

val b1_participants : Gpusim.Simt.block_state -> int

val barrier_id_b1 : int

val barrier_id_b2 : int

val barrier_id_user : int

val install : Gpusim.Simt.block_state -> (string, Cinterp.Interp.builtin) Hashtbl.t -> unit
