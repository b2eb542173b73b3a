(** The cudadev host module's central operation: kernel launch in three
    phases (paper 4.2.1):
    + loading — locate the kernel file, load (JIT if PTX) the module;
    + parameter preparation — translate each host argument to its device
      image through the data environment;
    + launch — set grid/block dimensions and call the driver's
      launch_kernel. *)

open Machine
open Gpusim

type arg =
  | Mapped of Addr.t  (** host address of a mapped variable: passed as its device pointer *)
  | Scalar of Value.t  (** passed by value *)

type result = { r_stats : Driver.launch_stats; r_output : string }

(** Every launch flavour (solo, [nowait], and each shard of a
    {!Multidev} launch) runs the same three phase functions below.  They
    are fault-aware: the load and launch phases retry under the
    runtime's {!Resilience.policy} (invalidating the JIT cache entry on
    corrupt-cache faults so the retry recompiles), and
    {!Resilience.Device_dead} is raised immediately when the target
    device has already been declared dead, or when a fatal fault /
    retry exhaustion kills it — the caller then degrades to the host
    path. *)

(** @raise Resilience.Device_dead when the device was declared dead *)
val check_alive : Rt.device -> unit

(** Retry-wrap a fallible driver call on [device] under the runtime's
    policy; a corrupt-cache fault invalidates [artifact] first. *)
val resilient :
  Rt.t -> Rt.device -> artifact:Nvcc.artifact -> label:string -> (unit -> 'a) -> 'a

(** Phase 1: load (JIT if PTX) [artifact]'s module on the device, in a
    "load" span carrying [kernel_file] and [device]. *)
val load_phase :
  Rt.t -> Rt.device -> kernel_file:string -> artifact:Nvcc.artifact -> Driver.loaded_module

(** Phase 2's coercion: arguments against the kernel's parameter types.
    [translate i haddr] is the device image of argument [i]'s host
    address.  @raise Rt.Ort_error on an arity mismatch or a mapped
    argument bound to a non-pointer parameter *)
val coerce_args :
  entry:string -> translate:(int -> Addr.t -> Addr.t) -> (string * Cty.t) list -> arg list ->
  Value.t list

val entry_params : Driver.loaded_module -> string -> (string * Cty.t) list

(** Phase 2 against the device's data environment, in a
    "parameter_preparation" span unless [~span:false]. *)
val param_phase :
  ?span:bool -> Rt.t -> Rt.device -> modul:Driver.loaded_module -> entry:string -> arg list ->
  Value.t list

(** Phase 3: geometry, the translated-kernel occupancy penalty, block
    filter — block sampling, or with [~shard:(lo, hi)] just that block
    range charged as [hi - lo] logical blocks — and the retry-wrapped
    driver launch, asynchronous on [stream] when given. *)
val launch_phase :
  Rt.t -> Rt.device -> artifact:Nvcc.artifact -> modul:Driver.loaded_module -> entry:string ->
  num_teams:int -> num_threads:int -> values:Value.t list -> ?shard:int * int ->
  ?stream:Driver.stream -> unit -> Driver.launch_stats

(** Solo launch on device [dev], the path the generated ort_offload
    calls take.  A relaunch of the device's last (kernel file, entry)
    whose module is still resident takes the fast path: no load and no
    phase spans. *)
val launch_typed :
  Rt.t -> dev:int -> kernel_file:string -> entry:string -> num_teams:int -> num_threads:int ->
  args:arg list -> unit -> result

(** {1 Asynchronous launch ([target ... nowait])} *)

(** A nowait region's mapped operand: the region owns its whole
    map/launch/unmap sequence, so the maps travel with the launch. *)
type async_map = { am_base : Addr.t; am_bytes : int; am_map : Dataenv.map_type }

(** Submit the region to the device's stream tracker: serialized behind
    conflicting in-flight regions (read/write intersection on host
    ranges), overlapped with independent ones.  The submitted work maps
    the operands, launches, and unmaps — all on one stream.  Returns the
    device-side printf output (available immediately: memory effects are
    eager).  Raises {!Resilience.Device_dead} like the sync path. *)
val launch_nowait :
  Rt.t -> dev:int -> kernel_file:string -> entry:string -> num_teams:int -> num_threads:int ->
  maps:async_map list -> unit -> string

(** Barrier over every queued nowait region of [dev] (ort_taskwait and
    the end-of-data-environment barrier). *)
val taskwait : Rt.t -> dev:int -> unit

(** Device died with regions queued: drop the queue on a coherent
    timeline before running the host fallback. *)
val quiesce : Rt.t -> dev:int -> unit
