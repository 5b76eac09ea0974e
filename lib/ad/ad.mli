(** Reverse-mode automatic differentiation over tensors.

    Values are nodes in a dynamically built computation graph; rank-0
    tensors serve as scalars. Calling {!backward} on a scalar root
    accumulates gradients into every reachable node, which can then be
    read with {!grad}. Graphs are rebuilt on every forward pass, so
    gradients never leak between optimization steps.

    The module also exposes {!stop_grad} and {!custom}, the two hooks the
    ADEV estimators (see [Adev]) use to construct surrogate losses whose
    reverse-mode derivatives are unbiased gradient estimates.

    {b Parameters and constants.} Every node carries an {e activity}
    bit, fixed when it is built: a node is active iff one of its
    parents is, and the only active leaves are those made by {!param}.
    {!backward} sweeps active nodes only — it neither visits an
    inactive node nor calls the vjp into one — so data, observations
    and other {!const} leaves cost nothing in the reverse pass. Build
    with {!param} exactly the leaves whose gradient you will read
    ([Store.Frame.get] does this for training parameters); {!grad} on
    an inactive node raises instead of returning zeros. Gradients of
    active nodes are bit-identical to an unpruned sweep's. *)

type t
(** A differentiable tensor value. *)

(** {1 Leaves and constants} *)

val const : Tensor.t -> t
(** An inactive leaf: data, never differentiated. No gradient reaches
    it, nor any node built only from constants. *)

val param : Tensor.t -> t
(** An active leaf: a value {!backward} differentiates with respect
    to. Read its gradient with {!grad}. *)

val scalar : float -> t
(** Rank-0 {!const}. *)

val value : t -> Tensor.t
(** The primal value. *)

val to_float : t -> float
(** Primal value of a rank-0 node. @raise Tensor.Shape_error otherwise. *)

val shape : t -> int array

val is_leaf : t -> bool
(** [true] when the node has no parents (it was created by {!const},
    {!param}, {!scalar}, or {!stop_grad}). Structural, independent of
    activity: used by [Value.to_float_rigid] to enforce the paper's
    R / R* smoothness discipline at runtime. *)

val id : t -> int
(** A unique, stable identifier for this node (graph-construction
    order). Used to key side tables — e.g. the provenance registry that
    lets smoothness errors name the sample site a value came from. *)

val node_count : unit -> int
(** Total number of AD nodes constructed so far (process-wide,
    monotone). Deltas between two reads measure a region's tape
    growth; the observability layer gauges this per training step. *)

val swept_nodes : unit -> int
(** Total number of nodes visited by reverse sweeps so far (process-
    wide, monotone; checkpoint replays included). Inactive nodes are
    recorded by {!node_count} but never swept, so a step's delta here
    is at most its {!node_count} delta. *)

(** {1 Live-tape accounting}

    Created-minus-retired counts of active nodes (the ones a
    {!backward} consumes). Nodes retire when a
    {!checkpoint} barrier discards its segment, when a replayed
    segment's local sweep completes, and when {!backward} has consumed
    a tape — so with remat barriers the {e peak} stops scaling with
    the full tape length. All counters are process-wide and atomic. *)

val live_node_count : unit -> int
(** Nodes currently accounted live (created minus retired) since the
    last {!reset_live_stats}. *)

val peak_live_nodes : unit -> int
(** High-water mark of {!live_node_count} since the last
    {!reset_live_stats}. The [ad/peak_live_nodes] gauge in
    [ppvi profile] reports this per run. *)

val remat_replays : unit -> int
(** Process-wide count of checkpoint-segment replays performed by
    {!backward} (monotone). *)

val reset_live_stats : unit -> unit
(** Zero the live/peak counters. Only call from a quiescent point (no
    concurrent graph construction): the training driver resets between
    steps to measure per-step peaks. *)

(** {1 Gradient checkpointing} *)

val checkpoint : ?pool:bool -> (unit -> t) -> t
(** [checkpoint f] runs [f] once, discards the tape segment it built,
    and returns a barrier node carrying the segment's (copied) value;
    {!backward} rebuilds the segment by replaying [f] if and when a
    gradient reaches the barrier, then sweeps the replayed interior
    into the segment's boundary nodes locally. Gradients are bit-for-
    bit identical to the full-tape backward, provided [f] is
    {e replay-deterministic}: rebuilding must produce the same values
    (true for objective builders closing over a parameter frame and
    explicit PRNG keys; false for thunks reading ambient mutable
    state such as REINFORCE baseline cells — see docs/MEMORY.md).
    With [pool] (default true) the segment's transient tensors are
    drawn from a domain-local segment pool that is recycled at every
    barrier, so per-step heap allocation stops scaling with the
    number of segments. Nested checkpoints are supported (inner
    segments share the pool without resetting it). If [f] returns a
    node that predates the call, it is returned unchanged. *)

val replaying : unit -> bool
(** [true] while a checkpoint segment is being rematerialized on this
    domain. The arena-backed compiled executors in [Gen] bypass their
    buffer pools during replay: a replay runs mid-[backward], after
    the epoch has advanced, so an arena reset would recycle buffers
    the main tape still references. *)

val set_replay_silencer : ((unit -> unit) -> unit) -> unit
(** Install the wrapper run around every segment replay. [Adev]
    registers [Obs.suppress] so a replay's re-executed user code does
    not double-report site timings and estimator statistics. *)

(** {1 Sharded execution} *)

val shard_mode : unit -> bool
(** [true] inside a data-parallel shard block (see [Train]). Compiled
    executors bypass plan-owned mutable state — arenas and scratch
    reuse — under shard mode, since several domains may execute the
    same plan concurrently. *)

val with_shard_mode : (unit -> 'a) -> 'a
(** Run a thunk with {!shard_mode} set on the current domain. *)

(** {1 Differentiation} *)

val backward : t -> unit
(** Seed the (scalar) root with gradient 1 and backpropagate into every
    active node it reaches (a no-op for an inactive root). Safe to call
    once per graph. @raise Invalid_argument on a non-scalar root. *)

val backward_epoch : unit -> int
(** Monotone count of completed {!backward} passes. The arena-backed
    compiled executors in [Gen] gate buffer-pool resets on this
    counter: recycling a plan's buffers is only safe once the tape
    built from them has been consumed by a backward pass. *)

val grad : t -> Tensor.t
(** The gradient accumulated into this node by the last {!backward}
    through it; a zero tensor if none reached it.
    @raise Invalid_argument if the node is inactive (see {!param}). *)

val stop_grad : t -> t
(** An inactive node with the same value: no gradient flows through. *)

val custom : value:Tensor.t -> parents:(t * (Tensor.t -> Tensor.t)) list -> t
(** [custom ~value ~parents] creates a node with an explicit
    vector-Jacobian product per parent: during backprop, each function
    receives the node's output gradient and returns the contribution to
    that parent (which must match the parent's shape). *)

(** {1 Arithmetic (broadcasting like [Tensor])} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t

val exp : t -> t
val log : t -> t
val sqrt : t -> t
val sigmoid : t -> t
val tanh : t -> t

val relu : t -> t
(** Subgradient 0 at the kink. As in the paper's discussion of static
    checks, using [relu] inside density computations is at the user's
    own risk. *)

val softplus : t -> t
val pow_scalar : t -> float -> t

val log1p_exp : t -> t
(** Alias of {!softplus}, for log-density code readability. *)

(** {1 Reductions and linear algebra} *)

val sum : t -> t
(** Sum of all elements, as a rank-0 node. *)

val mean : t -> t
val dot : t -> t -> t
val matmul : t -> t -> t
val transpose : t -> t

val logsumexp : t -> t
(** Stable logsumexp over all elements, rank-0. *)

val sum_axis : int -> t -> t
(** [sum_axis ax a] sums out dimension [ax] (removing it); the adjoint
    broadcasts the cotangent back along the reduced axis. *)

val logsumexp_axis : int -> t -> t
(** [logsumexp_axis ax a] is the stable logsumexp along dimension [ax]
    (removing it); the adjoint is the softmax-weighted broadcast of the
    cotangent. This is the one-axis-reduction form that batched
    K-particle objectives (e.g. IWELBO over the particle axis) use in
    place of [K] scalar terms. *)

val bernoulli_logits_scores : x:Tensor.t -> t -> t
(** [bernoulli_logits_scores ~x logits] is the fused per-row
    Bernoulli-with-logits log-pmf [sum_tail (x*l - softplus l)] over
    the broadcast of the operands (leading axis = rows), with the
    custom adjoint [g_i (x - sigmoid l)] into [logits] reusing the
    forward pass's sigmoid. One pass each way, versus the ~8 tensor
    temporaries of the compositional form — the hot likelihood kernel
    of the batched execution engine. [x] is the (0/1-valued) carrier
    of a discrete site and is not differentiated. *)

val log_softmax : t -> t
(** Elementwise [x - logsumexp x]. *)

(** {1 Structural} *)

val reshape : int array -> t -> t
val concat0 : t list -> t
val stack0 : t list -> t
val slice0 : t -> int -> t
val get : t -> int array -> t
(** Extract one element as a rank-0 node (gradient scatters back). *)

(** {1 Convenience} *)

val add_list : t list -> t
(** Sum of a non-empty list of same-shaped nodes ([scalar 0.] when
    empty). *)

module O : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
end

(** {1 Testing support} *)

val finite_diff_grad :
  ?eps:float -> (Tensor.t -> float) -> Tensor.t -> Tensor.t
(** Central finite differences of a scalar function, elementwise on its
    tensor input. Used by the test suite to validate every vjp. *)
