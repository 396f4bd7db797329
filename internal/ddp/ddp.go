// Package ddp implements distributed data-parallel training over the
// simulated cluster, mirroring the paper's Dask-DDP integration: every
// worker holds a model replica, processes its shard of each (globally or
// locally shuffled) epoch, and averages gradients with a ring AllReduce.
// The gradient exchange is numerically real — replicas remain bitwise
// identical — while virtual clocks accumulate the Polaris-scale runtime.
//
// One step/epoch loop, TrainGrid, serves every distributed run: it trains a
// Shards x Replicas grid, and plain DDP (Train) is its 1 x W case. Package
// shard supplies the node-partition half of a sharded grid (plan,
// propagators, halo exchanges, repartitioning) through the Shard interface.
package ddp

import (
	"context"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/fault"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/tensor"
	"pgti/internal/trace"
)

// SamplerKind selects the epoch shuffling strategy.
type SamplerKind int

// The three strategies evaluated in the paper.
const (
	// GlobalShuffle reshuffles the full training set every epoch
	// (distributed-index-batching's default, §4.2).
	GlobalShuffle SamplerKind = iota
	// LocalShuffle shuffles within fixed per-worker partitions.
	LocalShuffle
	// BatchShuffle keeps batch contents fixed and shuffles batch order
	// within partitions (generalized-distributed-index-batching, §5.4).
	BatchShuffle
)

// String implements fmt.Stringer.
func (k SamplerKind) String() string {
	switch k {
	case LocalShuffle:
		return "local"
	case BatchShuffle:
		return "batch"
	default:
		return "global"
	}
}

// ModelFactory builds one model replica. It is called once per worker with
// the shared seed, so replicas initialize identically.
type ModelFactory func(seed uint64) nn.SeqModel

// SyncMode selects the gradient synchronization strategy.
type SyncMode int

// The two gradient-exchange schedules.
const (
	// SyncBucketedOverlap (default) partitions the gradients into
	// size-capped buckets and launches each bucket's ring AllReduce the
	// moment its parameters' gradients are final during backward,
	// overlapping communication with the remaining backward compute. The
	// virtual clock charges max(compute, pipelined comm) per step.
	SyncBucketedOverlap SyncMode = iota
	// SyncFlatten is the pre-bucketing baseline: one monolithic flattened
	// AllReduce after the whole backward pass, with its cost fully exposed
	// (compute + comm). Kept for ablation benchmarks.
	SyncFlatten
)

// String implements fmt.Stringer.
func (m SyncMode) String() string {
	if m == SyncFlatten {
		return "flatten"
	}
	return "bucketed-overlap"
}

// GradAlgo selects the gradient AllReduce algorithm of the collective stack.
type GradAlgo int

// The three gradient-exchange algorithms.
const (
	// GradAlgoRing (default) is the bucketed overlapping flat ring
	// AllReduce: every hop crosses the fabric.
	GradAlgoRing GradAlgo = iota
	// GradAlgoFlat is the pre-bucketing baseline: one monolithic flattened
	// AllReduce after backward, fully exposed. Equivalent to SyncFlatten.
	GradAlgoFlat
	// GradAlgoHierarchical is the topology-aware bucketed overlap: buckets
	// reduce within each node over the NVLink-class intra link, ring across
	// node leaders over the fabric, and broadcast back down.
	GradAlgoHierarchical
)

// String implements fmt.Stringer.
func (a GradAlgo) String() string {
	switch a {
	case GradAlgoFlat:
		return "flat"
	case GradAlgoHierarchical:
		return "hierarchical"
	default:
		return "ring"
	}
}

// DefaultBucketBytes caps one gradient bucket at 256 KiB (32Ki float64
// elements), a few buckets for the paper's model sizes — small enough to
// start communicating early in backward, large enough to stay
// bandwidth-bound rather than latency-bound.
const DefaultBucketBytes int64 = 256 << 10

// backwardShare is the fallback fraction of one step's compute attributed to
// the backward pass (the usual 1:2 fwd:bwd cost ratio) when the measured
// wall-clock split is unavailable (timers too coarse to observe anything).
// The overlap model normally uses the per-step measured forward/backward
// timings captured via autograd's timed gradient hooks.
const backwardShare = 2.0 / 3.0

// Config parameterizes a distributed training run.
type Config struct {
	Workers   int
	BatchSize int // per worker; global batch = BatchSize * Workers
	Epochs    int
	LR        float64
	// UseLRScaling applies the linear scaling rule lr*Workers (§5.3.3's
	// mitigation for large-global-batch accuracy loss).
	UseLRScaling bool
	// ClipNorm, when > 0, clips the gradient norm before the optimizer
	// step. Every schedule clips the synchronized gradient, after the
	// exchange (torch-DDP order), so the flat, ring and hierarchical
	// algorithms stay bitwise ablations of each other under clipping.
	ClipNorm float64
	Sampler  SamplerKind
	Seed     uint64
	Net      cluster.NetworkModel
	// RemoteFetch models the baseline-DDP data path: every batch is fetched
	// on demand through the data service (charged to the virtual clock).
	// Distributed-index-batching leaves this false: data is worker-local.
	RemoteFetch bool
	// Store, when set, partitions the data across workers (generalized-
	// distributed-index-batching, §5.4): batches are assembled through the
	// store and only rows outside the worker's shard are charged as remote
	// traffic. Mutually exclusive with RemoteFetch.
	Store *batching.PartitionStore
	// ComputeCost, when set, supplies the modeled per-batch compute time
	// for the virtual clock (paper-scale runs). When nil, real elapsed time
	// is charged.
	ComputeCost func(batchItems int) time.Duration
	// Prefetch pipelines batch assembly against the training step: a
	// double-buffered background collator assembles batch T+1 while batch T
	// runs forward/backward (exactly one batch deep). Batch contents are
	// bitwise identical to the serial path, so training curves do not
	// change. Ignored when Store supplies the data (its fetches are the
	// pipeline's bottleneck, not local collation).
	Prefetch bool
	// AssembleCost, when set, supplies the modeled host-side collation time
	// of one batch. Serial runs expose it ahead of every step; under
	// Prefetch the next batch's assembly runs under the current step and
	// only the epoch's leading assembly is exposed.
	AssembleCost func(batchItems int) time.Duration
	// Sync selects the gradient-exchange schedule (default bucketed
	// overlapping AllReduce). Superseded by Algo; SyncFlatten maps to
	// GradAlgoFlat when Algo is unset.
	Sync SyncMode
	// Algo selects the AllReduce algorithm of the collective stack:
	// ring (default), flat, or hierarchical.
	Algo GradAlgo
	// Topology describes the simulated node layout for GradAlgoHierarchical
	// (ignored by the other algorithms).
	Topology cluster.Topology
	// IntraNet overrides the intra-node interconnect model used by
	// hierarchical collectives (default NVLink-class).
	IntraNet cluster.NetworkModel
	// FP16 ships gradient buckets quantized to half precision with
	// error-feedback residual accumulation: 2 wire bytes per element
	// instead of fp64's 8.
	FP16 bool
	// BucketBytes caps one gradient bucket for the bucketed algorithms
	// (default DefaultBucketBytes).
	BucketBytes int64
	// AutoTuneBuckets sweeps candidate bucket sizes across the first
	// epoch's steps and locks in the one minimizing the modeled step time
	// (see AutotuneCandidates). Ignored by GradAlgoFlat.
	AutoTuneBuckets bool

	// Ctx, when cancellable (Ctx.Done() != nil), is polled once per step
	// through an agreed scalar collective so every worker stops at the same
	// step: training returns cleanly mid-epoch with Result.Cancelled set and
	// the curve of completed epochs. A nil or non-cancellable context (e.g.
	// context.Background) adds no per-step collective, keeping the legacy
	// path's virtual timeline untouched.
	Ctx context.Context
	// StartEpoch is the absolute index of the first epoch to run (resume);
	// the loop covers epochs [StartEpoch, Epochs). Zero for fresh runs, in
	// which case Epochs keeps its legacy meaning as the epoch count.
	StartEpoch int
	// Init, when set, is invoked on every worker right after its replica and
	// optimizer are constructed — the deterministic state-injection hook for
	// checkpoint warm starts and resumes. It must apply the identical state
	// on every rank (replicas must stay bitwise identical).
	Init func(model nn.SeqModel, opt *nn.Adam) error
	// OnEpoch streams each completed epoch's record from rank 0 (called on
	// the training goroutine, after the epoch's metric reduction).
	OnEpoch func(rec metrics.EpochRecord)
	// Faults arms a deterministic fault schedule on the cluster (see
	// internal/fault): crashes are detected at step boundaries and surface
	// as *cluster.WorkerLostError from Train; stragglers and degraded links
	// scale compute/transfer charges. Nil (and an armed-but-empty plan)
	// keeps the timeline bitwise identical to today.
	Faults *fault.Plan
	// OnSnapshot, when set, streams rank 0's resumable state (params, Adam
	// moments, completed curve, virtual clock) once before the first epoch
	// and again at every epoch boundary — the in-memory recovery points an
	// elastic caller rolls back to after a worker loss. Called on the
	// training goroutine.
	OnSnapshot func(snap Snapshot)
	// OnAutotuneLock fires on rank 0 when the bucket autotuner locks in its
	// winning bucket size.
	OnAutotuneLock func(bucketBytes int64)
	// Trace, when set, records every worker's spans and counters (see
	// internal/trace). Recording never touches virtual clocks or
	// collectives, so a traced run is bitwise identical to an untraced one.
	Trace *trace.Recorder
}

// Snapshot is one epoch-boundary recovery point: everything a fresh Train
// call needs (via Config.Init + Config.StartEpoch) to continue bitwise
// identically from this boundary, plus the completed curve and the
// synchronized virtual clock for the caller's stitching.
type Snapshot struct {
	// NextEpoch is the first epoch a run resumed from this snapshot executes.
	NextEpoch int
	// Params are deep copies of the replica parameters at the boundary.
	Params [][]float64
	// State carries the Adam moments and step count.
	State *nn.TrainState
	// Curve holds the epochs completed so far in this run.
	Curve metrics.Curve
	// Owner is the node->shard assignment in force at the boundary on a
	// sharded grid (elastic migrations may have moved it off the initial
	// plan); nil when the graph is whole.
	Owner []int
	// VirtualTime is the synchronized clock at the boundary.
	VirtualTime time.Duration
}

// Result summarizes a distributed run from worker 0's perspective.
type Result struct {
	Curve metrics.Curve
	// VirtualTime is the synchronized virtual clock at completion.
	VirtualTime time.Duration
	// CommTime is the portion of VirtualTime spent in *exposed* modeled
	// communication (gradient AllReduce + remote fetches) — comm hidden
	// under backward compute by bucketed overlap does not appear here;
	// halo traffic is reported separately.
	CommTime time.Duration
	// CommHiddenTime is the modeled communication cost that bucketed
	// overlap hid under backward compute (zero for SyncFlatten).
	CommHiddenTime time.Duration
	// CommExposedIntra / CommExposedInter split the exposed communication
	// (halo or gradient) by modeled channel: each is the time that
	// channel's traffic extended past compute or was charged inline. The
	// two tails run concurrently, so their sum can exceed the total exposed
	// time. The unsharded grid rides the fabric alone.
	CommExposedIntra time.Duration
	CommExposedInter time.Duration
	// HaloTime / HaloBytes are the modeled halo-exchange cost and wire
	// traffic across forward and backward passes; HaloHiddenTime is the
	// portion of HaloTime the interior-first overlap hid under compute.
	// Zero when the graph is whole.
	HaloTime       time.Duration
	HaloHiddenTime time.Duration
	HaloBytes      int64
	// GradSyncBytes is the total gradient wire traffic per worker (fp16
	// buckets count at their compressed size).
	GradSyncBytes int64
	// CommBytesSaved is the gradient traffic avoided by fp16 compression
	// (zero when FP16 is off).
	CommBytesSaved int64
	// GradBuckets is the number of gradient buckets per step (1 for
	// GradAlgoFlat).
	GradBuckets int
	// Algo is the gradient AllReduce algorithm the run used.
	Algo GradAlgo
	// BucketBytes is the effective gradient bucket size cap: the autotuned
	// winner when AutoTuneBuckets is set, the configured/default cap
	// otherwise.
	BucketBytes int64
	// Steps is the number of optimizer steps taken.
	Steps int
	// GlobalBatch is BatchSize * Workers.
	GlobalBatch int
	// Repartitions counts the elastic chunk migrations a sharded grid
	// applied; ShardLoads is its final per-shard structural compute share
	// (NodeWeights-weighted when weights are set, node-count otherwise,
	// summing to 1).
	Repartitions int
	ShardLoads   []float64
	// Model and Opt are rank 0's trained replica and optimizer. Parameters
	// are bitwise identical on every worker and propagator-independent, so
	// this pair is the run's checkpointable state and the warm handle
	// inference serves from.
	Model nn.SeqModel
	Opt   *nn.Adam
	// Cancelled reports that Config.Ctx was cancelled and the run stopped at
	// an agreed step; Curve holds the epochs completed before the stop.
	Cancelled bool
}

// FlattenGrads packs every parameter gradient into one contiguous vector
// (missing gradients contribute zeros), the unit of AllReduce traffic.
func FlattenGrads(params []*nn.Parameter, buf []float64) []float64 {
	n := 0
	for _, p := range params {
		n += p.Tensor().NumElements()
	}
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	pos := 0
	for _, p := range params {
		cnt := p.Tensor().NumElements()
		dst := buf[pos : pos+cnt]
		if p.V.Grad != nil {
			copy(dst, p.V.Grad.Contiguous().Data())
		} else {
			for i := range dst {
				dst[i] = 0
			}
		}
		pos += cnt
	}
	return buf
}

// UnflattenGrads scatters vec back into the parameters' gradients,
// replacing their contents (gradients are allocated if absent).
func UnflattenGrads(params []*nn.Parameter, vec []float64) {
	pos := 0
	for _, p := range params {
		cnt := p.Tensor().NumElements()
		if p.V.Grad == nil || !p.V.Grad.IsContiguous() {
			p.V.Grad = tensor.New(p.Tensor().Shape()...)
		}
		copy(p.V.Grad.Data(), vec[pos:pos+cnt])
		pos += cnt
	}
}

// ParameterGradBytes returns the total fp64 gradient byte volume of params —
// the upper bound of the AutotuneCandidates ladder.
func ParameterGradBytes(params []*nn.Parameter) int64 {
	var n int64
	for _, p := range params {
		n += int64(p.Tensor().NumElements()) * 8
	}
	return n
}

// newGradSync assembles one worker's bucketed-overlap gradient machinery
// for every grid shape: the per-parameter fp16 codec map (nil without
// compression), the initial OverlapSyncer over the given collective, and,
// when autotune is set, the first-epoch BucketSweep.
// bucketBytes <= 0 selects DefaultBucketBytes; the returned cap is the one
// the initial syncer runs with (the sweep's first candidate under
// autotune). onLock fires once, on rank 0 only, when the sweep locks its
// winner.
func newGradSync(w *cluster.Worker, net cluster.NetworkModel, params []*nn.Parameter, launch LaunchFunc, fp16, autotune bool, bucketBytes int64, onLock func(bucketBytes int64)) (*BucketSweep, *OverlapSyncer, int64) {
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	var codecOf CodecMap
	if fp16 {
		codecOf = NewCodecMap()
	}
	// The codec map outlives any individual syncer, so error-feedback
	// residuals persist across autotuner re-bucketing.
	rebuild := func(bb int64) *OverlapSyncer {
		return NewOverlapSyncer(BucketGrads(params, bb), launch, codecOf)
	}
	if autotune {
		gated := func(bb int64) {
			if w.Rank() == 0 && onLock != nil {
				onLock(bb)
			}
		}
		sweep, syncer := NewBucketSweep(w, net, ParameterGradBytes(params), rebuild, gated)
		return sweep, syncer, sweep.BucketBytes()
	}
	return nil, rebuild(bucketBytes), bucketBytes
}

// GradBucket groups parameters whose gradients travel as one AllReduce.
type GradBucket struct {
	Params []*nn.Parameter
	Elems  int
}

// BucketGrads partitions params into contiguous size-capped buckets in
// reverse parameter order — the approximate order gradients become final
// during backward (output-side layers first), so early buckets fill early.
// A single parameter larger than the cap gets a bucket of its own.
func BucketGrads(params []*nn.Parameter, bucketBytes int64) []GradBucket {
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	capElems := int(bucketBytes / 8)
	if capElems < 1 {
		capElems = 1
	}
	var out []GradBucket
	var cur GradBucket
	for i := len(params) - 1; i >= 0; i-- {
		n := params[i].Tensor().NumElements()
		if len(cur.Params) > 0 && cur.Elems+n > capElems {
			out = append(out, cur)
			cur = GradBucket{}
		}
		cur.Params = append(cur.Params, params[i])
		cur.Elems += n
	}
	if len(cur.Params) > 0 {
		out = append(out, cur)
	}
	return out
}

// CodecMap holds per-parameter fp16 error-feedback codecs. It is owned by
// the trainer and shared across syncer rebuilds, so quantization residuals
// survive autotuner re-bucketing (keyed per parameter, the residual is
// layout-independent). A nil map disables compression.
type CodecMap map[*autograd.Variable]*cluster.FP16Codec

// NewCodecMap returns an empty codec map (enabling fp16 compression on any
// syncer built over it).
func NewCodecMap() CodecMap { return make(CodecMap) }

// LaunchFunc issues one bucket's clock-deferred gradient collective over the
// already-flattened (and, under fp16, wire-quantized) vector, returning the
// modeled cost. wireBytes is the modeled on-the-wire size (compressed under
// fp16). Implementations must leave virtual clocks untouched and must issue
// matching collectives in the same order on every participating worker.
type LaunchFunc func(vec []float64, wireBytes int64) time.Duration

// OverlapSyncer drives one worker's overlapped gradient exchange for one
// step: the autograd timed gradient-ready hook counts down each bucket and
// launches its (clock-deferred) collective mid-backward through the
// pluggable LaunchFunc, recording the measured backward offset of the
// launch; after backward the syncer scatters the reduced buckets back and
// converts the measured launch timeline into the overlapped virtual-time
// charge. TrainGrid plugs in the flat-world ring/hierarchical AllReduce on
// the unsharded grid and the grouped two-stage (replica-sum then
// shard-mean) collective on a sharded one.
type OverlapSyncer struct {
	launch  LaunchFunc
	fp16    bool
	buckets []GradBucket
	// bucketOf maps a parameter's leaf variable to its bucket index.
	bucketOf   map[*autograd.Variable]int
	totalElems int

	remaining []int       // per bucket: params whose gradients are not yet final
	launched  []bool      // per bucket: collective already issued this step
	flat      [][]float64 // per bucket: flatten/exchange scratch
	codecOf   CodecMap    // per-parameter fp16 error-feedback state (see CodecMap)

	order        []int               // bucket indices in launch order
	events       []cluster.CommEvent // per launch: modeled cost (ReadyAt filled by Timeline)
	readyFrac    []float64           // per launch: cumulative-elements share (modeled fallback)
	readyElapsed []time.Duration     // per launch: measured backward offset
	wire         []int64             // per launch: wire bytes shipped
	cumElems     int
	commWall     time.Duration // real time spent blocked inside collective launches
	totalCost    time.Duration // sum of modeled bucket costs this step
	stepBytes    int64         // wire bytes shipped this step
	stepSaved    int64         // wire bytes saved by fp16 this step
}

// NewOverlapSyncer builds a syncer over the given buckets and collective.
// codecOf non-nil enables fp16 wire compression with error feedback.
func NewOverlapSyncer(buckets []GradBucket, launch LaunchFunc, codecOf CodecMap) *OverlapSyncer {
	s := &OverlapSyncer{
		launch:    launch,
		fp16:      codecOf != nil,
		buckets:   buckets,
		bucketOf:  make(map[*autograd.Variable]int),
		remaining: make([]int, len(buckets)),
		launched:  make([]bool, len(buckets)),
		flat:      make([][]float64, len(buckets)),
		codecOf:   codecOf,
	}
	for bi, b := range buckets {
		for _, p := range b.Params {
			s.bucketOf[p.V] = bi
			if codecOf != nil && codecOf[p.V] == nil {
				codecOf[p.V] = &cluster.FP16Codec{}
			}
		}
		s.totalElems += b.Elems
	}
	return s
}

// Reset prepares the syncer for the next step.
func (s *OverlapSyncer) Reset() {
	for bi := range s.buckets {
		s.remaining[bi] = len(s.buckets[bi].Params)
		s.launched[bi] = false
	}
	s.order = s.order[:0]
	s.events = s.events[:0]
	s.readyFrac = s.readyFrac[:0]
	s.readyElapsed = s.readyElapsed[:0]
	s.wire = s.wire[:0]
	s.cumElems = 0
	s.commWall = 0
	s.totalCost = 0
	s.stepBytes = 0
	s.stepSaved = 0
}

// OnGradReady is the autograd.TimedGradHook: count down the leaf's bucket
// and launch it once every member gradient is final, stamping the launch
// with the measured backward offset. The raw elapsed includes wall time
// spent blocked inside earlier buckets' exchanges (waiting for peers);
// subtracting the commWall accumulated so far leaves the pure backward-
// compute offset, which is what the modeled timeline rescales. Launch order
// is a deterministic function of the (identical) replica graphs, so all
// workers issue matching collectives.
func (s *OverlapSyncer) OnGradReady(leaf *autograd.Variable, elapsed time.Duration) {
	bi, ok := s.bucketOf[leaf]
	if !ok {
		return
	}
	s.remaining[bi]--
	if s.remaining[bi] == 0 {
		elapsed -= s.commWall
		if elapsed < 0 {
			elapsed = 0
		}
		s.launchBucket(bi, elapsed)
	}
}

// launchBucket flattens bucket bi (quantizing it to the fp16 wire values
// first when compression is on) and issues its clock-deferred collective via
// the launch function. elapsed is the measured backward offset of the
// launch.
func (s *OverlapSyncer) launchBucket(bi int, elapsed time.Duration) {
	b := s.buckets[bi]
	s.flat[bi] = FlattenGrads(b.Params, s.flat[bi])
	vec := s.flat[bi]
	wire := int64(len(vec)) * 8
	if s.fp16 {
		// Quantize per parameter, each through its own persistent codec, so
		// error-feedback residuals survive re-bucketing.
		pos := 0
		for _, p := range b.Params {
			n := p.Tensor().NumElements()
			s.codecOf[p.V].ApplyInPlace(vec[pos : pos+n])
			pos += n
		}
		compressed := cluster.FP16WireBytes(len(vec))
		s.stepSaved += wire - compressed
		wire = compressed
	}
	t0 := time.Now()
	cost := s.launch(vec, wire)
	s.commWall += time.Since(t0)
	s.launched[bi] = true
	s.cumElems += b.Elems
	s.order = append(s.order, bi)
	s.events = append(s.events, cluster.CommEvent{Cost: cost})
	s.readyFrac = append(s.readyFrac, float64(s.cumElems)/float64(s.totalElems))
	s.readyElapsed = append(s.readyElapsed, elapsed)
	s.wire = append(s.wire, wire)
	s.totalCost += cost
	s.stepBytes += wire
}

// Flush launches every bucket the backward pass never completed (parameters
// outside the step's graph contribute zero gradients) with a ready offset of
// bwdWall (the end of backward), in bucket order, and scatters all reduced
// buckets back into the parameter gradients.
func (s *OverlapSyncer) Flush(bwdWall time.Duration) {
	for bi := range s.buckets {
		if !s.launched[bi] {
			s.launchBucket(bi, bwdWall)
		}
	}
	for bi, b := range s.buckets {
		UnflattenGrads(b.Params, s.flat[bi])
	}
}

// splitCompute divides the step's modeled compute into forward and backward
// spans using the measured wall-clock split, falling back to the 1:2 model
// when the timers saw nothing.
func splitCompute(compute, fwdWall, bwdWall time.Duration) (fwd, bwd time.Duration) {
	frac := 1 - backwardShare
	if fwdWall > 0 && bwdWall > 0 {
		frac = float64(fwdWall) / float64(fwdWall+bwdWall)
	}
	fwd = time.Duration(frac * float64(compute))
	return fwd, compute - fwd
}

// Timeline stamps each launch's ReadyAt onto the step timeline and returns
// the comm events in launch order: the step's compute is split into forward
// and backward spans by the measured wall-clock ratio, and bucket i becomes
// ready at its measured backward offset rescaled onto the modeled backward
// span. Passing fwdWall == bwdWall == 0 selects the structural timeline
// (cumulative-elements ready fractions, 1:2 split): fully-modeled runs use
// it so their virtual clocks are machine-independent and reproducible. The
// returned slice aliases the syncer's state and is valid until the next
// Reset.
func (s *OverlapSyncer) Timeline(compute, fwdWall, bwdWall time.Duration) []cluster.CommEvent {
	fwd, bwd := splitCompute(compute, fwdWall, bwdWall)
	for i := range s.events {
		frac := s.readyFrac[i]
		if bwdWall > 0 {
			frac = float64(s.readyElapsed[i]) / float64(bwdWall)
			if frac > 1 {
				frac = 1
			}
		}
		s.events[i].ReadyAt = fwd + time.Duration(frac*float64(bwd))
	}
	return s.events
}

// ModeledFinish is the overlapped step duration on the structural timeline (cumulative-elements
// ready fractions, 1:2 forward/backward split): a measurement-free figure of
// merit the bucket autotuner can score reproducibly.
func (s *OverlapSyncer) ModeledFinish(compute time.Duration) time.Duration {
	fwd := time.Duration((1 - backwardShare) * float64(compute))
	bwd := compute - fwd
	events := make([]cluster.CommEvent, len(s.events))
	for i := range events {
		events[i] = cluster.CommEvent{
			ReadyAt: fwd + time.Duration(s.readyFrac[i]*float64(bwd)),
			Cost:    s.events[i].Cost,
		}
	}
	return cluster.OverlapFinish(compute, events)
}

// CommWall returns the real wall time this step spent blocked inside
// collective launches (communication, not compute — measured step timing
// subtracts it).
func (s *OverlapSyncer) CommWall() time.Duration { return s.commWall }

// TotalCost returns the sum of the step's modeled bucket collective costs.
func (s *OverlapSyncer) TotalCost() time.Duration { return s.totalCost }

// StepBytes returns the wire bytes shipped this step (compressed sizes under
// fp16); StepSaved returns the bytes fp16 compression avoided.
func (s *OverlapSyncer) StepBytes() int64 { return s.stepBytes }

// StepSaved returns the wire bytes fp16 compression saved this step.
func (s *OverlapSyncer) StepSaved() int64 { return s.stepSaved }

// NumBuckets returns the syncer's bucket count.
func (s *OverlapSyncer) NumBuckets() int { return len(s.buckets) }

// LaunchBuckets returns the step's bucket indices in launch order — aligned
// with Timeline's events, it labels the trace's per-bucket comm spans. The
// slice aliases syncer state and is valid until the next Reset.
func (s *OverlapSyncer) LaunchBuckets() []int { return s.order }

// LaunchWire returns the wire bytes shipped per launch, aligned with
// LaunchBuckets. The slice aliases syncer state and is valid until the next
// Reset.
func (s *OverlapSyncer) LaunchWire() []int64 { return s.wire }

// Train runs distributed data-parallel training of factory-built replicas
// over the index dataset: the 1 x cfg.Workers grid of TrainGrid, every
// replica holding the whole graph.
func Train(data *batching.IndexDataset, split batching.Split, factory ModelFactory, cfg Config) (*Result, error) {
	return TrainGrid(data, split, cfg, Grid{Bind: func(_ *cluster.Worker, _ []int, seed uint64) (nn.SeqModel, Shard) {
		return factory(seed), nil
	}})
}

// newSampler builds one replica's deterministic batch sampler for the
// shuffling strategy (the shards of a replica group sample alike).
func newSampler(kind SamplerKind, train []int, batchSize, workers, rank int, seed uint64) batching.BatchSampler {
	switch kind {
	case LocalShuffle:
		return batching.NewLocalShuffler(train, batchSize, workers, rank, seed)
	case BatchShuffle:
		return batching.NewBatchShuffler(train, batchSize, workers, rank, seed)
	default:
		return batching.NewGlobalShuffler(train, batchSize, workers, rank, seed)
	}
}

// reduceWeighted AllReduces a weighted Running accumulator into the global
// weighted mean.
func reduceWeighted(w *cluster.Worker, acc metrics.Running) float64 {
	sum := w.AllReduceScalar(acc.Mean()*float64(acc.Count()), cluster.OpSum)
	count := w.AllReduceScalar(float64(acc.Count()), cluster.OpSum)
	if count == 0 {
		return 0
	}
	return sum / count
}
