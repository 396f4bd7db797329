package shard

import (
	"context"
	"fmt"
	"time"

	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/fault"
	"pgti/internal/graph"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/sparse"
	"pgti/internal/trace"
)

// ModelFactory builds one model replica over a shard's propagators. It is
// called once per worker with the shared seed and the worker's shard-local
// propagators; parameter initialization must not depend on the propagators
// (the nn constructors guarantee this), so every worker starts identical.
type ModelFactory func(seed uint64, props []nn.Propagator) nn.SeqModel

// HaloSyncMode selects the halo-exchange schedule.
type HaloSyncMode int

// The two halo schedules.
const (
	// HaloSyncOverlap (default) is the interior-first split-phase schedule:
	// each ShardSpMM launches its halo exchange, multiplies the rows whose
	// columns all fall in [own] while the bytes are in flight, and finishes
	// the frontier rows once the halo lands (mirrored in backward under the
	// reverse scatter-add exchange). The step's virtual clock charges
	// max(compute, pipelined comm) via cluster.OverlapFinish; results are
	// bitwise identical to the blocking schedule.
	HaloSyncOverlap HaloSyncMode = iota
	// HaloSyncBlocking is the gather-then-multiply baseline: every exchange
	// blocks before the local SpMM and its full modeled cost is exposed on
	// the clock. Kept for ablation benchmarks.
	HaloSyncBlocking
)

// String implements fmt.Stringer.
func (m HaloSyncMode) String() string {
	if m == HaloSyncBlocking {
		return "blocking"
	}
	return "overlap"
}

// Config parameterizes a hybrid (spatial x data) training run on a
// Shards x Replicas process grid. Rank layout: rank = replica*Shards +
// shard, so each replica group is a contiguous rank block (halo neighbours
// land on the same simulated node under a matching Topology) and each shard
// group is a stride-Shards comb.
type Config struct {
	Shards   int
	Replicas int
	// BatchSize is per replica; the global batch is BatchSize * Replicas
	// (shards within a replica cooperate on the same batch).
	BatchSize int
	Epochs    int
	LR        float64
	// UseLRScaling applies the linear scaling rule lr*Replicas (shards do
	// not grow the global batch).
	UseLRScaling bool
	// ClipNorm, when > 0, clips the globally-synchronized gradient norm
	// before the optimizer step (all workers hold the identical gradient at
	// that point, so the clip is exact).
	ClipNorm float64
	Sampler  ddp.SamplerKind
	Seed     uint64
	Net      cluster.NetworkModel
	// IntraNet prices intra-node halo hops (default NVLink-class).
	IntraNet cluster.NetworkModel
	// Topology lays the 2D grid onto simulated nodes; halo messages between
	// ranks on one node ride IntraNet.
	Topology cluster.Topology
	// ComputeCost, when set, supplies the modeled full-graph per-batch
	// compute time; each shard is charged its owned-node share. When nil,
	// real elapsed time is charged.
	ComputeCost func(batchItems int) time.Duration
	// Prefetch pipelines batch assembly against the training step: a
	// double-buffered background collator assembles batch T+1 while batch T
	// runs forward/backward (exactly one batch deep). Batch contents are
	// bitwise identical to the serial path, so training curves do not
	// change; with the windows resident at step start, the first forward
	// halo exchange also launches immediately instead of at its measured
	// compute offset.
	Prefetch bool
	// AssembleCost, when set, supplies the modeled host-side collation time
	// of one batch. Serial runs expose it ahead of every step; under
	// Prefetch the next batch's assembly runs under the current step and
	// only the epoch's leading assembly is exposed.
	AssembleCost func(batchItems int) time.Duration
	// Staleness bounds the gradient pipeline depth (bucketed sync only;
	// see ddp.Grid.Staleness); zero keeps the synchronous schedule.
	Staleness int
	// Plan, when set, supplies a prebuilt partition (callers that need the
	// shard sizes up front, e.g. for memory accounting, build it once and
	// pass it in). When nil, Train builds it from the graph.
	Plan *Plan
	// Repartition enables elastic chunk-based repartitioning: at each epoch
	// boundary the grid agrees on a per-shard load vector (accumulated step
	// compute) and, past the threshold, migrates a chunk of nodes from the
	// heaviest shard to the lightest, rebuilding row blocks and halo routing
	// in place (see Repartition). Zero value keeps the partition static.
	Repartition Repartition
	// NodeWeights, when set with ComputeCost, scales each shard's structural
	// compute charge by its owned share of the total node weight instead of
	// its node-count share — the skew-injection hook the repartition tests
	// and benchmarks use (len must equal the graph's node count). Loss
	// weighting keeps the node-count share, so training results are
	// unchanged.
	NodeWeights []float64
	// OnRepartition fires on rank 0 after each applied chunk migration.
	OnRepartition func(ev RepartitionEvent)

	// Sync selects the gradient-exchange schedule. SyncBucketedOverlap
	// (default) partitions the gradients into size-capped buckets and
	// launches each bucket's two-stage collective — replica-group sum, then
	// shard-group mean over the reduce-scattered chunk — from the timed
	// gradient-ready hooks mid-backward, folding the modeled cost into the
	// step's overlap timeline. SyncFlatten is the blocking baseline: one
	// flattened two-ring exchange after backward, fully exposed.
	Sync ddp.SyncMode
	// HaloSync selects the halo-exchange schedule (default interior-first
	// overlap; see HaloSyncMode).
	HaloSync HaloSyncMode
	// FP16 ships gradient buckets quantized to half precision with
	// error-feedback residual accumulation (see ddp.Config.FP16).
	FP16 bool
	// BucketBytes caps one gradient bucket for the bucketed schedule
	// (default ddp.DefaultBucketBytes).
	BucketBytes int64
	// AutoTuneBuckets sweeps candidate bucket sizes across the first
	// epoch's steps and locks in the one minimizing the modeled step time
	// (ddp.AutotuneCandidates ladder). Ignored by SyncFlatten.
	AutoTuneBuckets bool
	// OnAutotuneLock fires on rank 0 when the bucket autotuner locks in its
	// winning bucket size.
	OnAutotuneLock func(bucketBytes int64)
	// Trace, when set, records every worker's spans and counters (see
	// internal/trace). Recording never touches virtual clocks or
	// collectives, so a traced run is bitwise identical to an untraced one.
	Trace *trace.Recorder

	// Ctx, when cancellable (Ctx.Done() != nil), is polled once per step
	// through an agreed scalar collective so every worker of the 2D grid
	// stops at the same step (see ddp.Config.Ctx for the contract).
	Ctx context.Context
	// StartEpoch is the absolute index of the first epoch to run (resume);
	// the loop covers epochs [StartEpoch, Epochs).
	StartEpoch int
	// Init, when set, runs on every worker after its replica and optimizer
	// are built — the deterministic checkpoint-injection hook. It must apply
	// identical state on every rank.
	Init func(model nn.SeqModel, opt *nn.Adam) error
	// OnEpoch streams each completed epoch's record from rank 0.
	OnEpoch func(rec metrics.EpochRecord)
	// Faults, when set, arms the grid with a deterministic fault plan (see
	// internal/fault): scheduled crashes abort the run with a typed
	// *cluster.WorkerLostError once the survivors agree on the loss,
	// straggler windows inflate the affected rank's step compute, and
	// link-degrade windows inflate every modeled transfer. An armed but
	// empty plan is bitwise identical to nil.
	Faults *fault.Plan
	// OnSnapshot, when set, streams a consistent epoch-boundary capture of
	// rank 0's replica (parameters, optimizer state, curve, owner vector,
	// clock) — the recovery anchor a fault-armed caller rolls back to. An
	// initial capture fires before the first epoch.
	OnSnapshot func(snap Snapshot)
}

// Snapshot is a consistent epoch-boundary capture of a hybrid run: enough
// state to restart training at NextEpoch on any grid and reproduce the
// continuation bitwise (parameters and optimizer moments are identical on
// every worker at epoch boundaries, so rank 0's copy plus the owner vector
// is the global state).
type Snapshot = ddp.Snapshot

// Result summarizes a hybrid run: the grid trainer's figures plus the
// initial partition's shape.
type Result struct {
	ddp.Result
	Shards   int
	Replicas int
	// EdgeCut, MaxOwn and MaxHalo describe the initial partition
	// (halo-traffic and memory-balance proxies; MaxOwn ~ ceil(N/Shards)).
	EdgeCut, MaxOwn, MaxHalo int
}

// Train runs hybrid spatial x data parallel training: the graph is
// partitioned into cfg.Shards node blocks, each of cfg.Replicas data
// replicas is spread over one replica group of shard workers, halo rows
// travel within replica groups during forward/backward, and gradients are
// summed across each replica group then averaged across shard groups. The
// result matches the unsharded run within floating-point reassociation; the
// 1 x W grid is plain DDP over whole-graph replicas.
//
// By default both communication legs overlap with compute: halo exchanges
// run interior-first (HaloSyncOverlap) and gradient buckets launch
// mid-backward (SyncBucketedOverlap); the virtual clock charges each step
// max(compute, pipelined comm) with every launch serialized on its modeled
// communication channel. The blocking schedules remain selectable for
// ablation and are bitwise-equivalent in training results where the
// collective chunking coincides (the halo schedules always are).
func Train(data *batching.IndexDataset, split batching.Split, g *graph.Graph, supports []*sparse.CSR, factory ModelFactory, cfg Config) (*Result, error) {
	dcfg, grid, plan, err := NewGrid(data, g, supports, factory, cfg)
	if err != nil {
		return nil, err
	}
	res, err := ddp.TrainGrid(data, split, dcfg, grid)
	if err != nil {
		return nil, err
	}
	return &Result{Result: *res, Shards: cfg.Shards, Replicas: cfg.Replicas,
		EdgeCut: plan.EdgeCut, MaxOwn: plan.MaxOwn(), MaxHalo: plan.MaxHalo()}, nil
}

// NewGrid lowers a hybrid configuration onto the grid trainer: the
// ddp.Config of its data-parallel half (Replicas workers) and the ddp.Grid
// whose Bind hands every worker its node-partition half, plus the initial
// plan.
func NewGrid(data *batching.IndexDataset, g *graph.Graph, supports []*sparse.CSR, factory ModelFactory, cfg Config) (ddp.Config, ddp.Grid, *Plan, error) {
	fail := func(err error) (ddp.Config, ddp.Grid, *Plan, error) { return ddp.Config{}, ddp.Grid{}, nil, err }
	switch {
	case cfg.Shards < 1 || cfg.Replicas < 1:
		return fail(fmt.Errorf("shard: need >= 1 shard and replica, got %dx%d", cfg.Shards, cfg.Replicas))
	case data.Data.Dim(1) != g.N:
		return fail(fmt.Errorf("shard: data has %d nodes, graph %d", data.Data.Dim(1), g.N))
	case cfg.NodeWeights != nil && len(cfg.NodeWeights) != g.N:
		return fail(fmt.Errorf("shard: %d node weights for %d nodes", len(cfg.NodeWeights), g.N))
	}
	if err := cfg.Repartition.Validate(); err != nil {
		return fail(err)
	}
	plan := cfg.Plan
	if plan == nil {
		var err error
		if plan, err = BuildPlan(g, supports, cfg.Shards); err != nil {
			return fail(err)
		}
	} else if plan.Shards != cfg.Shards || plan.GlobalN != g.N {
		return fail(fmt.Errorf("shard: plan is %d shards over %d nodes, config wants %d over %d", plan.Shards, plan.GlobalN, cfg.Shards, g.N))
	}
	var totalWeight float64
	for _, nw := range cfg.NodeWeights {
		totalWeight += nw
	}
	world := cfg.Shards * cfg.Replicas
	bind := func(w *cluster.Worker, group []int, seed uint64) (nn.SeqModel, ddp.Shard) {
		if cfg.Shards == 1 {
			return factory(seed, nn.WrapSupports(supports)), nil
		}
		p := &part{w: w, cfg: &cfg, g: g, supports: supports, group: group, totalWeight: totalWeight,
			history: int64(data.Data.Dim(0)) * int64(data.Data.Dim(2)) * 8}
		p.bindPlan(plan)
		p.stats = &Stats{PinFirstLaunch: cfg.Prefetch, Trace: cfg.Trace.Worker(w.Rank()), Channel: cfg.Topology.GroupChannel(world, group)}
		p.props = Propagators(w, group, p.sp, cfg.Topology, p.stats, cfg.HaloSync == HaloSyncOverlap)
		return factory(seed, p.props), p
	}
	dcfg := ddp.Config{
		Workers: cfg.Replicas, BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, StartEpoch: cfg.StartEpoch,
		LR: cfg.LR, UseLRScaling: cfg.UseLRScaling, ClipNorm: cfg.ClipNorm, Sampler: cfg.Sampler, Seed: cfg.Seed,
		Net: cfg.Net, IntraNet: cfg.IntraNet, Topology: cfg.Topology,
		ComputeCost: cfg.ComputeCost, AssembleCost: cfg.AssembleCost, Prefetch: cfg.Prefetch,
		Sync: cfg.Sync, FP16: cfg.FP16, BucketBytes: cfg.BucketBytes, AutoTuneBuckets: cfg.AutoTuneBuckets,
		OnAutotuneLock: cfg.OnAutotuneLock, Trace: cfg.Trace, Ctx: cfg.Ctx, Init: cfg.Init,
		OnEpoch: cfg.OnEpoch, Faults: cfg.Faults, OnSnapshot: cfg.OnSnapshot,
	}
	return dcfg, ddp.Grid{Shards: cfg.Shards, Bind: bind, Staleness: cfg.Staleness}, plan, nil
}

// part is one grid worker's node-partition half (ddp.Shard): its shard of
// the plan, the propagators bound to it, and the halo bookkeeping. The plan
// is worker-local state once repartitioning can replace it mid-run; the
// shared initial plan is never mutated.
type part struct {
	w           *cluster.Worker
	cfg         *Config
	g           *graph.Graph
	supports    []*sparse.CSR
	group       []int
	plan        *Plan
	sp          *ShardPlan
	props       []nn.Propagator
	stats       *Stats
	meta        []ddp.SpanMeta
	computeFrac float64
	totalWeight float64
	history     int64 // one node's full feature history, in bytes
	moves       int
}

// bindPlan points the worker at plan's block for its shard.
func (p *part) bindPlan(plan *Plan) {
	p.plan = plan
	p.sp = plan.Parts[p.w.Rank()%p.cfg.Shards]
	p.computeFrac = p.loadShare(p.sp.Own)
}

// loadShare is a node block's structural compute share: the NodeWeights
// share when skew is injected, the node-count share otherwise (the loss
// weight always keeps the node-count share, so Σ shard losses equals the
// global mean exactly).
func (p *part) loadShare(own []int) float64 {
	share := float64(len(own)) / float64(p.plan.GlobalN)
	if p.cfg.NodeWeights != nil && p.totalWeight > 0 {
		s := 0.0
		for _, u := range own {
			s += p.cfg.NodeWeights[u]
		}
		share = s / p.totalWeight
	}
	return share
}

func (p *part) Own() []int                  { return p.sp.Own }
func (p *part) ComputeFrac() float64        { return p.computeFrac }
func (p *part) BeginStep()                  { p.stats.BeginStep() }
func (p *part) HaloWall() time.Duration     { return p.stats.Wall }
func (p *part) BookBlocked(d time.Duration) { p.stats.stepBlocked += d }
func (p *part) Owner() []int                { return append([]int(nil), p.plan.Owner...) }

// StepEvents implements ddp.Shard: under the overlapped schedule the step's
// exchange launches ride the replica group's channel; blocking exchanges
// already charged the clock inline.
func (p *part) StepEvents(compute time.Duration, structural bool) ([]cluster.CommEvent, []ddp.SpanMeta, time.Duration) {
	st := p.stats
	cost := st.StepCost()
	var events []cluster.CommEvent
	var exposed time.Duration
	p.meta = p.meta[:0]
	if p.cfg.HaloSync == HaloSyncOverlap {
		events = st.StepEvents(compute, structural)
		for i := range events {
			events[i].Channel = st.Channel
			if st.Trace != nil {
				p.meta = append(p.meta, ddp.SpanMeta{Kind: trace.KindHalo, Label: st.stepLabels[i], Bytes: st.stepBytes[i]})
			}
		}
		exposed = cluster.OverlapFinish(compute, events) - compute
	}
	st.Hidden += cost - exposed
	return events, p.meta, exposed
}

// Settle implements ddp.Shard: under the overlapped halo schedule the
// evaluation exchanges record step events nobody overlaps, so their full
// cost is charged inline per batch — exactly what the blocking schedule
// charges; with blocking exchanges it is a no-op.
func (p *part) Settle() {
	st := p.stats
	cost := st.StepCost()
	if cost <= 0 {
		return
	}
	st.ChannelExposed[st.Channel] += cost
	if tw := st.Trace; tw != nil {
		cursor := p.w.VirtualTime()
		for i, ev := range st.events {
			tw.Span(trace.KindHalo, st.stepLabels[i], ddp.CommStream(st.Channel), cursor, ev.Cost, st.stepBytes[i])
			cursor += ev.Cost
		}
		tw.Span(trace.KindExposed, "halo.eval", trace.StreamExposed, p.w.VirtualTime(), cost, 0)
	}
	p.w.AdvanceTime(cost)
}

// EndEpoch implements ddp.Shard: the elastic repartition hook. The grid
// agrees on the per-shard load vector without touching the clock (each
// entry is the max over that shard's replicas of the epoch's compute,
// identical across replicas on structural timelines), so every rank derives
// the same decision from the same vector.
func (p *part) EndEpoch(epoch int, structural, measured time.Duration) error {
	r := p.cfg.Repartition
	if !r.Enabled() || epoch+1 >= p.cfg.Epochs || (r.MaxMoves > 0 && p.moves >= r.MaxMoves) {
		return nil
	}
	load := structural
	if r.Measured {
		load = measured
	}
	loads := make([]float64, p.cfg.Shards)
	for q := range loads {
		v := 0.0
		if q == p.sp.Shard {
			v = load.Seconds()
		}
		loads[q] = p.w.AllReduceScalarFree(v, cluster.OpMax)
	}
	src, dst, nodes, ok := chunkMove(p.g, p.plan, loads, r)
	if !ok {
		return nil
	}
	plan, err := applyMove(p.g, p.supports, p.plan, dst, nodes)
	if err != nil {
		return fmt.Errorf("shard: rank %d repartition: %w", p.w.Rank(), err)
	}
	// Modeled migration window: the moved nodes' full feature history
	// crosses the fabric once; every rank charges the identical cost so the
	// clocks stay aligned.
	bytes := int64(len(nodes)) * p.history
	cost := p.cfg.Net.FetchTime(bytes)
	p.stats.Trace.Span(trace.KindRepartition, fmt.Sprintf("repartition %d->%d", src, dst), trace.StreamStep, p.w.VirtualTime(), cost, bytes)
	p.w.AdvanceTime(cost)
	p.bindPlan(plan)
	if err := Rebind(p.props, p.w, p.group, p.sp, p.cfg.Topology, p.stats, p.cfg.HaloSync == HaloSyncOverlap); err != nil {
		return fmt.Errorf("shard: rank %d repartition: %w", p.w.Rank(), err)
	}
	p.moves++
	if p.w.Rank() == 0 && p.cfg.OnRepartition != nil {
		p.cfg.OnRepartition(RepartitionEvent{Epoch: epoch, From: src, To: dst, Nodes: nodes, Loads: loads, EdgeCut: plan.EdgeCut})
	}
	return nil
}

// Report implements ddp.Shard: the halo figures, the inline-charged halo
// exposure (blocking exchanges, eval settles) per channel, and — on rank
// 0 — the final per-shard loads.
func (p *part) Report(res *ddp.Result) {
	st := p.stats
	res.HaloTime, res.HaloHiddenTime, res.HaloBytes = st.Time, st.Hidden, st.Bytes
	res.CommExposedIntra += st.ChannelExposed[cluster.ChannelIntra]
	res.CommExposedInter += st.ChannelExposed[cluster.ChannelInter]
	res.Repartitions = p.moves
	if p.w.Rank() == 0 {
		res.ShardLoads = make([]float64, p.cfg.Shards)
		for q := range res.ShardLoads {
			res.ShardLoads[q] = p.loadShare(p.plan.Parts[q].Own)
		}
	}
	if tw := st.Trace; tw != nil {
		tw.Add("halo.wire.bytes", st.Bytes)
		tw.Add("halo.exposed.ns", int64(st.Time-st.Hidden))
		tw.Add("halo.hidden.ns", int64(st.Hidden))
	}
}
