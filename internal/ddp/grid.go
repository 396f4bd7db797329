package ddp

import (
	"fmt"
	"sort"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/tensor"
	"pgti/internal/trace"
)

// Grid composes the Shards x Replicas process grid TrainGrid runs:
// Config.Workers data replicas, each spread over Shards node-partition
// workers. Rank layout: rank = replica*Shards + shard, so each replica group
// is a contiguous rank block (halo neighbours land on the same simulated
// node under a matching Topology) and each shard group is a stride-Shards
// comb. Plain DDP is the 1 x W grid.
type Grid struct {
	// Shards is the node-partition count; 0 and 1 both keep the graph whole.
	Shards int
	// Bind builds one worker's replica, called once per worker with the
	// shared seed (replicas must initialize identically) and the worker's
	// replica group. On a sharded grid it also returns the worker's
	// node-partition half; a nil Shard means the whole graph.
	Bind func(w *cluster.Worker, replicaGroup []int, seed uint64) (nn.SeqModel, Shard)
	// Staleness bounds the gradient pipeline depth: when K > 0 (bucketed
	// sync only), the collective still launches every step, but the
	// optimizer applies each synchronized gradient up to K steps late with
	// the staleness-compensated extrapolation g + K*(g - g_prev), so the
	// sync cost hides under the following K steps' compute instead of the
	// step's own tail. The queue drains at epoch end (and on cancellation),
	// so every gradient is applied exactly once and replicas stay bitwise
	// identical; zero keeps the synchronous schedule.
	Staleness int
	// Masked trains and validates with the masked MAE, skipping targets
	// equal to the standardized raw zero (the missing-data encoding). A
	// masked mean across shards would need a grid-wide count of observed
	// targets, so sharded grids reject it.
	Masked bool
}

// Shard is one grid worker's node-partition half: the graph nodes it owns
// and the halo exchanges its propagators run. Package shard implements it.
type Shard interface {
	// Own lists the global node ids the worker's loss and metrics cover
	// (ascending); the step gathers them from each batch.
	Own() []int
	// ComputeFrac is the worker's share of the full-graph compute charge.
	ComputeFrac() float64
	// BeginStep opens a train step's (or eval batch's) halo timeline.
	BeginStep()
	// HaloWall is the cumulative wall time spent blocked in halo exchanges
	// (communication, so measured step timing subtracts it).
	HaloWall() time.Duration
	// BookBlocked adds wall time spent blocked in a gradient collective,
	// which the step's halo launch offsets exclude.
	BookBlocked(d time.Duration)
	// StepEvents returns the step's overlapped halo exchanges stamped onto
	// the [0, compute) timeline and their trace labels (nil unless traced),
	// plus the halo tail past compute; it books the part compute hides.
	StepEvents(compute time.Duration, structural bool) ([]cluster.CommEvent, []SpanMeta, time.Duration)
	// Settle charges the eval batch's halo exchanges inline: there is no
	// modeled eval compute to hide them under.
	Settle()
	// EndEpoch is the epoch-boundary hook (elastic repartitioning), fed
	// the epoch's structural and measured (straggler-scaled) compute.
	EndEpoch(epoch int, structural, measured time.Duration) error
	// Owner is the node->shard vector a snapshot captures.
	Owner() []int
	// Report adds the worker's halo figures (traffic, hidden time, inline
	// per-channel exposure, repartitions, loads) to res and its trace.
	Report(res *Result)
}

// SpanMeta carries the trace annotation of one step comm event through the
// merged-timeline sort.
type SpanMeta struct {
	Kind  trace.Kind
	Label string
	Bytes int64
}

// CommStream maps a modeled comm channel onto its trace export lane.
func CommStream(ch cluster.Channel) int {
	if ch == cluster.ChannelIntra {
		return trace.StreamCommIntra
	}
	return trace.StreamCommInter
}

// wholeGraph is the unsharded grid's Shard: every node, no halo.
type wholeGraph struct{}

func (wholeGraph) Own() []int                { return nil }
func (wholeGraph) ComputeFrac() float64      { return 1 }
func (wholeGraph) BeginStep()                {}
func (wholeGraph) HaloWall() time.Duration   { return 0 }
func (wholeGraph) BookBlocked(time.Duration) {}
func (wholeGraph) StepEvents(time.Duration, bool) ([]cluster.CommEvent, []SpanMeta, time.Duration) {
	return nil, nil, 0
}
func (wholeGraph) Settle()                                          {}
func (wholeGraph) EndEpoch(int, time.Duration, time.Duration) error { return nil }
func (wholeGraph) Owner() []int                                     { return nil }
func (wholeGraph) Report(*Result)                                   {}

// TrainGrid runs synchronous data-parallel training on a Shards x Replicas
// grid: every replica group cooperates on one batch (each shard computes its
// owned nodes, halo rows travel within the group), and gradients are summed
// across each replica group then averaged across shard groups, so every
// worker ends each step with the identical global gradient. On the 1 x W
// grid this is plain DDP: whole-graph replicas whose gradients average with
// the configured flat-fabric algorithm (ring, flat or hierarchical).
//
// By default communication overlaps compute: gradient buckets launch
// mid-backward and (on sharded grids) halo exchanges run interior-first; the
// virtual clock charges each step max(compute, pipelined comm), with the
// collectives serialized per modeled channel. The run is reproducible
// bit-for-bit: all workers see identical initialization and the
// deterministic sampler schedule.
func TrainGrid(data *batching.IndexDataset, split batching.Split, cfg Config, grid Grid) (*Result, error) {
	shards := max(grid.Shards, 1)
	switch {
	case cfg.Workers < 1:
		return nil, fmt.Errorf("ddp: need >= 1 worker, got %d", cfg.Workers)
	case cfg.BatchSize < 1:
		return nil, fmt.Errorf("ddp: need batch size >= 1, got %d", cfg.BatchSize)
	case cfg.Epochs < 1:
		return nil, fmt.Errorf("ddp: need >= 1 epoch, got %d", cfg.Epochs)
	case grid.Staleness < 0:
		return nil, fmt.Errorf("ddp: staleness bound must be >= 0, got %d", grid.Staleness)
	case grid.Masked && shards > 1:
		return nil, fmt.Errorf("ddp: the masked loss is unsupported on a sharded grid (its mean needs a grid-wide count)")
	case cfg.Store != nil && cfg.RemoteFetch:
		return nil, fmt.Errorf("ddp: Store and RemoteFetch are mutually exclusive data paths")
	case cfg.Store != nil && cfg.Store.Workers() != cfg.Workers:
		return nil, fmt.Errorf("ddp: store partitioned for %d workers, run has %d", cfg.Store.Workers(), cfg.Workers)
	case len(split.Train) < cfg.Workers:
		return nil, fmt.Errorf("ddp: %d training snapshots cannot feed %d workers", len(split.Train), cfg.Workers)
	}
	world := shards * cfg.Workers
	if err := cfg.Faults.Validate(world); err != nil {
		return nil, fmt.Errorf("ddp: %w", err)
	}
	clu, err := cluster.New(cluster.Config{Workers: world, Net: cfg.Net, IntraNet: cfg.IntraNet, Faults: cfg.Faults})
	if err != nil {
		return nil, err
	}
	// The legacy Sync knob maps onto the flat algorithm when Algo is unset.
	algo := cfg.Algo
	if algo == GradAlgoRing && cfg.Sync == SyncFlatten {
		algo = GradAlgoFlat
	}
	lr := cfg.LR
	if lr <= 0 {
		lr = 0.01
	}
	if cfg.UseLRScaling {
		lr = nn.ScaleLR(lr, cfg.Workers)
	}

	outs := make([]*Result, world)
	checksums := make([]float64, world)
	// A cancellable context is polled through an agreed per-step collective;
	// plain contexts add nothing to the step so their timelines are
	// untouched.
	cancellable := cfg.Ctx != nil && cfg.Ctx.Done() != nil
	// Bucketed overlap only pays off with real peers; a single worker has
	// nothing to exchange and skips the sync altogether.
	bucketed := algo != GradAlgoFlat && world > 1
	stale := grid.Staleness > 0 && bucketed
	net := clu.Net()
	// Store-backed runs fetch every batch through the store: no local
	// collation to prefetch or charge.
	prefetch := cfg.Prefetch && cfg.Store == nil
	assembleCost := cfg.AssembleCost
	if cfg.Store != nil {
		assembleCost = nil
	}
	// Per-batch byte volume for the baseline-DDP fetch path: x and y.
	n, f := data.Data.Dim(1), data.Data.Dim(2)
	batchBytes := int64(cfg.BatchSize) * int64(2*data.Horizon) * int64(n) * int64(f) * 8
	maskValue := (0 - data.Mean) / data.Std

	runErr := clu.Run(func(w *cluster.Worker) error {
		rank := w.Rank()
		rep, sh := rank/shards, rank%shards
		replicaGroup := make([]int, shards)
		for i := range replicaGroup {
			replicaGroup[i] = rep*shards + i
		}
		shardGroup := make([]int, cfg.Workers)
		for i := range shardGroup {
			shardGroup[i] = i*shards + sh
		}
		tw := cfg.Trace.Worker(rank)
		cfg.Trace.NameWorker(rank, fmt.Sprintf("train rank %d (replica %d, shard %d)", rank, rep, sh))
		model, part := grid.Bind(w, replicaGroup, cfg.Seed)
		if part == nil {
			part = wholeGraph{}
		}
		params := model.Parameters()
		opt := nn.NewAdam(model, lr)
		if cfg.Init != nil {
			if err := cfg.Init(model, opt); err != nil {
				return fmt.Errorf("ddp: rank %d init: %w", rank, err)
			}
		}
		res := &Result{}
		// Epoch-boundary recovery points (rank 0, only when a consumer
		// listens): parameters and optimizer moments are identical on every
		// worker at the boundary, so rank 0's copy plus the owner vector is
		// the full recovery anchor. The initial one covers a crash inside the
		// first epoch.
		capture := func(nextEpoch int) {
			if rank != 0 || cfg.OnSnapshot == nil {
				return
			}
			cfg.OnSnapshot(Snapshot{
				NextEpoch:   nextEpoch,
				Params:      nn.SnapshotParams(model),
				State:       nn.CaptureTrainState(opt, nextEpoch),
				Curve:       append(metrics.Curve(nil), res.Curve...),
				Owner:       part.Owner(),
				VirtualTime: w.VirtualTime(),
			})
		}
		capture(cfg.StartEpoch)
		sampler := newSampler(cfg.Sampler, split.Train, cfg.BatchSize, cfg.Workers, rep, cfg.Seed)
		// This replica's validation batches, fixed for the whole run.
		evalLo, evalHi := batching.PartitionRange(len(split.Val), cfg.Workers, rep)
		evalBatches := batching.Batches(split.Val[evalLo:evalHi], cfg.BatchSize)
		// The train loop's batches live in the prefetcher's double buffer (or
		// buf on the serial path); evaluation gets its own buffer so eval
		// assembly never clobbers a slot the train pipeline still owns.
		var buf, evalBuf batching.BatchBuffer
		var gradBuf []float64
		var flatCodec cluster.FP16Codec
		var stepEvents []cluster.CommEvent
		var stepMeta []SpanMeta
		sorter := &stepEventSorter{}

		// The overlap-timeline channels this rank's collectives occupy: halo
		// exchanges stay within the replica group, gradient buckets cross
		// the shard group. The unsharded grid prices everything on the flat
		// fabric, as does a flat topology.
		haloCh, gradCh := cluster.ChannelInter, cluster.ChannelInter
		if shards > 1 {
			haloCh = cfg.Topology.GroupChannel(world, replicaGroup)
			gradCh = cfg.Topology.GroupChannel(world, shardGroup)
		}
		// Per-channel exposed communication (the Result split and the
		// comm.exposed.{intra,inter} counters).
		var expCh [cluster.NumChannels]time.Duration
		// charge books one inline (clock-synchronized) transfer: the trace
		// gets the transfer window and its exposed twin ending at the current
		// virtual time.
		charge := func(kind trace.Kind, name string, ch cluster.Channel, cost time.Duration, bytes int64) {
			res.CommTime += cost
			expCh[ch] += cost
			if tw != nil {
				at := w.VirtualTime() - cost
				tw.Span(kind, name, CommStream(ch), at, cost, bytes)
				tw.Span(trace.KindExposed, name, trace.StreamExposed, at, cost, 0)
			}
		}

		// fetch models an on-demand data fetch through the data service,
		// fully exposed on the fabric.
		fetch := func(name string, bytes int64) {
			w.FetchRemote(bytes)
			charge(trace.KindFetch, name, cluster.ChannelInter, net.FetchTime(bytes), bytes)
		}

		// One prefetcher per epoch; closed on every exit path (the deferred
		// close covers error returns and cancellation). The eval prefetcher
		// spins up under the epoch's last train step so the first validation
		// batch is resident when the tail eval pass begins.
		var pf, evalPf *batching.Prefetcher
		defer func() {
			if pf != nil {
				pf.Close()
			}
			if evalPf != nil {
				evalPf.Close()
			}
		}()

		// The bucket collective: the grouped two-stage exchange (replica-group
		// sum, shard-group mean) on sharded grids, the flat-world ring or
		// hierarchical AllReduce otherwise. Wall time blocked inside it is
		// booked against the step so halo launch offsets measure compute only
		// (the syncer's own CommWall keeps bucket offsets clean of halo
		// blocking below).
		launch := func(vec []float64, wireBytes int64) time.Duration {
			t0 := time.Now()
			var cost time.Duration
			switch {
			case shards > 1:
				cost = w.AsyncTwoStageAllReduce(vec, replicaGroup, shardGroup, wireBytes, cfg.Topology)
			case algo == GradAlgoHierarchical:
				cost = w.AsyncHierarchicalAllReduceMeanSized(vec, cfg.Topology, wireBytes)
			default:
				cost = w.AsyncRingAllReduceMeanSized(vec, wireBytes)
			}
			part.BookBlocked(time.Since(t0))
			return cost
		}
		var bucketBytes int64
		var syncer *OverlapSyncer
		var sweep *BucketSweep
		if bucketed {
			sweep, syncer, bucketBytes = newGradSync(w, net, params, launch, cfg.FP16, cfg.AutoTuneBuckets, cfg.BucketBytes, cfg.OnAutotuneLock)
		}

		// Bounded-staleness pipeline state (see Grid.Staleness): each step's
		// synchronized gradient is queued with the absolute virtual time its
		// collectives finish on the persistent gradient engine; the optimizer
		// applies the queue head once it is K steps old. All ranks hold
		// bitwise-identical queues (the exchange itself is synchronous — only
		// the application is deferred), preserving the replica invariant.
		K := grid.Staleness
		type pendingGrad struct {
			vec    []float64
			finish time.Duration
		}
		var staleQ []pendingGrad
		var freeVecs [][]float64
		var lastApplied, staleComp []float64
		var gradChanFree time.Duration
		applyStale := func(g []float64) {
			comp := g
			if lastApplied != nil {
				// Staleness compensation: extrapolate the delayed gradient K
				// steps forward along its last observed change, first-order
				// correcting for the weights having moved since it was
				// computed. The first application has no history and applies
				// the gradient as-is.
				if cap(staleComp) < len(g) {
					staleComp = make([]float64, len(g))
				}
				staleComp = staleComp[:len(g)]
				kf := float64(K)
				for i := range g {
					staleComp[i] = g[i] + kf*(g[i]-lastApplied[i])
				}
				comp = staleComp
			}
			UnflattenGrads(params, comp)
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(model, cfg.ClipNorm)
			}
			opt.Step()
			if lastApplied != nil {
				freeVecs = append(freeVecs, lastApplied)
			}
			lastApplied = g
		}

		// slice restricts a batch to the worker's own nodes: the model input
		// and the first target feature. weight is the batch's metric weight,
		// (snapshot, node) pairs on a sharded grid.
		slice := func(x, y *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
			target := y.Slice(3, 0, 1).Contiguous()
			if own := part.Own(); own != nil {
				return gatherNodeAxis(x, own), gatherNodeAxis(target, own)
			}
			return x, target
		}
		weight := func(items int) int {
			if own := part.Own(); own != nil {
				return items * len(own)
			}
			return items
		}
		mae := func(pred, target *tensor.Tensor) float64 {
			if grid.Masked {
				return metrics.MaskedMAE(pred, target, maskValue)
			}
			return metrics.MAE(pred, target)
		}
		// evaluate computes this worker's share of the validation MAE and
		// reduces the grid-wide weighted mean (original signal units). With
		// the tail-overlap prefetcher, batches arrive pre-assembled (falling
		// back to serial assembly if it drains early, e.g. after a Close).
		evaluate := func() float64 {
			var acc metrics.Running
			for _, batch := range evalBatches {
				part.BeginStep()
				var x, y *tensor.Tensor
				ok := false
				if evalPf != nil {
					x, y, ok = evalPf.Next()
				}
				if !ok {
					x, y = data.AssembleBatch(batch, &evalBuf)
				}
				xIn, target := slice(x, y)
				pred := model.Forward(autograd.Constant(xIn))
				part.Settle()
				acc.Add(mae(pred.Value, target)*data.Std, weight(len(batch)))
			}
			return reduceWeighted(w, acc)
		}

		cancelled := false
		for epoch := cfg.StartEpoch; epoch < cfg.Epochs; epoch++ {
			batches := sampler.EpochBatches(epoch)
			// Equalize step counts across workers so collectives line up.
			stepsThisEpoch := int(w.AllReduceScalar(float64(len(batches)), cluster.OpMin))
			if prefetch {
				pf = batching.NewPrefetcher(data, batches[:stepsThisEpoch])
			}
			var trainAcc metrics.Running
			// epochCompute is the structural per-step charge (blind to
			// straggler scaling); epochMeasured is the scaled charge the clock
			// actually advanced by. The partition's epoch hook picks one.
			var epochCompute, epochMeasured time.Duration
			for s := 0; s < stepsThisEpoch; s++ {
				if cancellable {
					// Agree on cancellation before the step starts: every
					// worker stops at the same step, so no collective is left
					// half-issued. The poll is clock-free, so a cancellable
					// run keeps the exact modeled timeline of a plain one.
					flag := 0.0
					if cfg.Ctx.Err() != nil {
						flag = 1
					}
					if w.AllReduceScalarFree(flag, cluster.OpMax) > 0 {
						cancelled = true
						break
					}
				}
				// Crash detection rides the same agreed step boundary: every
				// rank returns the same typed error.
				if err := w.FaultPoll(); err != nil {
					return err
				}
				idx := batches[s]
				var x, y *tensor.Tensor
				if cfg.Store != nil {
					var remote int64
					x, y, _, remote = cfg.Store.FetchBatch(rep, idx, &buf)
					if remote > 0 {
						fetch("fetch.boundary", remote)
					}
				} else if cfg.RemoteFetch {
					fetch("fetch.batch", batchBytes)
				}
				if pf != nil {
					// Pipelined path: receive the pre-assembled batch before
					// the timed span starts (waiting for the collator is
					// assembly, not compute).
					var ok bool
					if x, y, ok = pf.Next(); !ok {
						return fmt.Errorf("ddp: rank %d: prefetcher exhausted at step %d of %d", rank, s, stepsThisEpoch)
					}
					if s == stepsThisEpoch-1 && len(evalBatches) > 0 {
						// Tail overlap: the epoch's last train step has no
						// next train batch, so the collator assembles the
						// first validation batch under it instead.
						evalPf = batching.NewPrefetcher(data, evalBatches)
					}
				}
				start := time.Now()
				part.BeginStep()
				haloWall := part.HaloWall()
				if cfg.Store == nil && pf == nil {
					x, y = data.AssembleBatch(idx, &buf)
				}
				xIn, target := slice(x, y)
				pred := model.Forward(autograd.Constant(xIn))
				var lossLocal *autograd.Variable
				if grid.Masked {
					lossLocal = autograd.MaskedMAELoss(pred, target, maskValue)
				} else {
					lossLocal = autograd.MAELoss(pred, target)
				}
				loss := lossLocal
				if own := part.Own(); own != nil {
					// The sum of the shard losses equals the global-mean loss,
					// so summing the backward gradients across the replica
					// group reproduces the unsharded gradient exactly.
					loss = autograd.ScalarMul(lossLocal, float64(len(own))/float64(n))
				}
				var fwdWall, bwdWall time.Duration
				if bucketed {
					// Bucketed overlapping sync: bucket collectives launch from
					// the timed gradient-ready hook while backward still runs.
					// Bucket ready stamps, like halo launch offsets, measure
					// backward *compute*: the hook strips the halo blocking
					// accumulated so far (the syncer strips its own
					// collective blocking).
					syncer.Reset()
					fwdWall = max(time.Since(start)-(part.HaloWall()-haloWall), 0)
					bwdHaloWall := part.HaloWall()
					hook := func(leaf *autograd.Variable, elapsed time.Duration) {
						syncer.OnGradReady(leaf, elapsed-(part.HaloWall()-bwdHaloWall))
					}
					var err error
					if bwdWall, err = autograd.BackwardTimed(loss, hook); err != nil {
						return fmt.Errorf("ddp: rank %d backward: %w", rank, err)
					}
					bwdWall = max(bwdWall-syncer.CommWall()-(part.HaloWall()-bwdHaloWall), 0)
					syncer.Flush(bwdWall)
				} else if err := autograd.Backward(loss); err != nil {
					return fmt.Errorf("ddp: rank %d backward: %w", rank, err)
				}
				// The step's compute span. Modeled runs keep the timeline
				// structural (machine-independent virtual clocks: never mix
				// measured wall fractions into modeled time); measured runs
				// subtract the wall time spent blocked in exchanges and
				// collective launches (that is communication, not compute).
				structural := cfg.ComputeCost != nil
				var compute time.Duration
				if structural {
					compute = time.Duration(part.ComputeFrac() * float64(cfg.ComputeCost(len(idx))))
					fwdWall, bwdWall = 0, 0
				} else {
					compute = time.Since(start) - (part.HaloWall() - haloWall)
					if bucketed {
						compute -= syncer.CommWall()
					}
					compute = max(compute, 0)
				}
				epochCompute += compute
				compute = w.ScaleCompute(compute)
				epochMeasured += compute
				// asm prices collating this step's batch; nextAsm is what the
				// background collator works on under this step — the next
				// train batch, or (on the epoch's last step) the first eval
				// batch the tail-overlap prefetcher is filling.
				var asm, nextAsm time.Duration
				if assembleCost != nil {
					asm = assembleCost(len(idx))
					if pf != nil {
						if s+1 < stepsThisEpoch {
							nextAsm = asm
						} else if evalPf != nil {
							nextAsm = assembleCost(len(evalBatches[0]))
						}
					}
				}
				if asm > 0 && pf != nil && s == 0 {
					// Pipeline fill: the epoch's leading assembly has no
					// previous step to hide under.
					tw.Span(trace.KindAssemble, "assemble.fill", trace.StreamAssembly, w.VirtualTime(), asm, 0)
					w.AdvanceTime(asm)
				}
				t0 := w.VirtualTime()
				// Charge the step: overlapped halo launches ride the replica
				// group's engine and gradient buckets the shard group's, each
				// engine serializing its own events while the two pipeline
				// independently; the clock advances by max(compute, every
				// engine's last finish). With every exchange blocking the
				// event list is empty and the charge degenerates to compute
				// (blocking halo exchanges charged the clock inline and the
				// flatten sync charges it below).
				hev, hmeta, haloExposed := part.StepEvents(compute, structural)
				events := append(stepEvents[:0], hev...)
				meta := append(stepMeta[:0], hmeta...)
				var gradFinish time.Duration
				if bucketed {
					gevs := syncer.Timeline(compute, fwdWall, bwdWall)
					for i := range gevs {
						gevs[i].Channel = gradCh
					}
					if stale {
						// Bounded staleness: the step no longer waits for its
						// own gradient collectives — they book onto the
						// persistent gradient engine spanning steps, and step
						// s+K blocks on this step's finish instead.
						for gi, ev := range gevs {
							st := max(t0+ev.ReadyAt, gradChanFree)
							if tw != nil {
								tw.Span(trace.KindGrad, fmt.Sprintf("grad b%d", syncer.LaunchBuckets()[gi]), trace.StreamGradEngine, st, ev.Cost, syncer.LaunchWire()[gi])
							}
							gradChanFree = st + ev.Cost
						}
						gradFinish = gradChanFree
					} else {
						if tw != nil {
							for i := range gevs {
								meta = append(meta, SpanMeta{Kind: trace.KindGrad, Label: fmt.Sprintf("grad b%d", syncer.LaunchBuckets()[i]), Bytes: syncer.LaunchWire()[i]})
							}
						}
						events = append(events, gevs...)
						if shards > 1 {
							// Merge the halo and gradient launches by ready
							// time (stably, keeping the trace labels aligned).
							sorter.events, sorter.meta = events, meta
							sort.Stable(sorter)
						}
					}
				}
				stepEvents, stepMeta = events, meta
				step := cluster.OverlapFinishChannels(compute, events)
				exposed := step - compute
				// Host-side collation: the serial path exposes it ahead of
				// the step; the prefetch pipeline assembles the next batch
				// under this step, so the step charge is max(step, assemble).
				if pf == nil {
					step += asm
				} else if nextAsm > step {
					step = nextAsm
				}
				stepEnd := t0 + step
				for c, d := range cluster.OverlapChannelExposure(compute, events) {
					expCh[c] += d
				}
				if tw != nil {
					// The step body (compute + overlapped comm) starts after
					// the serially-exposed assembly; the prefetch path's
					// assembly is occupancy under the step.
					base := t0
					if pf == nil {
						if asm > 0 {
							base += asm
							tw.Span(trace.KindAssemble, "assemble", trace.StreamAssembly, t0, asm, 0)
						}
					} else if nextAsm > 0 {
						name := "assemble.next"
						if s+1 >= stepsThisEpoch {
							name = "assemble.eval"
						}
						tw.Span(trace.KindAssemble, name, trace.StreamAssembly, t0, nextAsm, 0)
					}
					tw.Span(trace.KindCompute, "compute", trace.StreamCompute, base, compute, 0)
					spans, _ := cluster.OverlapScheduleChannels(compute, events)
					for i, sp := range spans {
						m := meta[i]
						tw.Span(m.Kind, m.Label, CommStream(sp.Event.Channel), base+sp.Start, sp.Finish-sp.Start, m.Bytes)
					}
					if exposed > 0 {
						tw.Span(trace.KindExposed, "comm.tail", trace.StreamExposed, base+compute, exposed, 0)
					}
				}
				switch {
				case stale:
					gv := []float64(nil)
					if k := len(freeVecs); k > 0 {
						gv, freeVecs = freeVecs[k-1], freeVecs[:k-1]
					}
					gv = FlattenGrads(params, gv)
					// The update is deferred; clear the accumulated grads so
					// the next backward starts from zero (opt.Step, which
					// normally zeroes them, is skipped this step).
					for _, pm := range params {
						pm.V.ZeroGrad()
					}
					staleQ = append(staleQ, pendingGrad{vec: gv, finish: gradFinish})
					var tail time.Duration
					if len(staleQ) > K {
						pg := staleQ[0]
						staleQ = staleQ[1:]
						if pg.finish > stepEnd {
							tail = pg.finish - stepEnd
							tw.Span(trace.KindExposed, "stale.tail", trace.StreamExposed, stepEnd, tail, 0)
							stepEnd = pg.finish
						}
						tw.AsyncSpan(trace.KindStaleApply, "stale.apply", trace.StreamGradEngine, pg.finish, stepEnd-pg.finish, 0)
						applyStale(pg.vec)
					}
					res.CommTime += tail
					expCh[gradCh] += tail
					if hid := syncer.TotalCost() - tail; hid > 0 {
						res.CommHiddenTime += hid
					}
					res.GradSyncBytes += syncer.StepBytes()
					res.CommBytesSaved += syncer.StepSaved()
					w.AdvanceTime(stepEnd - t0)
				case bucketed:
					w.AdvanceTime(stepEnd - t0)
					gradExposed := exposed - haloExposed
					res.CommTime += gradExposed
					res.CommHiddenTime += syncer.TotalCost() - gradExposed
					res.GradSyncBytes += syncer.StepBytes()
					res.CommBytesSaved += syncer.StepSaved()
				default:
					w.AdvanceTime(stepEnd - t0)
					if world == 1 {
						break // a lone worker ships nothing
					}
					// Flatten baseline: one blocking, fully exposed exchange
					// after backward — the flat-world ring on the unsharded
					// grid; on a sharded one the replica-group sum (the
					// spatial reduction), then the shard-group mean (the
					// data-parallel mean). Every worker ends with the
					// bitwise-identical global gradient.
					gradBuf = FlattenGrads(params, gradBuf)
					wire := int64(len(gradBuf)) * 8
					var saved int64
					if cfg.FP16 {
						flatCodec.ApplyInPlace(gradBuf)
						compressed := cluster.FP16WireBytes(len(gradBuf))
						saved = wire - compressed
						wire = compressed
					}
					// Saved and shipped bytes stay on the same per-collective
					// basis: each stage ships (and so each stage saves).
					stage := func(name string, ch cluster.Channel, cost time.Duration) {
						charge(trace.KindGrad, name, ch, cost, wire)
						res.GradSyncBytes += wire
						res.CommBytesSaved += saved
					}
					if shards == 1 {
						// The clock delta of the synchronized collective also
						// contains straggler wait (compute imbalance, not
						// communication), so the modeled cost is booked.
						w.RingAllReduceMeanSized(gradBuf, wire)
						stage("grad.flatten", gradCh, net.RingAllReduceTime(wire, cfg.Workers))
					} else {
						stage("grad.flatten.replica-sum", haloCh, w.GroupRingAllReduceSized(gradBuf, replicaGroup, wire, false, cfg.Topology))
						if cfg.Workers > 1 {
							stage("grad.flatten.shard-mean", gradCh, w.GroupRingAllReduceSized(gradBuf, shardGroup, wire, true, cfg.Topology))
						}
					}
					UnflattenGrads(params, gradBuf)
				}
				if !stale {
					// One clip point on every path: the synchronized gradient
					// (torch-DDP order). Under bounded staleness clipping
					// moves to application time.
					if cfg.ClipNorm > 0 {
						nn.ClipGradNorm(model, cfg.ClipNorm)
					}
					opt.Step()
				}
				if tw != nil {
					tw.Span(trace.KindStep, fmt.Sprintf("step %d", res.Steps), trace.StreamStep, t0, w.VirtualTime()-t0, 0)
				}
				res.Steps++
				w.Barrier() // synchronous step boundary (straggler wait)
				if sweep.Active() {
					syncer = sweep.Step(syncer, compute)
					bucketBytes = sweep.BucketBytes()
				}
				// Report in the signal's original units, like validation.
				trainAcc.Add(lossLocal.Value.Item()*data.Std, weight(len(idx)))
			}
			if pf != nil {
				// Drain the collator before eval (and before the next epoch
				// builds a fresh one); on cancellation it may still be
				// mid-stream, which Close handles.
				pf.Close()
				pf = nil
			}
			// Drain the staleness pipeline: every queued gradient applies
			// before evaluation — and before a cancelled exit — so the update
			// count matches the synchronous schedule and replicas stay
			// bitwise identical.
			for len(staleQ) > 0 {
				pg := staleQ[0]
				staleQ = staleQ[1:]
				if d := pg.finish - w.VirtualTime(); d > 0 {
					res.CommTime += d
					expCh[gradCh] += d
					tw.Span(trace.KindExposed, "stale.drain", trace.StreamExposed, w.VirtualTime(), d, 0)
					w.AdvanceTime(d)
				}
				tw.AsyncSpan(trace.KindStaleApply, "stale.apply", trace.StreamGradEngine, pg.finish, w.VirtualTime()-pg.finish, 0)
				applyStale(pg.vec)
			}
			if cancelled {
				// Mid-epoch stop (agreed above): drop the partial epoch's
				// metrics — the curve holds completed epochs only.
				break
			}
			// The sweep is confined to the first epoch: a short epoch locks
			// in the best candidate tried so far.
			if sweep.Active() {
				syncer = sweep.EndEpoch(syncer)
				bucketBytes = sweep.BucketBytes()
			}
			// Epoch metrics: weighted AllReduce of train loss and val MAE
			// (the validation AllReduce the paper lists as DDP overhead).
			trainMAE := reduceWeighted(w, trainAcc)
			valMAE := evaluate()
			if evalPf != nil {
				evalPf.Close()
				evalPf = nil
			}
			rec := metrics.EpochRecord{Epoch: epoch, TrainMAE: trainMAE, ValMAE: valMAE}
			res.Curve = append(res.Curve, rec)
			if rank == 0 && cfg.OnEpoch != nil {
				cfg.OnEpoch(rec)
			}
			if err := part.EndEpoch(epoch, epochCompute, epochMeasured); err != nil {
				return err
			}
			// Captured after the epoch hook so the owner vector reflects the
			// state a restart at epoch+1 actually trains on.
			capture(epoch + 1)
		}
		for _, p := range params {
			checksums[rank] += p.Tensor().SumAll()
		}
		w.Barrier()
		res.VirtualTime, res.Cancelled = w.VirtualTime(), cancelled
		res.GradBuckets = 1
		if bucketed {
			res.GradBuckets, res.BucketBytes = syncer.NumBuckets(), bucketBytes
		}
		part.Report(res)
		res.CommExposedIntra += expCh[cluster.ChannelIntra]
		res.CommExposedInter += expCh[cluster.ChannelInter]
		if tw != nil {
			tw.Add("grad.wire.bytes", res.GradSyncBytes)
			tw.Add("grad.wire.saved.bytes", res.CommBytesSaved)
			tw.Add("comm.exposed.ns", int64(res.CommTime))
			tw.Add("comm.hidden.ns", int64(res.CommHiddenTime))
			tw.Add("comm.exposed.intra.ns", int64(res.CommExposedIntra))
			tw.Add("comm.exposed.inter.ns", int64(res.CommExposedInter))
		}
		if rank == 0 {
			res.Model, res.Opt = model, opt
		}
		outs[rank] = res
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	// Every worker must hold the identical parameters: replicas within shard
	// groups by DDP's invariant, shards by the deterministic two-stage sync.
	for r := 1; r < world; r++ {
		if checksums[r] != checksums[0] {
			return nil, fmt.Errorf("ddp: replica divergence: rank %d checksum %v vs rank 0 %v", r, checksums[r], checksums[0])
		}
	}
	res := outs[0]
	res.Algo = algo
	res.GlobalBatch = cfg.BatchSize * cfg.Workers
	return res, nil
}

// stepEventSorter orders the step's merged comm events by ReadyAt while
// keeping the (optional) trace metadata aligned. It sorts stably, and a
// stable sort's output is uniquely determined by keys and input order, so
// untraced runs (nil meta) produce exactly the slice sort.SliceStable would.
type stepEventSorter struct {
	events []cluster.CommEvent
	meta   []SpanMeta
}

func (s *stepEventSorter) Len() int           { return len(s.events) }
func (s *stepEventSorter) Less(i, j int) bool { return s.events[i].ReadyAt < s.events[j].ReadyAt }
func (s *stepEventSorter) Swap(i, j int) {
	s.events[i], s.events[j] = s.events[j], s.events[i]
	if len(s.meta) > 0 {
		s.meta[i], s.meta[j] = s.meta[j], s.meta[i]
	}
}

// gatherNodeAxis selects the given nodes along axis 2 of a [B, T, N, F]
// tensor, producing [B, T, len(nodes), F] — the worker's slice of a batch.
func gatherNodeAxis(t *tensor.Tensor, nodes []int) *tensor.Tensor {
	shape := t.Shape()
	out := tensor.New(shape[0], shape[1], len(nodes), shape[3])
	for i, n := range nodes {
		out.Slice(2, i, i+1).CopyFrom(t.Slice(2, n, n+1))
	}
	return out
}
