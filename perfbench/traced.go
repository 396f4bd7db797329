package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pgti"
	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/core"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/serve"
	"pgti/internal/shard"
)

// coreConfig is the engine configuration the pgti options of trainOptions
// resolve to; the traced run needs the engine itself to reach the serving
// backend.
func coreConfig(workload string, seed uint64, sz sizes) (core.Config, error) {
	meta, err := dataset.ByName(datasetName)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Meta: meta, Scale: sz.scale, Model: core.ModelPGTDCRNN,
		BatchSize: batchSize, Epochs: sz.epochs, Hidden: hidden, K: diffusionK, Seed: seed,
	}
	switch workload {
	case trainIndex:
		cfg.Strategy = core.Index
	case trainDDP, serveMixed:
		cfg.Strategy, cfg.Workers = core.DistIndex, workers
		cfg.ComputeCost, cfg.AssembleCost = computeCost, assembleCost
	case trainSpatial:
		cfg.Strategy, cfg.Workers = core.DistIndex, 1
		cfg.Spatial = shard.Spatial{Shards: shards}
		cfg.ComputeCost, cfg.AssembleCost = computeCost, assembleCost
	default:
		return core.Config{}, fmt.Errorf("unknown workload %q", workload)
	}
	return cfg, nil
}

// fitEngine fits an engine and returns it with the Fit wall time.
func fitEngine(cfg core.Config) (*core.Engine, time.Duration, error) {
	eng := core.NewEngine(cfg)
	if err := eng.Build(); err != nil {
		return nil, 0, err
	}
	t := time.Now()
	err := eng.Fit(context.Background())
	return eng, time.Since(t), err
}

func curveBitsEqual(a, b metrics.Curve) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual([]float64{a[i].TrainMAE, a[i].ValMAE}, []float64{b[i].TrainMAE, b[i].ValMAE}) {
			return false
		}
	}
	return true
}

// traceRun is the traced per-layer run. It times the set-up layers, then
// trains once untraced through the engine and once traced through the
// exported layers (the two curves must agree bit for bit), then serves.
// A layer that does no separately timed work on the workload reads 0.
func (r *run) traceRun() error {
	for name := range perLayer {
		r.set(name, 0)
	}
	rec := newRecorder()
	d, err := r.traceSetup()
	if err != nil {
		return err
	}
	if r.workload == serveMixed {
		err = r.traceServeMixed(rec, d)
	} else {
		err = r.traceTrain(rec, d)
	}
	if err != nil {
		return err
	}
	return rec.write(r.spans)
}

// traceSetup times dataset generation, the index build and (train-spatial)
// the shard plan, each as the median of several repetitions.
func (r *run) traceSetup() (*data, error) {
	d, err := openData(r.seed, r.sz)
	if err != nil {
		return nil, err
	}
	var gen, build, plan []float64
	for i := 0; i < r.sz.genReps; i++ {
		t := time.Now()
		if _, err := dataset.Generate(d.meta, r.seed); err != nil {
			return nil, err
		}
		gen = append(gen, ms(time.Since(t)))
		raw := d.raw.Clone()
		t = time.Now()
		if _, err := batching.NewIndexDataset(raw, d.meta.Horizon, batching.DefaultTrainFrac, nil); err != nil {
			return nil, err
		}
		build = append(build, ms(time.Since(t)))
		if r.workload == trainSpatial {
			t = time.Now()
			if _, err := shard.BuildPlan(d.ds.Graph, d.supports, shards); err != nil {
				return nil, err
			}
			plan = append(plan, ms(time.Since(t)))
		}
	}
	r.set("dataset.generate_ms", median(gen))
	r.set("batching.index_build_ms", median(build))
	r.set("shard.plan_ms", median(plan))
	r.set("memsim.retained_data_bytes", float64(d.idx.RetainedBytes()))
	return d, nil
}

// traceTrain traces a train-* workload, then serves its fitted model.
func (r *run) traceTrain(rec *recorder, d *data) error {
	cfg, err := coreConfig(r.workload, r.seed, r.sz)
	if err != nil {
		return err
	}
	// The first fit in a process also grows the heap and warms caches;
	// it is run once untimed, so the timed untraced and traced fits start
	// alike.
	if _, _, err := fitEngine(cfg); err != nil {
		return fmt.Errorf("warm-up fit: %w", err)
	}
	eng, untracedWall, err := fitEngine(cfg)
	if err != nil {
		return fmt.Errorf("untraced fit: %w", err)
	}
	want := eng.Report()
	samples := float64(want.Steps * want.GlobalBatch)

	runtime.GC()
	c0 := readCounters()
	t := time.Now()
	var curve metrics.Curve
	switch r.workload {
	case trainIndex:
		curve, err = r.traceIndexLoop(rec, d)
	case trainDDP:
		curve, err = r.traceDDP(rec, d)
	case trainSpatial:
		curve, err = r.traceSpatial(rec, d)
	}
	tracedWall := time.Since(t)
	c := readCounters().sub(c0)
	if err != nil {
		return fmt.Errorf("traced fit: %w", err)
	}
	r.check(curveBitsEqual(curve, want.Curve), "traced %s curve %v differs from the untraced fit %v", r.workload, curve, want.Curve)
	r.setStepLayers(rec)
	r.setGC(c, samples)
	// The traced loop does the same work as the untraced Fit; its
	// throughput gap is what the spans cost.
	r.set("trace.overhead_frac", 1-untracedWall.Seconds()/tracedWall.Seconds())

	ic, err := eng.NewInferCore()
	if err != nil {
		return err
	}
	pred, err := eng.Predictor()
	if err != nil {
		return err
	}
	_, err = r.traceServe(rec, d, ic, []*pgti.Predictor{pred}, nil, 0)
	return err
}

// traceIndexLoop drives the single-worker index step itself through the
// exported calls, in the engine's order: sampler, Assemble, Forward,
// MAELoss and Backward, gradient clipping and the Adam step, then the
// per-epoch validation pass.
func (r *run) traceIndexLoop(rec *recorder, d *data) (metrics.Curve, error) {
	st := newWorkerState(rec, 0)
	model := &tracedModel{SeqModel: d.newModel(r.seed, traceProps(nn.WrapSupports(d.supports), st)), st: st}
	opt := nn.NewAdam(model, lr)
	sampler := batching.NewGlobalShuffler(d.split.Train, batchSize, 1, 0, r.seed)
	var buf batching.BatchBuffer
	var curve metrics.Curve
	for epoch := 0; epoch < r.sz.epochs; epoch++ {
		var trainAcc metrics.Running
		for _, idx := range sampler.EpochBatches(epoch) {
			step := rec.begin("step", 0, -1)
			st.parent = step

			a0 := allocBytes()
			id := rec.begin("batching.assemble", 0, step)
			x, y := d.idx.AssembleBatch(idx, &buf)
			target := y.Slice(3, 0, 1).Contiguous()
			rec.endAlloc(id, allocBytes()-a0)

			pred := model.Forward(autograd.Constant(x))

			a0 = allocBytes()
			id = rec.begin("autograd.backward", 0, step)
			loss := autograd.MAELoss(pred, target)
			err := autograd.Backward(loss)
			rec.endAlloc(id, allocBytes()-a0)
			if err != nil {
				return nil, err
			}

			id = rec.begin("nn.optim_step", 0, step)
			nn.ClipGradNorm(model, clipNorm)
			opt.Step()
			rec.end(id)

			trainAcc.Add(loss.Value.Item()*d.idx.Std, len(idx))
			rec.end(step)
		}
		ev := rec.begin("core.eval", 0, -1)
		st.parent = ev
		var acc metrics.Running
		for _, batch := range batching.Batches(d.split.Val, batchSize) {
			x, y := d.idx.AssembleBatch(batch, &buf)
			target := y.Slice(3, 0, 1).Contiguous()
			pred := model.Forward(autograd.Constant(x))
			acc.Add(metrics.MAE(pred.Value, target)*d.idx.Std, len(batch))
		}
		rec.end(ev)
		curve = append(curve, metrics.EpochRecord{Epoch: epoch, TrainMAE: trainAcc.Mean(), ValMAE: acc.Mean()})
	}
	return curve, nil
}

// tracedFactory hands out per-worker traced models; each call is a new
// worker.
type tracedFactory struct {
	rec     *recorder
	d       *data
	workers atomic.Int64
}

func (f *tracedFactory) build(seed uint64, props []nn.Propagator) nn.SeqModel {
	st := newWorkerState(f.rec, int(f.workers.Add(1)-1))
	return &tracedModel{SeqModel: f.d.newModel(seed, traceProps(props, st)), st: st}
}

func (r *run) traceDDP(rec *recorder, d *data) (metrics.Curve, error) {
	f := &tracedFactory{rec: rec, d: d}
	res, err := ddp.Train(d.idx, d.split, func(seed uint64) nn.SeqModel {
		return f.build(seed, nn.WrapSupports(d.supports))
	}, ddpConfig(r.seed, r.sz))
	if err != nil {
		return nil, err
	}
	r.stepSpans(rec, res.Steps/r.sz.epochs, "ddp.step")
	per := float64(res.Steps)
	r.set("ddp.grad_sync_bytes_per_step", float64(res.GradSyncBytes)/per)
	r.set("ddp.comm_exposed_ms", ms(res.CommTime)/per)
	r.set("ddp.comm_hidden_ms", ms(res.CommHiddenTime)/per)
	return res.Curve, nil
}

func (r *run) traceSpatial(rec *recorder, d *data) (metrics.Curve, error) {
	plan, err := shard.BuildPlan(d.ds.Graph, d.supports, shards)
	if err != nil {
		return nil, err
	}
	cfg := shard.Config{
		Shards: shards, Replicas: 1, BatchSize: batchSize, Epochs: r.sz.epochs,
		LR: lr, ClipNorm: clipNorm, Seed: r.seed,
		ComputeCost: computeCost, AssembleCost: assembleCost, Plan: plan,
	}
	f := &tracedFactory{rec: rec, d: d}
	res, err := shard.Train(d.idx, d.split, d.ds.Graph, d.supports, f.build, cfg)
	if err != nil {
		return nil, err
	}
	r.stepSpans(rec, res.Steps/r.sz.epochs, "shard.step")
	per := float64(res.Steps)
	r.set("ddp.grad_sync_bytes_per_step", float64(res.GradSyncBytes)/per)
	r.set("ddp.comm_exposed_ms", ms(res.CommTime)/per)
	r.set("ddp.comm_hidden_ms", ms(res.CommHiddenTime)/per)
	r.set("shard.halo_bytes_per_step", float64(res.HaloBytes)/per)
	r.set("shard.halo_exposed_ms", ms(res.HaloTime-res.HaloHiddenTime)/per)
	r.set("shard.halo_hidden_ms", ms(res.HaloHiddenTime)/per)
	r.set("shard.edge_cut", float64(res.EdgeCut))
	return res.Curve, nil
}

// stepSpans reads the step structure of a ddp.Train or shard.Train run off
// each worker's forward spans. Per epoch a worker runs stepsPerEpoch train
// forwards, then its validation forwards. A train step runs from its
// forward's start to the worker's next forward; everything in it after the
// forward (loss, backward, gradient sync, optimizer, next assembly) is the
// step span's self time, reported as <name>_rest_ms. Each epoch's
// validation forwards nest under one core.eval span.
func (r *run) stepSpans(rec *recorder, stepsPerEpoch int, name string) {
	byWorker := map[int][]span{}
	for _, s := range rec.snapshot() {
		if s.Name == "nn.forward" {
			byWorker[s.Worker] = append(byWorker[s.Worker], s)
		}
	}
	for w, fw := range byWorker {
		perEpoch := len(fw) / r.sz.epochs
		ok := len(fw)%r.sz.epochs == 0 && perEpoch > stepsPerEpoch
		r.check(ok, "worker %d ran %d forwards over %d epochs of %d steps", w, len(fw), r.sz.epochs, stepsPerEpoch)
		if !ok {
			continue
		}
		for e := 0; e < r.sz.epochs; e++ {
			epoch := fw[e*perEpoch : (e+1)*perEpoch]
			for s := 0; s < stepsPerEpoch; s++ {
				id := rec.add(span{Name: name, Worker: w, Parent: -1, Start: epoch[s].Start, End: epoch[s+1].Start})
				rec.setParent(epoch[s].ID, id)
			}
			evalFw := epoch[stepsPerEpoch:]
			ev := rec.add(span{Name: "core.eval", Worker: w, Parent: -1, Start: evalFw[0].Start, End: evalFw[len(evalFw)-1].End})
			for _, s := range evalFw {
				rec.setParent(s.ID, ev)
			}
		}
	}
}

// setStepLayers sets the per-step layer metrics from the step spans.
func (r *run) setStepLayers(rec *recorder) {
	ix := indexSpans(rec.snapshot())
	stepName := map[string]string{trainIndex: "step", trainDDP: "ddp.step", trainSpatial: "shard.step"}[r.workload]
	steps := ix.named(stepName)
	layer := func(span, msName, allocName string) {
		d, a, _ := ix.perStep(steps, span)
		r.set(msName, median(d))
		if allocName != "" {
			r.set(allocName, median(a))
		}
	}
	layer("nn.forward", "nn.forward_ms", "nn.forward_alloc_bytes")
	d, _, calls := ix.perStep(steps, "nn.propagate")
	r.set("nn.propagate_ms", median(d))
	r.set("nn.propagate_calls", median(calls))
	if r.workload == trainIndex {
		layer("batching.assemble", "batching.assemble_ms", "batching.assemble_alloc_bytes")
		layer("autograd.backward", "autograd.backward_ms", "autograd.backward_alloc_bytes")
		layer("nn.optim_step", "nn.optim_step_ms", "")
	} else {
		var rest []float64
		for _, s := range steps {
			rest = append(rest, ms(ix.self(s)))
		}
		r.set(map[string]string{trainDDP: "ddp.step_rest_ms", trainSpatial: "shard.step_rest_ms"}[r.workload], median(rest))
	}
	var eval []float64
	for _, e := range ix.named("core.eval") {
		eval = append(eval, ms(ix.spans[e].dur()))
	}
	r.set("core.eval_ms", median(eval))
}

// setGC sets the Go runtime's share of CPU spent in GC and its cycles per
// op over a traced phase.
func (r *run) setGC(c counters, ops float64) {
	if c.totalCPU > 0 {
		r.set("runtime.gc_cpu_frac", c.gcCPU/c.totalCPU)
	}
	r.set("runtime.gc_cycles_per_op", c.gcCycles/ops)
}

// tracedBackend decorates a serving replica with serve.forward and
// serve.swap spans, and remembers when each window's forward started so a
// request's queue wait can be read off.
type tracedBackend struct {
	inner *core.InferCore
	rec   *recorder
	mu    sync.Mutex
	began map[*float64]int64 // first value of a window -> its forward start
}

const serveWorker = 100 // span worker id of the replica; callers are 0 and 1

func (b *tracedBackend) ForwardBatch(ws []core.Window) ([]core.Forecast, error) {
	a0 := allocBytes()
	start := b.rec.now()
	b.mu.Lock()
	for _, w := range ws {
		b.began[&w.Values[0]] = start
	}
	b.mu.Unlock()
	out, err := b.inner.ForwardBatch(ws)
	b.rec.add(span{Name: "serve.forward", Worker: serveWorker, Parent: -1, Start: start, End: b.rec.now(), Alloc: allocBytes() - a0})
	return out, err
}

func (b *tracedBackend) SwapParams(snap [][]float64) error {
	id := b.rec.begin("serve.swap", serveWorker, -1)
	defer b.rec.end(id)
	return b.inner.SwapParams(snap)
}

// newInternalServer builds the server pgti.NewServer builds by default, over
// one given backend.
func newInternalServer(ic *core.InferCore, b serve.Backend) *serve.Server {
	windowBytes := int64(ic.Horizon()*ic.Nodes()*ic.Features()) * 8
	return serve.New([]serve.Backend{b}, serve.Config{Cost: serve.DefaultCost(ic.ParamBytes(), windowBytes)})
}

// traceServe runs a traced serve phase over ic: closed-loop callers as in
// the end-to-end run, with predict and queue spans per request. swaps, when
// set, are installed in turn every swapEvery requests of caller 0.
func (r *run) traceServe(rec *recorder, d *data, ic *core.InferCore, preds []*pgti.Predictor, swaps [][][]float64, dur time.Duration) (rps float64, err error) {
	windows := d.testWindows()
	expect, err := expectedForecasts(windows, preds)
	if err != nil {
		return 0, err
	}
	tb := &tracedBackend{inner: ic, rec: rec, began: map[*float64]int64{}}
	srv := newInternalServer(ic, tb)
	defer srv.Close()
	var waits []float64
	var wmu sync.Mutex
	l := &load{srv: srv, windows: windows, expect: expect, dur: dur, minReq: r.sz.chunk,
		onCall: func(caller int, w pgti.Window, start time.Time, lat time.Duration) {
			s := int64(start.Sub(rec.t0))
			id := rec.add(span{Name: "serve.predict", Worker: caller, Parent: -1, Start: s, End: s + int64(lat)})
			tb.mu.Lock()
			fwd, ok := tb.began[&w.Values[0]]
			delete(tb.began, &w.Values[0])
			tb.mu.Unlock()
			if ok && fwd >= s {
				rec.add(span{Name: "serve.queue", Worker: caller, Parent: id, Start: s, End: fwd})
				wmu.Lock()
				waits = append(waits, ms(time.Duration(fwd-s)))
				wmu.Unlock()
			}
		}}
	if swaps != nil {
		l.swapEvery = r.sz.swapEvery
		l.swap = func(k int) error { return srv.Swap(swaps[k%len(swaps)]) }
	}
	res := l.run(r)
	ops := float64(max(len(res.samples), 1))
	ix := indexSpans(rec.snapshot())
	var fwd, alloc, swapMs []float64
	for _, id := range ix.named("serve.forward") {
		fwd = append(fwd, ms(ix.spans[id].dur()))
		alloc = append(alloc, ix.spans[id].Alloc)
	}
	for _, id := range ix.named("serve.swap") {
		swapMs = append(swapMs, ms(ix.spans[id].dur()))
	}
	st := srv.Stats()
	_, _, p99 := latency(res, r.sz.chunk)
	r.set("serve.p99_ms", p99)
	r.set("serve.queue_wait_ms", median(waits))
	r.set("serve.batch_size", st.MeanBatch)
	r.set("serve.forward_ms", median(fwd))
	r.set("serve.forward_alloc_bytes", median(alloc))
	r.set("serve.swap_ms", median(swapMs))
	r.set("serve.shed", float64(st.Shed))
	r.set("serve.retries", float64(st.Retries))
	if r.workload == serveMixed {
		r.setGC(res.cnt, ops)
	}
	r.diag["serve_samples"] = float64(len(res.samples))
	return res.rps(), nil
}

// traceServeMixed fits the two weight sets untraced, serves them once
// through an undecorated replica and once through the traced one; the rps
// gap between the two is the tracing overhead.
func (r *run) traceServeMixed(rec *recorder, d *data) error {
	cfgA, err := coreConfig(serveMixed, r.seed, r.sz)
	if err != nil {
		return err
	}
	cfgB := cfgA
	cfgB.Sampler, cfgB.SamplerSet = ddp.LocalShuffle, true
	engA, _, err := fitEngine(cfgA)
	if err != nil {
		return err
	}
	engB, _, err := fitEngine(cfgB)
	if err != nil {
		return err
	}
	var preds []*pgti.Predictor
	var snaps [][][]float64
	for _, e := range []*core.Engine{engA, engB} {
		p, err := e.Predictor()
		if err != nil {
			return err
		}
		s, err := e.ParamSnapshot()
		if err != nil {
			return err
		}
		preds, snaps = append(preds, p), append(snaps, s)
	}
	half := time.Duration(r.seconds / 2 * float64(time.Second))

	// Untraced: the same server over the bare replica.
	windows := d.testWindows()
	expect, err := expectedForecasts(windows, preds)
	if err != nil {
		return err
	}
	ic, err := engA.NewInferCore()
	if err != nil {
		return err
	}
	srv := newInternalServer(ic, ic)
	res := (&load{srv: srv, windows: windows, expect: expect, dur: half, minReq: r.sz.chunk,
		swapEvery: r.sz.swapEvery, swap: func(k int) error { return srv.Swap(snaps[k%2]) }}).run(r)
	if err := srv.Close(); err != nil {
		return err
	}
	untraced := res.rps()

	ic, err = engA.NewInferCore()
	if err != nil {
		return err
	}
	traced, err := r.traceServe(rec, d, ic, preds, snaps, half)
	if err != nil {
		return err
	}
	r.set("trace.overhead_frac", 1-traced/untraced)
	return nil
}
