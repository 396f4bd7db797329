package main

import (
	"fmt"
	"time"

	"pgti"
	"pgti/internal/batching"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/nn"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// The shared training shape: PGT-DCRNN on Chickenpox-Hungary at its full
// Table-1 size (20 nodes x 522 weeks, horizon 4).
const (
	datasetName = "Chickenpox-Hungary"
	hidden      = 16
	diffusionK  = 2
	batchSize   = 16 // per worker
	workers     = 2  // data-parallel workers, serve callers (nproc)
	shards      = 2
	lr          = 0.01 // the engine's default
	clipNorm    = 5    // the engine's default
)

// Pinned modeled costs: with both set, the distributed virtual clock is a
// pure function of the configuration.
func computeCost(items int) time.Duration  { return time.Duration(items) * 200 * time.Microsecond }
func assembleCost(items int) time.Duration { return time.Duration(items) * 5 * time.Microsecond }

// Workload names.
const (
	trainIndex   = "train-index"
	trainDDP     = "train-ddp"
	trainSpatial = "train-spatial"
	serveMixed   = "serve-mixed"
)

var workloads = []string{trainIndex, trainDDP, trainSpatial, serveMixed}

// sizes is how much work one run does. The full sizes are the benchmark;
// smokeSizes shrink the dataset and the loops for a quick check.
type sizes struct {
	scale      float64       // dataset scale (1 = the Table-1 size)
	epochs     int           // epochs per Fit
	setupReps  int           // timed NewExperiment→Build constructions (train-*), at least
	setupFor   time.Duration // ... and for at least this long
	serveSetup int           // timed set-ups of serve-mixed (two fits + NewServer)
	minFits    int           // Fit calls per train-* run, at least
	minServe   int           // requests per serve phase, at least (train-*: exactly)
	swapEvery  int           // serve-mixed: caller 0 swaps after this many requests
	chunk      int           // requests per latency chunk (p99 needs >= 10 beyond)
	genReps    int           // traced runs: timed dataset generations / index builds
}

var fullSizes = sizes{
	scale: 1, epochs: 1, setupReps: 41, setupFor: time.Second, serveSetup: 3, minFits: 3,
	minServe: 1000, swapEvery: 10, chunk: 1000, genReps: 21,
}

var smokeSizes = sizes{
	scale: 0.25, epochs: 1, setupReps: 3, serveSetup: 1, minFits: 1,
	minServe: 40, swapEvery: 10, chunk: 20, genReps: 3,
}

// trainOptions are the pgti options of a training workload at seed.
func trainOptions(workload string, seed uint64, sz sizes) ([]pgti.Option, error) {
	opts := []pgti.Option{
		pgti.WithModel(pgti.ModelPGTDCRNN),
		pgti.WithHidden(hidden),
		pgti.WithDiffusionSteps(diffusionK),
		pgti.WithBatchSize(batchSize),
		pgti.WithEpochs(sz.epochs),
		pgti.WithScale(sz.scale),
		pgti.WithSeed(seed),
	}
	switch workload {
	case trainIndex:
		return append(opts, pgti.WithStrategy(pgti.StrategyIndex)), nil
	case trainDDP, serveMixed:
		return append(opts, pgti.WithStrategy(pgti.StrategyDistIndex), pgti.WithWorkers(workers),
			pgti.WithComputeCost(computeCost), pgti.WithAssembleCost(assembleCost)), nil
	case trainSpatial:
		return append(opts, pgti.WithStrategy(pgti.StrategyDistIndex), pgti.WithWorkers(1),
			pgti.WithSpatial(shards), pgti.WithComputeCost(computeCost), pgti.WithAssembleCost(assembleCost)), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

// data is the workload's dataset opened through the exported layers, the
// way the engine opens it for an index or dist-index run.
type data struct {
	meta     dataset.Meta
	ds       *dataset.Dataset
	raw      *tensor.Tensor // augmented signal in original units
	idx      *batching.IndexDataset
	split    batching.Split
	supports []*sparse.CSR
}

func openData(seed uint64, sz sizes) (*data, error) {
	meta, err := dataset.ByName(datasetName)
	if err != nil {
		return nil, err
	}
	if sz.scale < 1 {
		meta = meta.Scaled(sz.scale)
	}
	ds, err := dataset.Generate(meta, seed)
	if err != nil {
		return nil, err
	}
	raw := ds.Augmented().Clone()
	d := &data{meta: meta, ds: ds, raw: raw}
	if d.idx, err = batching.NewIndexDataset(raw.Clone(), meta.Horizon, batching.DefaultTrainFrac, nil); err != nil {
		return nil, err
	}
	d.split = batching.MakeSplit(d.idx.NumSnapshots(), batching.DefaultTrainFrac, batching.DefaultValFrac)
	fwd, bwd := ds.Graph.TransitionMatrices()
	d.supports = []*sparse.CSR{fwd, bwd}
	return d, nil
}

// newModel builds the workload's PGT-DCRNN over props with the engine's rng
// consumption, so a run over it matches the engine's run bit for bit.
func (d *data) newModel(seed uint64, props []nn.Propagator) nn.SeqModel {
	return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, diffusionK, d.meta.Features(), hidden, d.meta.Horizon)
}

// ddpConfig mirrors the engine's ddp.Config for the train-ddp options.
func ddpConfig(seed uint64, sz sizes) ddp.Config {
	return ddp.Config{
		Workers:      workers,
		BatchSize:    batchSize,
		Epochs:       sz.epochs,
		LR:           lr,
		ClipNorm:     clipNorm,
		Seed:         seed,
		ComputeCost:  computeCost,
		AssembleCost: assembleCost,
	}
}

// testWindows returns the raw input windows of the test split, in the
// layout Predict takes.
func (d *data) testWindows() []pgti.Window {
	h := d.meta.Horizon
	per := d.raw.NumElements() / d.raw.Dim(0)
	vals := d.raw.Contiguous().Data()
	out := make([]pgti.Window, 0, len(d.split.Test))
	for _, si := range d.split.Test {
		start := d.idx.Starts[si]
		out = append(out, pgti.Window{Values: vals[start*per : (start+h)*per]})
	}
	return out
}
