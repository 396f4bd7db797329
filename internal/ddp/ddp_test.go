package ddp

import (
	"math"
	"testing"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/graph"
	"pgti/internal/nn"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// testSetup builds a small index dataset and a model factory over a shared
// sensor graph.
func testSetup(t testing.TB, entries, nodes, horizon int) (*batching.IndexDataset, batching.Split, ModelFactory) {
	t.Helper()
	g, err := graph.RoadNetwork(3, nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	raw := tensor.Randn(tensor.NewRNG(5), entries, nodes, 1)
	data, err := batching.NewIndexDataset(raw, horizon, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	split := batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
	factory := func(seed uint64) nn.SeqModel {
		return nn.NewPGTDCRNN(tensor.NewRNG(seed), supports, 1, 1, 6, horizon)
	}
	return data, split, factory
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	l := nn.NewLinear(tensor.NewRNG(1), "l", 3, 2)
	out := l.Forward(autograd.NewVariable(tensor.Ones(4, 3)))
	if err := autograd.Backward(autograd.MeanAll(out)); err != nil {
		t.Fatal(err)
	}
	params := l.Parameters()
	vec := FlattenGrads(params, nil)
	if len(vec) != 8 {
		t.Fatalf("flattened length %d want 8", len(vec))
	}
	// Perturb and write back.
	for i := range vec {
		vec[i] = float64(i)
	}
	UnflattenGrads(params, vec)
	if params[0].V.Grad.At(1, 1) != 3 || params[1].V.Grad.At(1) != 7 {
		t.Fatal("unflatten misplaced gradients")
	}
	// Missing gradients flatten to zeros.
	nn.ZeroGrads(l)
	vec = FlattenGrads(params, vec)
	for _, v := range vec {
		if v != 0 {
			t.Fatal("missing grads must flatten to zero")
		}
	}
}

func TestTrainValidation(t *testing.T) {
	data, split, factory := testSetup(t, 60, 6, 3)
	bad := []Config{
		{Workers: 0, BatchSize: 4, Epochs: 1},
		{Workers: 1, BatchSize: 0, Epochs: 1},
		{Workers: 1, BatchSize: 4, Epochs: 0},
		{Workers: 100, BatchSize: 4, Epochs: 1}, // more workers than samples
	}
	for i, cfg := range bad {
		if _, err := Train(data, split, factory, cfg); err == nil {
			t.Fatalf("case %d: expected config error", i)
		}
	}
}

func TestSingleWorkerTrainingConverges(t *testing.T) {
	data, split, factory := testSetup(t, 80, 6, 3)
	res, err := Train(data, split, factory, Config{
		Workers: 1, BatchSize: 4, Epochs: 4, LR: 0.01, ClipNorm: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 4 {
		t.Fatalf("curve length %d", len(res.Curve))
	}
	if res.Curve[3].TrainMAE >= res.Curve[0].TrainMAE {
		t.Fatalf("training MAE did not decrease: %v -> %v", res.Curve[0].TrainMAE, res.Curve[3].TrainMAE)
	}
	if res.GlobalBatch != 4 {
		t.Fatalf("global batch %d", res.GlobalBatch)
	}
	if res.GradSyncBytes != 0 && res.Steps == 0 {
		t.Fatal("inconsistent accounting")
	}
}

func TestMultiWorkerReplicasStayIdentical(t *testing.T) {
	data, split, factory := testSetup(t, 80, 6, 3)
	// Train verifies replica checksums internally and errors on divergence.
	res, err := Train(data, split, factory, Config{
		Workers: 3, BatchSize: 3, Epochs: 2, LR: 0.01, ClipNorm: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GlobalBatch != 9 {
		t.Fatalf("global batch %d", res.GlobalBatch)
	}
	if res.Steps == 0 || res.GradSyncBytes == 0 {
		t.Fatal("no work recorded")
	}
	if res.VirtualTime <= 0 {
		t.Fatal("virtual time must advance")
	}
	// With the measured overlap timeline the exposed tail can legitimately
	// be zero (all comm hidden under backward), but the run must have
	// recorded communication somewhere.
	if res.CommTime+res.CommHiddenTime <= 0 {
		t.Fatal("multi-worker run must record communication time")
	}
}

// TestDDPMatchesSequentialReference verifies the core DDP identity: with two
// workers each taking one fixed batch, the post-step parameters equal a
// sequential run that averages the two batch gradients by hand.
func TestDDPMatchesSequentialReference(t *testing.T) {
	horizon := 3
	nodes := 6
	// Train split sized to exactly 2 batches of 4.
	entries := 2*horizon + 11 // 12 snapshots -> train split 8 = 2 batches of 4 (70% of 12 = 8)
	data, split, factory := testSetup(t, entries, nodes, horizon)
	if len(split.Train) != 8 {
		t.Fatalf("train split %d, test assumes 8", len(split.Train))
	}
	batchSize := 4
	const seed = 7

	// Distributed run: 2 workers, BatchShuffle (fixed contiguous batches),
	// 1 epoch = 1 step each.
	res, err := Train(data, split, factory, Config{
		Workers: 2, BatchSize: batchSize, Epochs: 1, LR: 0.01, Sampler: BatchShuffle, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Fatalf("expected exactly 1 step, got %d", res.Steps)
	}

	// Sequential reference: same replicas, same two batches, averaged grads.
	model := factory(seed)
	params := model.Parameters()
	opt := nn.NewAdam(model, 0.01)
	var gradSum []float64
	var buf batching.BatchBuffer
	for rank := 0; rank < 2; rank++ {
		sampler := batching.NewBatchShuffler(split.Train, batchSize, 2, rank, seed)
		batch := sampler.EpochBatches(0)[0]
		x, y := data.AssembleBatch(batch, &buf)
		target := y.Slice(3, 0, 1).Contiguous()
		loss := autograd.MAELoss(model.Forward(autograd.Constant(x)), target)
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		g := FlattenGrads(params, nil)
		if gradSum == nil {
			gradSum = g
		} else {
			for i := range gradSum {
				gradSum[i] += g[i]
			}
		}
		nn.ZeroGrads(model)
	}
	for i := range gradSum {
		gradSum[i] /= 2
	}
	UnflattenGrads(params, gradSum)
	opt.Step()

	// Compare against a fresh distributed replica's parameters by rerunning
	// and checksumming: train a 1-worker run is not equivalent, so instead
	// verify via the distributed model's training loss on the next forward.
	distModel := factory(seed)
	distParams := distModel.Parameters()
	// Replay the distributed update deterministically.
	res2, err := Train(data, split, func(s uint64) nn.SeqModel {
		m := factory(s)
		return m
	}, Config{Workers: 2, BatchSize: batchSize, Epochs: 1, LR: 0.01, Sampler: BatchShuffle, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Curve[0].TrainMAE != res.Curve[0].TrainMAE {
		t.Fatal("distributed run must be deterministic")
	}
	_ = distParams

	// The reference model's parameters after the averaged step must produce
	// the same training loss as the distributed run reported for epoch 0
	// when re-evaluated on the same two batches pre-update. Instead of
	// indirect loss comparison, check the parameter update directly by
	// re-deriving the distributed step below.
	ref := FlattenParams(params)
	distAfter := trainOneStepDistributed(t, data, split, factory, batchSize, seed)
	if len(ref) != len(distAfter) {
		t.Fatal("parameter vector lengths differ")
	}
	for i := range ref {
		if math.Abs(ref[i]-distAfter[i]) > 1e-11 {
			t.Fatalf("parameter %d differs: sequential %v vs distributed %v", i, ref[i], distAfter[i])
		}
	}
}

// FlattenParams packs parameter values into one vector (test helper).
func FlattenParams(params []*nn.Parameter) []float64 {
	var out []float64
	for _, p := range params {
		out = append(out, p.Tensor().Contiguous().Data()...)
	}
	return out
}

// trainOneStepDistributed runs the 2-worker 1-epoch schedule and returns
// worker 0's post-step parameter vector.
func trainOneStepDistributed(t *testing.T, data *batching.IndexDataset, split batching.Split, factory ModelFactory, batchSize int, seed uint64) []float64 {
	t.Helper()
	clu, err := cluster.New(cluster.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, 2)
	err = clu.Run(func(w *cluster.Worker) error {
		model := factory(seed)
		params := model.Parameters()
		opt := nn.NewAdam(model, 0.01)
		sampler := batching.NewBatchShuffler(split.Train, batchSize, 2, w.Rank(), seed)
		batch := sampler.EpochBatches(0)[0]
		var buf batching.BatchBuffer
		x, y := data.AssembleBatch(batch, &buf)
		target := y.Slice(3, 0, 1).Contiguous()
		loss := autograd.MAELoss(model.Forward(autograd.Constant(x)), target)
		if err := autograd.Backward(loss); err != nil {
			return err
		}
		g := FlattenGrads(params, nil)
		w.RingAllReduceMean(g)
		UnflattenGrads(params, g)
		opt.Step()
		out[w.Rank()] = FlattenParams(params)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

func TestDeterministicRuns(t *testing.T) {
	data, split, factory := testSetup(t, 70, 6, 3)
	cfg := Config{Workers: 2, BatchSize: 4, Epochs: 2, LR: 0.01, Seed: 11}
	a, err := Train(data, split, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, split, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curves differ at epoch %d: %+v vs %+v", i, a.Curve[i], b.Curve[i])
		}
	}
}

func TestRemoteFetchChargesCommTime(t *testing.T) {
	data, split, factory := testSetup(t, 70, 6, 3)
	base, err := Train(data, split, factory, Config{
		Workers: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 3,
		ComputeCost: func(int) time.Duration { return time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	fetch, err := Train(data, split, factory, Config{
		Workers: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 3, RemoteFetch: true,
		ComputeCost: func(int) time.Duration { return time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	if fetch.CommTime <= base.CommTime {
		t.Fatalf("remote fetch must add communication time: %v vs %v", fetch.CommTime, base.CommTime)
	}
	if fetch.VirtualTime <= base.VirtualTime {
		t.Fatal("remote fetch must slow the virtual clock")
	}
	// Accuracy is unaffected by the data path.
	if fetch.Curve[0].TrainMAE != base.Curve[0].TrainMAE {
		t.Fatal("data path must not change the numerics")
	}
}

func TestModeledComputeCostDrivesClock(t *testing.T) {
	data, split, factory := testSetup(t, 70, 6, 3)
	slow, err := Train(data, split, factory, Config{
		Workers: 1, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 4,
		ComputeCost: func(int) time.Duration { return 100 * time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Train(data, split, factory, Config{
		Workers: 1, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 4,
		ComputeCost: func(int) time.Duration { return time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.VirtualTime < 50*fast.VirtualTime {
		t.Fatalf("virtual clock must follow the compute model: slow %v fast %v", slow.VirtualTime, fast.VirtualTime)
	}
}

func TestSamplerKindsTrain(t *testing.T) {
	data, split, factory := testSetup(t, 80, 6, 3)
	for _, kind := range []SamplerKind{GlobalShuffle, LocalShuffle, BatchShuffle} {
		res, err := Train(data, split, factory, Config{
			Workers: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Sampler: kind, Seed: 5,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(res.Curve) != 1 {
			t.Fatalf("%v: curve length %d", kind, len(res.Curve))
		}
	}
	if GlobalShuffle.String() != "global" || LocalShuffle.String() != "local" || BatchShuffle.String() != "batch" {
		t.Fatal("SamplerKind strings wrong")
	}
}

func TestLRScalingChangesTrajectory(t *testing.T) {
	data, split, factory := testSetup(t, 70, 6, 3)
	plain, err := Train(data, split, factory, Config{Workers: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Train(data, split, factory, Config{Workers: 2, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 6, UseLRScaling: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Curve[0].ValMAE == scaled.Curve[0].ValMAE {
		t.Fatal("LR scaling must change the trajectory")
	}
}

func TestBucketGrads(t *testing.T) {
	model := nn.NewPGTDCRNN(tensor.NewRNG(1), testSupports(t, 6), 1, 1, 6, 3)
	params := model.Parameters()
	total := 0
	for _, p := range params {
		total += p.Tensor().NumElements()
	}

	// A huge cap yields one bucket holding everything.
	one := BucketGrads(params, 1<<30)
	if len(one) != 1 || one[0].Elems != total {
		t.Fatalf("huge cap: %d buckets, %d elems (want 1 bucket, %d elems)", len(one), one[0].Elems, total)
	}

	// A small cap yields several, each within the cap unless a single
	// parameter alone exceeds it, and together covering every parameter in
	// reverse order.
	const capBytes = 256
	buckets := BucketGrads(params, capBytes)
	if len(buckets) < 2 {
		t.Fatalf("small cap produced %d buckets", len(buckets))
	}
	seen := 0
	pi := len(params) - 1
	for bi, b := range buckets {
		if len(b.Params) == 0 {
			t.Fatalf("bucket %d empty", bi)
		}
		if int64(b.Elems)*8 > capBytes && len(b.Params) > 1 {
			t.Fatalf("bucket %d exceeds cap with %d params", bi, len(b.Params))
		}
		for _, p := range b.Params {
			if p != params[pi] {
				t.Fatalf("bucket %d breaks reverse parameter order", bi)
			}
			pi--
			seen += p.Tensor().NumElements()
		}
	}
	if seen != total {
		t.Fatalf("buckets cover %d of %d elements", seen, total)
	}

	// Zero/negative caps fall back to the default.
	if got := BucketGrads(params, 0); len(got) != len(BucketGrads(params, DefaultBucketBytes)) {
		t.Fatal("zero cap must use DefaultBucketBytes")
	}
}

// testSupports builds transition matrices for a small road graph.
func testSupports(t testing.TB, nodes int) []*sparse.CSR {
	t.Helper()
	g, err := graph.RoadNetwork(3, nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	return []*sparse.CSR{fwd, bwd}
}

// TestBucketedOverlapBeatsFlatten is the headline property of the bucketed
// exchange: on a bandwidth-constrained fabric with 8 workers, overlapping
// per-bucket AllReduce with backward compute yields a strictly lower epoch
// virtual time than the flatten-then-AllReduce baseline, with identical
// learning dynamics.
func TestBucketedOverlapBeatsFlatten(t *testing.T) {
	data, split, factory := testSetup(t, 120, 6, 3)
	paramBytes := nn.ParameterBytes(factory(9))
	slowNet := cluster.NetworkModel{Bandwidth: 1e8, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond}
	base := Config{
		Workers: 8, BatchSize: 2, Epochs: 1, LR: 0.01, Seed: 9, Net: slowNet,
		ComputeCost: func(int) time.Duration { return 5 * time.Millisecond },
		BucketBytes: paramBytes / 4,
	}

	overlapCfg := base
	overlapCfg.Sync = SyncBucketedOverlap
	overlap, err := Train(data, split, factory, overlapCfg)
	if err != nil {
		t.Fatal(err)
	}
	flatCfg := base
	flatCfg.Sync = SyncFlatten
	flat, err := Train(data, split, factory, flatCfg)
	if err != nil {
		t.Fatal(err)
	}

	if overlap.GradBuckets < 2 {
		t.Fatalf("expected multiple gradient buckets, got %d", overlap.GradBuckets)
	}
	if flat.GradBuckets != 1 {
		t.Fatalf("flatten baseline must report one bucket, got %d", flat.GradBuckets)
	}
	if overlap.CommHiddenTime <= 0 {
		t.Fatal("bucketed overlap must hide some communication under compute")
	}
	if flat.CommHiddenTime != 0 {
		t.Fatalf("flatten baseline must hide nothing, got %v", flat.CommHiddenTime)
	}
	if overlap.VirtualTime >= flat.VirtualTime {
		t.Fatalf("overlap %v must beat flatten %v", overlap.VirtualTime, flat.VirtualTime)
	}
	// Both modes exchange the same gradient volume and learn the same way
	// (up to summation-order noise in the ring reduce).
	if overlap.GradSyncBytes != flat.GradSyncBytes {
		t.Fatalf("gradient traffic differs: %d vs %d", overlap.GradSyncBytes, flat.GradSyncBytes)
	}
	if d := overlap.Curve[0].TrainMAE - flat.Curve[0].TrainMAE; math.Abs(d) > 1e-6 {
		t.Fatalf("sync schedule changed the numerics: ΔMAE %v", d)
	}
}

// TestBucketedOverlapDeterministicAndConsistent verifies replicas stay
// identical (Train checks checksums internally) and repeated bucketed runs
// are bit-reproducible across several worker counts.
func TestBucketedOverlapDeterministicAndConsistent(t *testing.T) {
	data, split, factory := testSetup(t, 90, 6, 3)
	for _, workers := range []int{2, 4} {
		cfg := Config{
			Workers: workers, BatchSize: 3, Epochs: 2, LR: 0.01, ClipNorm: 5, Seed: 13,
			BucketBytes: 512, // force several buckets
		}
		a, err := Train(data, split, factory, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := Train(data, split, factory, cfg)
		if err != nil {
			t.Fatalf("workers=%d rerun: %v", workers, err)
		}
		for i := range a.Curve {
			if a.Curve[i] != b.Curve[i] {
				t.Fatalf("workers=%d: bucketed run not deterministic at epoch %d", workers, i)
			}
		}
		if a.GradBuckets < 2 {
			t.Fatalf("workers=%d: expected several buckets, got %d", workers, a.GradBuckets)
		}
	}
}

// TestSingleWorkerShipsNoGradients: a 1-worker grid has no peer to
// exchange with, so it reports no gradient traffic, no fp16 savings and no
// communication time, whatever the configured schedule.
func TestSingleWorkerShipsNoGradients(t *testing.T) {
	data, split, factory := testSetup(t, 70, 6, 3)
	for _, algo := range []GradAlgo{GradAlgoRing, GradAlgoFlat, GradAlgoHierarchical} {
		res, err := Train(data, split, factory, Config{
			Workers: 1, BatchSize: 4, Epochs: 1, LR: 0.01, Seed: 4, Algo: algo, FP16: true,
			ComputeCost: func(int) time.Duration { return time.Millisecond },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps == 0 || res.GradSyncBytes != 0 || res.CommBytesSaved != 0 || res.CommTime != 0 {
			t.Fatalf("%v: %d steps report %d gradient bytes, %d saved, %v comm; want none",
				algo, res.Steps, res.GradSyncBytes, res.CommBytesSaved, res.CommTime)
		}
	}
}
