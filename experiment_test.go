package pgti

import (
	"context"
	"errors"
	"testing"
)

// tinyOpts returns fast options matching tinyConfig below.
func tinyConfig(strategy Strategy, workers int) Config {
	return Config{
		Dataset:   "PeMS-BAY",
		Scale:     0.012,
		Strategy:  strategy,
		Workers:   workers,
		BatchSize: 4,
		Epochs:    2,
		Hidden:    8,
		K:         1,
		Seed:      42,
	}
}

func tinyOpts(strategy Strategy, workers int) []Option {
	return []Option{
		WithScale(0.012),
		WithStrategy(strategy),
		WithWorkers(workers),
		WithBatchSize(4),
		WithEpochs(2),
		WithHidden(8),
		WithDiffusionSteps(1),
		WithSeed(42),
	}
}

// TestCompatShimBitwiseIdentical is the API-redesign acceptance gate: the
// legacy Run(Config) shim and the staged NewExperiment(...).Fit path must
// produce bitwise-identical training curves at W ∈ {1, 2, 4}.
func TestCompatShimBitwiseIdentical(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		legacy, err := Run(tinyConfig(StrategyDistIndex, workers))
		if err != nil {
			t.Fatalf("W=%d legacy: %v", workers, err)
		}
		exp, err := NewExperiment("PeMS-BAY", tinyOpts(StrategyDistIndex, workers)...)
		if err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		staged, err := exp.Fit(context.Background())
		if err != nil {
			t.Fatalf("W=%d staged: %v", workers, err)
		}
		if len(staged.Curve) != len(legacy.Curve) {
			t.Fatalf("W=%d: curve lengths %d vs %d", workers, len(staged.Curve), len(legacy.Curve))
		}
		for i := range staged.Curve {
			if staged.Curve[i] != legacy.Curve[i] {
				t.Fatalf("W=%d epoch %d: staged %+v != legacy %+v",
					workers, i, staged.Curve[i], legacy.Curve[i])
			}
		}
		if staged.GradSyncBytes != legacy.GradSyncBytes || staged.Steps != legacy.Steps {
			t.Fatalf("W=%d: accounting differs: %d/%d bytes, %d/%d steps",
				workers, staged.GradSyncBytes, legacy.GradSyncBytes, staged.Steps, legacy.Steps)
		}
	}
}

// TestOptionValidationTable drives the illegal combinations through
// NewExperiment and asserts typed errors.
func TestOptionValidationTable(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"spatial+non-dist-index", []Option{
			WithStrategy(StrategyGenDistIndex), WithWorkers(2), WithSpatial(2),
		}},
		{"spatial+st-llm", []Option{
			WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2), WithModel(ModelSTLLM),
		}},
		{"spatial+gradstack-algo", []Option{
			WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2),
			WithGradStack(GradStack{Algo: GradAlgoHierarchical, Topology: Topology{Nodes: 2, GPUsPerNode: 2}}),
		}},
		{"autotune+flat", []Option{
			WithStrategy(StrategyDistIndex), WithWorkers(2),
			WithGradStack(GradStack{Algo: GradAlgoFlat, AutoTune: true}),
		}},
		{"workers below topology grid", []Option{
			WithStrategy(StrategyDistIndex), WithWorkers(2),
			WithGradStack(GradStack{Algo: GradAlgoHierarchical, Topology: Topology{Nodes: 2, GPUsPerNode: 2}}),
		}},
		{"fp16 on single-GPU", []Option{
			WithStrategy(StrategyIndex), WithGradStack(GradStack{FP16: true}),
		}},
		{"workers without distribution", []Option{
			WithStrategy(StrategyIndex), WithWorkers(4),
		}},
		{"scale out of range", []Option{WithScale(1.5)}},
		{"warm-start+resume", []Option{
			WithWarmStart("a.pgtc"), WithResume("b.pgtc"),
		}},
		{"staleness without spatial", []Option{
			WithStrategy(StrategyDistIndex), WithWorkers(2), WithStaleness(1),
		}},
		{"negative staleness", []Option{
			WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2), WithStaleness(-1),
		}},
		{"missing data+spatial", []Option{
			WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2), WithMissingData(0.3),
		}},
	}
	for _, tc := range cases {
		_, err := NewExperiment("PeMS-BAY", tc.opts...)
		var ice *InvalidConfigError
		if !errors.As(err, &ice) {
			t.Fatalf("%s: want *InvalidConfigError, got %v", tc.name, err)
		}
		if ice.Field == "" || ice.Reason == "" {
			t.Fatalf("%s: typed error incomplete: %+v", tc.name, ice)
		}
	}
	// The legal variants of the near-miss combinations still construct.
	legal := [][]Option{
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2)},
		{WithStrategy(StrategyDistIndex), WithWorkers(4),
			WithGradStack(GradStack{Algo: GradAlgoHierarchical, Topology: Topology{Nodes: 2, GPUsPerNode: 2}})},
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithGradStack(GradStack{FP16: true})},
		// The hybrid grid's bucketed two-stage sync composes with the
		// collective stack's fp16/bucket-cap/autotune knobs.
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2),
			WithGradStack(GradStack{FP16: true, AutoTune: true, BucketBytes: 64 << 10})},
		// Staleness rides the hybrid grid's bucketed two-stage sync;
		// prefetch composes with any strategy.
		{WithStrategy(StrategyDistIndex), WithWorkers(2), WithSpatial(2), WithStaleness(2)},
		{WithStrategy(StrategyGenDistIndex), WithWorkers(2), WithPrefetch()},
		// The masked loss trains on every unsharded distributed strategy.
		{WithStrategy(StrategyBaselineDDP), WithWorkers(2), WithMissingData(0.3)},
	}
	for i, opts := range legal {
		if _, err := NewExperiment("PeMS-BAY", opts...); err != nil {
			t.Fatalf("legal combination %d rejected: %v", i, err)
		}
	}
}

func TestNewExperimentUnknownDataset(t *testing.T) {
	_, err := NewExperiment("nope")
	if !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("want ErrUnknownDataset, got %v", err)
	}
	// The legacy shim wraps the same sentinel.
	_, err = Run(Config{Dataset: "nope"})
	if !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("Run: want ErrUnknownDataset, got %v", err)
	}
}

// TestWithShuffleExplicitGlobal: the options API distinguishes an explicit
// ShuffleGlobal from "unset" — on GenDistIndex the former forces global
// shuffling while the legacy shim (documented) falls back to batch.
func TestWithShuffleExplicitGlobal(t *testing.T) {
	run := func(opts ...Option) *Report {
		t.Helper()
		exp, err := NewExperiment("PeMS-BAY", append(tinyOpts(StrategyGenDistIndex, 2), opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := exp.Fit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	unset := run()                              // strategy default: batch shuffling
	global := run(WithShuffle(ShuffleGlobal))   // explicit global wins
	explicitB := run(WithShuffle(ShuffleBatch)) // explicit batch == default

	sameCurve := func(a, b *Report) bool {
		if len(a.Curve) != len(b.Curve) {
			return false
		}
		for i := range a.Curve {
			if a.Curve[i] != b.Curve[i] {
				return false
			}
		}
		return true
	}
	if !sameCurve(unset, explicitB) {
		t.Fatal("explicit batch shuffle must match the GenDistIndex default")
	}
	if sameCurve(unset, global) {
		t.Fatal("explicit global shuffle must change the GenDistIndex schedule")
	}
	// And the legacy shim's documented fallback: Config.Shuffle =
	// ShuffleGlobal reads as unset, i.e. batch.
	cfg := tinyConfig(StrategyGenDistIndex, 2)
	cfg.Shuffle = ShuffleGlobal
	legacy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCurve(legacy, unset) {
		t.Fatal("shim's ShuffleGlobal-is-unset behavior changed")
	}
}

// TestExperimentPredictorServes exercises the public serving surface:
// warm handle, live windows, concurrent calls.
func TestExperimentPredictorServes(t *testing.T) {
	exp, err := NewExperiment("PeMS-BAY", tinyOpts(StrategyIndex, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Predictor(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Predictor before Fit: %v", err)
	}
	if _, err := exp.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	pred, err := exp.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	window := Window{Values: make([]float64, pred.Horizon()*pred.Nodes()*pred.Features())}
	for i := range window.Values {
		window.Values[i] = 60
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := pred.Predict(window)
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pred.PredictTest(1); err != nil {
		t.Fatal(err)
	}
}

// TestExperimentEventsAndEval: the event stream and the staged Eval work
// through the public API.
func TestExperimentEventsAndEval(t *testing.T) {
	var epochs int
	exp, err := NewExperiment("PeMS-BAY",
		append(tinyOpts(StrategyIndex, 1),
			WithForecasts(1),
			WithEvents(func(ev Event) {
				if _, ok := ev.(EpochEvent); ok {
					epochs++
				}
			}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if epochs != 2 {
		t.Fatalf("epoch events %d, want 2", epochs)
	}
	rep, err := exp.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestMSE <= 0 || len(rep.Forecasts) != 1 {
		t.Fatalf("eval results missing: mse=%v forecasts=%d", rep.TestMSE, len(rep.Forecasts))
	}
}

// TestExperimentCancellation: the public Fit returns the partial report
// alongside the context error.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exp, err := NewExperiment("PeMS-BAY",
		append(tinyOpts(StrategyDistIndex, 2),
			WithEpochs(4),
			WithEvents(func(ev Event) {
				if e, ok := ev.(EpochEvent); ok && e.Epoch == 0 {
					cancel()
				}
			}))...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.Fit(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil || len(rep.Curve) != 1 {
		t.Fatalf("partial report malformed: %+v", rep)
	}
}
