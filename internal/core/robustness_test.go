package core

import (
	"math"
	"path/filepath"
	"testing"

	"pgti/internal/autograd"
	"pgti/internal/ddp"
	"pgti/internal/tensor"
)

// TestMaskedTrainingWithMissingData exercises the failure-injection path:
// a third of the sensor readings are dropped, training switches to the
// masked loss, and the model still learns.
func TestMaskedTrainingWithMissingData(t *testing.T) {
	cfg := tinyCfg(Index)
	cfg.MissingFrac = 0.3
	cfg.Epochs = 5
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM {
		t.Fatal(rep.OOMError)
	}
	for _, r := range rep.Curve {
		if math.IsNaN(r.TrainMAE) || math.IsNaN(r.ValMAE) || r.ValMAE <= 0 {
			t.Fatalf("masked training produced bad metrics: %+v", r)
		}
	}
	first := rep.Curve[0].TrainMAE
	last := rep.Curve[len(rep.Curve)-1].TrainMAE
	if last >= first {
		t.Fatalf("masked training did not learn: %f -> %f", first, last)
	}
	// Injection must actually change the data path: metrics differ from the
	// clean run.
	clean := tinyCfg(Index)
	clean.Epochs = 5
	repClean, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if repClean.Curve[0].TrainMAE == rep.Curve[0].TrainMAE {
		t.Fatal("missing-data injection had no effect")
	}
}

func TestMaskedMAELossGradientSkipsMasked(t *testing.T) {
	pred := autograd.NewVariable(tensor.FromSlice([]float64{1, 2, 3}, 3))
	target := tensor.FromSlice([]float64{0.5, 0 /* masked */, 2}, 3)
	loss := autograd.MaskedMAELoss(pred, target, 0)
	// Mean over 2 unmasked entries: (0.5 + 1) / 2.
	if math.Abs(loss.Value.Item()-0.75) > 1e-12 {
		t.Fatalf("masked loss %v want 0.75", loss.Value.Item())
	}
	if err := autograd.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if pred.Grad.At(1) != 0 {
		t.Fatal("masked entry must receive no gradient")
	}
	if pred.Grad.At(0) != 0.5 || pred.Grad.At(2) != 0.5 {
		t.Fatalf("unmasked gradients wrong: %v", pred.Grad)
	}
	// Fully-masked target: zero loss, no gradient.
	allMasked := autograd.MaskedMAELoss(autograd.NewVariable(tensor.Ones(2)), tensor.New(2), 0)
	if allMasked.Value.Item() != 0 || allMasked.RequiresGrad() {
		t.Fatal("fully-masked loss must be a zero constant")
	}
}

// TestCheckpointResumeWarmStart trains, saves, and resumes: the warm-started
// run must begin where the cold run ends up, not where it starts.
func TestCheckpointResumeWarmStart(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "model.pgtc")

	pretrain := tinyCfg(Index)
	pretrain.Epochs = 6
	pretrain.SaveCheckpoint = ckpt
	repPre, err := Run(pretrain)
	if err != nil {
		t.Fatal(err)
	}

	warm := tinyCfg(Index)
	warm.Epochs = 1
	warm.LoadCheckpoint = ckpt
	repWarm, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}

	cold := tinyCfg(Index)
	cold.Epochs = 1
	repCold, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}

	if repWarm.Curve[0].TrainMAE >= repCold.Curve[0].TrainMAE {
		t.Fatalf("warm start (%f) must begin below cold start (%f)",
			repWarm.Curve[0].TrainMAE, repCold.Curve[0].TrainMAE)
	}
	// And roughly where pretraining left off.
	preFinal := repPre.Curve[len(repPre.Curve)-1].TrainMAE
	if repWarm.Curve[0].TrainMAE > preFinal*1.5 {
		t.Fatalf("warm start (%f) should continue from the pretrained level (%f)",
			repWarm.Curve[0].TrainMAE, preFinal)
	}
}

func TestEmitForecasts(t *testing.T) {
	cfg := tinyCfg(Index)
	cfg.Epochs = 3
	cfg.EmitForecasts = 2
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Forecasts) != 2 {
		t.Fatalf("forecasts %d want 2", len(rep.Forecasts))
	}
	for _, f := range rep.Forecasts {
		if len(f.Pred) != f.Horizon*f.Nodes || len(f.Actual) != len(f.Pred) {
			t.Fatalf("forecast layout wrong: %d values for %dx%d", len(f.Pred), f.Horizon, f.Nodes)
		}
		for _, v := range f.Pred {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("forecast value not finite")
			}
		}
		// Actual values are real traffic speeds after un-z-scoring.
		for _, v := range f.Actual {
			if v < -5 || v > 120 {
				t.Fatalf("actual speed %v implausible", v)
			}
		}
		if f.MAE() <= 0 || f.MAE() > 100 {
			t.Fatalf("forecast MAE %v out of band", f.MAE())
		}
	}
	// Without the flag, no forecasts are attached.
	cfg.EmitForecasts = 0
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Forecasts != nil {
		t.Fatal("forecasts must be opt-in")
	}
}

func TestLoadMissingCheckpointFails(t *testing.T) {
	cfg := tinyCfg(Index)
	cfg.LoadCheckpoint = filepath.Join(t.TempDir(), "absent.pgtc")
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for missing checkpoint")
	}
}

// TestMaskedLossOnTheGrid: missing-data runs train and validate with the
// masked MAE on every unsharded distributed strategy. With one worker the
// grid trainer replays the single-GPU index schedule, so its curve matches
// the index run's masked curve to reassociation noise.
func TestMaskedLossOnTheGrid(t *testing.T) {
	index := tinyCfg(Index)
	index.MissingFrac = 0.3
	ref, err := Run(index)
	if err != nil {
		t.Fatal(err)
	}
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)) }
	for _, s := range []Strategy{DistIndex, BaselineDDP, GenDistIndex} {
		cfg := tinyCfg(s)
		cfg.MissingFrac = 0.3
		cfg.Workers = 1
		cfg.Sampler, cfg.SamplerSet = ddp.GlobalShuffle, true
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for i, r := range rep.Curve {
			if d := rel(r.TrainMAE, ref.Curve[i].TrainMAE); d > 1e-9 {
				t.Errorf("%v epoch %d: train MAE %v vs index %v (rel %g)", s, i, r.TrainMAE, ref.Curve[i].TrainMAE, d)
			}
			if d := rel(r.ValMAE, ref.Curve[i].ValMAE); d > 1e-9 {
				t.Errorf("%v epoch %d: val MAE %v vs index %v (rel %g)", s, i, r.ValMAE, ref.Curve[i].ValMAE, d)
			}
		}
		// Two workers train the masked loss too, and learn.
		cfg.Workers = 2
		rep, err = Run(cfg)
		if err != nil {
			t.Fatalf("%v x2: %v", s, err)
		}
		if first, last := rep.Curve[0].TrainMAE, rep.Curve[len(rep.Curve)-1].TrainMAE; !(last < first) {
			t.Errorf("%v x2: masked training did not learn: %v -> %v", s, first, last)
		}
	}
}
