package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pgti"
)

// smokeRun runs one tiny pass of a workload and fails the test on an error
// or a failed output check.
func smokeRun(t *testing.T, workload string, traced bool) *run {
	t.Helper()
	return sizedRun(t, workload, traced, smokeSizes)
}

func sizedRun(t *testing.T, workload string, traced bool, sz sizes) *run {
	t.Helper()
	r := &run{workload: workload, seed: 3, seconds: 0.3, traced: traced, sz: sz,
		spans: filepath.Join(t.TempDir(), "spans.json")}
	if err := r.exec(); err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	if r.failed > 0 || r.attempted == 0 {
		t.Fatalf("%s traced=%v: %d of %d checks failed", workload, traced, r.failed, r.attempted)
	}
	return r
}

// TestSmokeDeterminism runs every workload twice at one seed: the trained
// and modeled outputs repeat exactly.
func TestSmokeDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, b := smokeRun(t, w, false), smokeRun(t, w, false)
			exact := []string{"val_mae", "model_peak_bytes"}
			if w != trainIndex { // the index clock charges measured compute
				exact = append(exact, "model_epoch_ms")
			}
			for _, m := range exact {
				if a.metrics[m] != b.metrics[m] {
					t.Errorf("%s: %v then %v", m, a.metrics[m], b.metrics[m])
				}
			}
			ta, tb := smokeRun(t, w, true), smokeRun(t, w, true)
			for _, m := range []string{"shard.halo_bytes_per_step", "ddp.grad_sync_bytes_per_step", "shard.edge_cut", "memsim.retained_data_bytes"} {
				if ta.metrics[m] != tb.metrics[m] {
					t.Errorf("%s: %v then %v", m, ta.metrics[m], tb.metrics[m])
				}
			}
			for _, rr := range []*run{a, ta} {
				if _, err := rr.result(); err != nil {
					t.Errorf("traced=%v: %v", rr.traced, err)
				}
			}
		})
	}
}

// TestAllocsRepeat: at the Table-1 size two runs of a training workload
// allocate nearly the same objects per sample (the median over seven
// fits): train-index to within 0.1%. The two-worker workloads get 0.25%:
// their cluster goroutines (and the helper goroutines of internal/parallel)
// allocate as the scheduler interleaves them, and over ten runs of ten
// seeds on a loaded 2-vCPU host their medians ranged 0.12% (train-ddp)
// and 0.16% (train-spatial). One smoke-size fit moves by up to 0.5%, so
// the check runs at full size. Serving is left out: how requests coalesce,
// and so what a request allocates, follows the host's timing.
func TestAllocsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("trains at the Table-1 size")
	}
	sz := smokeSizes
	sz.scale, sz.minFits = 1, 7
	for _, c := range []struct {
		workload string
		tol      float64
	}{{trainIndex, 1e-3}, {trainDDP, 2.5e-3}, {trainSpatial, 2.5e-3}} {
		a, b := sizedRun(t, c.workload, false, sz), sizedRun(t, c.workload, false, sz)
		if x, y := a.metrics["allocs_per_op"], b.metrics["allocs_per_op"]; math.Abs(x-y) > c.tol*x {
			t.Errorf("%s: allocs_per_op %v then %v", c.workload, x, y)
		}
	}
}

// TestSpatialMatchesIndex: the two-shard run reproduces the single-worker
// index run's validation MAE at the same seed.
func TestSpatialMatchesIndex(t *testing.T) {
	idx, sp := smokeRun(t, trainIndex, false), smokeRun(t, trainSpatial, false)
	x, y := idx.metrics["val_mae"], sp.metrics["val_mae"]
	if math.Abs(x-y) > spatialTol*math.Abs(x) {
		t.Fatalf("train-index val MAE %v, train-spatial %v", x, y)
	}
}

// TestTracedIndexFidelity: the benchmark-driven index loop reproduces the
// untraced Fit curve bit for bit (a check inside the traced run), its layer
// spans account for the step's wall time to within 10%, and the overhead
// is the gap between the traced and untraced throughput.
func TestTracedIndexFidelity(t *testing.T) {
	r := smokeRun(t, trainIndex, true)
	b, err := os.ReadFile(r.spans)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	ix := indexSpans(spans)
	steps := ix.named("step")
	if len(steps) == 0 {
		t.Fatal("no step spans")
	}
	var wall, layers time.Duration
	for _, s := range steps {
		wall += ix.spans[s].dur()
		layers += ix.spans[s].dur() - ix.self(s)
	}
	if float64(layers) < 0.9*float64(wall) {
		t.Errorf("layer self times cover %v of %v step wall time", layers, wall)
	}
	for _, m := range []string{"batching.assemble_ms", "nn.forward_ms", "nn.propagate_ms", "autograd.backward_ms", "nn.optim_step_ms", "core.eval_ms"} {
		if r.metrics[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, r.metrics[m])
		}
	}
	if o := r.metrics["trace.overhead_frac"]; !(o > -1 && o < 0.5) {
		t.Errorf("trace.overhead_frac = %v", o)
	}
}

// TestTracedStepsCoverDistributedRuns: the step spans read off the forward
// spans of ddp.Train and shard.Train split each step into forward and rest.
func TestTracedStepsCoverDistributedRuns(t *testing.T) {
	for _, w := range []string{trainDDP, trainSpatial} {
		r := smokeRun(t, w, true)
		rest := map[string]string{trainDDP: "ddp.step_rest_ms", trainSpatial: "shard.step_rest_ms"}[w]
		for _, m := range []string{"nn.forward_ms", "nn.propagate_ms", rest, "core.eval_ms", "ddp.grad_sync_bytes_per_step"} {
			if r.metrics[m] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, m, r.metrics[m])
			}
		}
		if w == trainSpatial && r.metrics["shard.halo_bytes_per_step"] <= 0 {
			t.Errorf("no halo traffic on %s", w)
		}
	}
}

// wrongServer answers every request with a forecast one ulp off.
type wrongServer struct{ p *pgti.Predictor }

func (s wrongServer) Predict(_ context.Context, w pgti.Window) (pgti.Forecast, error) {
	f, err := s.p.Predict(w)
	if err == nil {
		f.Pred = append([]float64(nil), f.Pred...)
		f.Pred[0] = math.Nextafter(f.Pred[0], math.Inf(1))
	}
	return f, err
}

// TestServeCheckCatchesWrongAnswers: a forecast that differs from the
// serial Predictor in one bit fails its request's check.
func TestServeCheckCatchesWrongAnswers(t *testing.T) {
	r := &run{workload: trainIndex, seed: 3, sz: smokeSizes, metrics: map[string]float64{}, diag: map[string]float64{}}
	opts, err := trainOptions(trainIndex, r.seed, r.sz)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newBuilt(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	d, err := openData(r.seed, r.sz)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := predictors(e)
	if err != nil {
		t.Fatal(err)
	}
	windows := d.testWindows()
	expect, err := expectedForecasts(windows, preds)
	if err != nil {
		t.Fatal(err)
	}
	(&load{srv: wrongServer{preds[0]}, windows: windows, expect: expect, minReq: 10}).run(r)
	if r.failed == 0 || r.failed != r.attempted {
		t.Fatalf("%d of %d wrong answers caught", r.failed, r.attempted)
	}
}

// TestManifestMatches: BENCHMARK.json at the repository root lists exactly
// the metrics, with the units, that a run reports.
func TestManifestMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		want   map[string]string
	}{{m.EndToEnd, endToEnd}, {m.PerLayer, perLayer}} {
		if len(c.listed) != len(c.want) {
			t.Errorf("manifest lists %d metrics, runs report %d", len(c.listed), len(c.want))
		}
		for _, e := range c.listed {
			if u, ok := c.want[e.Name]; !ok || u != e.Unit {
				t.Errorf("manifest metric %s (%s): run reports unit %q", e.Name, e.Unit, u)
			}
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, want %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("manifest workload %d is %s, want %s", i, w.Name, workloads[i])
		}
	}
}

// TestCoreConfigMatchesOptions: the engine configuration the traced runs
// build is the one the end-to-end runs' pgti options resolve to — both fit
// the same curve bit for bit.
func TestCoreConfigMatchesOptions(t *testing.T) {
	for _, w := range workloads {
		opts, err := trainOptions(w, 3, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		e, err := newBuilt(opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Fit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := coreConfig(w, 3, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		eng, _, err := fitEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !curveBitsEqual(rep.Curve, eng.Report().Curve) {
			t.Errorf("%s: options fit %v, engine fit %v", w, rep.Curve, eng.Report().Curve)
		}
	}
}
