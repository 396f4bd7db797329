// Command perfbench is the repository's benchmark. It drives the pgti
// program from outside on four workloads and prints one JSON result line:
//
//	perfbench --workload train-index --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics through the public
// pgti API. With --trace 1 it instead times calls into the exported
// functions of internal/* from its own spans and reports per-layer metrics.
// Every run checks the program's outputs; a failed check makes the result
// incorrect and the exit code 1. See README.md for the metrics and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric a run reports, with its unit.
// A virtual-ms is a millisecond of the program's modeled clock, not of
// wall time.
var endToEnd = map[string]string{
	"setup_s":            "s",
	"fit_samples_per_s":  "1/s",
	"val_mae":            "std",
	"live_heap_bytes":    "bytes",
	"model_peak_bytes":   "bytes",
	"model_epoch_ms":     "virtual-ms",
	"alloc_bytes_per_op": "bytes",
	"allocs_per_op":      "count",
	"serve_rps":          "1/s",
	"serve_p50_ms":       "ms",
	"ops_ok_frac":        "frac",
}

var perLayer = map[string]string{
	"dataset.generate_ms":           "ms",
	"batching.index_build_ms":       "ms",
	"shard.plan_ms":                 "ms",
	"batching.assemble_ms":          "ms",
	"batching.assemble_alloc_bytes": "bytes",
	"nn.forward_ms":                 "ms",
	"nn.forward_alloc_bytes":        "bytes",
	"nn.propagate_ms":               "ms",
	"nn.propagate_calls":            "count",
	"autograd.backward_ms":          "ms",
	"autograd.backward_alloc_bytes": "bytes",
	"nn.optim_step_ms":              "ms",
	"core.eval_ms":                  "ms",
	"ddp.step_rest_ms":              "ms",
	"shard.step_rest_ms":            "ms",
	"ddp.grad_sync_bytes_per_step":  "bytes",
	"ddp.comm_exposed_ms":           "virtual-ms",
	"ddp.comm_hidden_ms":            "virtual-ms",
	"shard.halo_bytes_per_step":     "bytes",
	"shard.halo_exposed_ms":         "virtual-ms",
	"shard.halo_hidden_ms":          "virtual-ms",
	"shard.edge_cut":                "count",
	"memsim.retained_data_bytes":    "bytes",
	"runtime.gc_cpu_frac":           "frac",
	"runtime.gc_cycles_per_op":      "count",
	"serve.p99_ms":                  "ms",
	"serve.queue_wait_ms":           "ms",
	"serve.batch_size":              "count",
	"serve.forward_ms":              "ms",
	"serve.forward_alloc_bytes":     "bytes",
	"serve.swap_ms":                 "ms",
	"serve.shed":                    "count",
	"serve.retries":                 "count",
	"trace.overhead_frac":           "frac",
}

// run is one benchmark run: its settings, the checks it made, and the
// metrics it measured.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	sz       sizes
	spans    string // where a traced run writes its spans

	attempted, failed int
	metrics           map[string]float64
	diag              map[string]float64
}

// check counts one checked operation, and a failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) exec() error {
	r.metrics = map[string]float64{}
	r.diag = map[string]float64{}
	if r.traced {
		return r.traceRun()
	}
	heap := startLiveHeap()
	var err error
	if r.workload == serveMixed {
		err = r.serveE2E()
	} else {
		err = r.trainE2E()
	}
	live := heap.Stop()
	r.set("live_heap_bytes", percentile(live, 90))
	r.diag["gc_cycles"] = float64(len(live))
	r.diag["live_heap_p50"] = percentile(live, 50)
	r.diag["live_heap_p99"] = percentile(live, 99)
	r.diag["live_heap_max"] = percentile(live, 100)
	r.set("ops_ok_frac", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)))
	return err
}

// result assembles the output line: every metric of the run's mode, each
// present and finite, or an error naming the first that is not.
func (r *run) result() (result, error) {
	want := endToEnd
	if r.traced {
		want = perLayer
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := r.metrics[name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", name, v)
		}
		out.Metrics[name] = metric{Value: v, Unit: want[name]}
	}
	out.Correct = r.failed == 0 && r.attempted > 0
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload: train-index, train-ddp, train-spatial or serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed: the dataset, the initialization and the shuffles derive from it")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	smoke := flag.Bool("smoke", false, "tiny sizes: a quick check that every workload runs, not a measurement")
	flag.Parse()

	r := &run{workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1, sz: fullSizes,
		spans: filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))}
	if *smoke {
		r.sz = smokeSizes
	}
	if err := validWorkload(r.workload); err != nil {
		fail(err)
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	if r.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", r.seconds))
	}

	nz := startNoise()
	start := time.Now()
	if err := r.exec(); err != nil {
		fail(err)
	}
	for k, v := range nz.finish() {
		r.diag[k] = v
	}
	r.diag["wall_s"] = time.Since(start).Seconds()

	res, err := r.result()
	if err != nil {
		fail(err)
	}
	diag, _ := json.Marshal(map[string]any{"diagnostics": r.diag})
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(diag))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func validWorkload(w string) error {
	for _, name := range workloads {
		if w == name {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (want one of %v)", w, workloads)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
