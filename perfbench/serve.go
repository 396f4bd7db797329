package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgti"
)

// predictor is what the closed-loop callers need from a server: pgti.Server
// in the end-to-end runs, the internal serve.Server in the traced ones.
type predictor interface {
	Predict(ctx context.Context, w pgti.Window) (pgti.Forecast, error)
}

// load is one serve phase: two closed-loop callers, each cycling through
// its own share of the test windows (caller c owns windows c, c+2, ...), until
// both the duration has passed and minReq requests have completed. When
// swap is set, caller 0 calls it after every swapEvery of its requests.
type load struct {
	srv       predictor
	windows   []pgti.Window
	expect    [][][]float64 // per window: every forecast a correct server may return
	dur       time.Duration
	minReq    int
	swapEvery int
	swap      func(k int) error
	// onCall, when set, observes each request's call start and latency
	// (the traced run derives queue waits from it).
	onCall func(caller int, w pgti.Window, start time.Time, lat time.Duration)
}

type sample struct {
	done time.Duration // completion, since the phase started
	lat  time.Duration
}

// loadResult holds the checked samples of a serve phase in completion
// order, the phase's wall and adjusted times (see stopwatch) and its
// allocation counters.
type loadResult struct {
	samples   []sample
	wall, adj time.Duration
	cnt       counters
}

// rps is the phase's checked requests per adjusted second.
func (res loadResult) rps() float64 { return float64(len(res.samples)) / res.adj.Seconds() }

// predictors returns the serial Predictor of each fitted experiment.
func predictors(exps ...*pgti.Experiment) ([]*pgti.Predictor, error) {
	out := make([]*pgti.Predictor, len(exps))
	for i, e := range exps {
		p, err := e.Predictor()
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// expectedForecasts returns, per window, each predictor's serial output:
// the answers a correct server may give.
func expectedForecasts(windows []pgti.Window, preds []*pgti.Predictor) ([][][]float64, error) {
	out := make([][][]float64, len(windows))
	for _, p := range preds {
		for i, w := range windows {
			f, err := p.Predict(w)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], f.Pred)
		}
	}
	return out, nil
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// run drives the phase. Every request is a checked op: it must return
// without error a forecast bitwise equal to one of the expected ones.
func (l *load) run(r *run) loadResult {
	var completed atomic.Int64
	per := make([][]sample, workers)
	errs := make([][]string, workers)
	var wg sync.WaitGroup
	runtime.GC()
	c0 := readCounters()
	sw := startWatch()
	start := sw.t
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for n := 0; ; n++ {
				if time.Since(start) >= l.dur && completed.Load() >= int64(l.minReq) {
					return
				}
				i := c + (n%owned(len(l.windows), c))*workers
				t := time.Now()
				f, err := l.srv.Predict(ctx, l.windows[i])
				lat := time.Since(t)
				completed.Add(1)
				if l.onCall != nil {
					l.onCall(c, l.windows[i], t, lat)
				}
				switch {
				case err != nil:
					errs[c] = append(errs[c], fmt.Sprintf("caller %d request %d: %v", c, n, err))
				case !matchesAny(f.Pred, l.expect[i]):
					errs[c] = append(errs[c], fmt.Sprintf("caller %d request %d: window %d forecast matches no serial Predictor output", c, n, i))
				default:
					per[c] = append(per[c], sample{done: time.Since(start), lat: lat})
				}
				if c == 0 && l.swap != nil && (n+1)%l.swapEvery == 0 {
					if err := l.swap((n + 1) / l.swapEvery); err != nil {
						errs[c] = append(errs[c], fmt.Sprintf("swap %d: %v", (n+1)/l.swapEvery, err))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{cnt: readCounters().sub(c0)}
	res.wall, res.adj = sw.elapsed(false)
	for c := range per {
		res.samples = append(res.samples, per[c]...)
		for _, e := range errs[c] {
			r.check(false, "%s", e)
		}
	}
	for range res.samples {
		r.check(true, "")
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].done < res.samples[j].done })
	return res
}

// owned is how many of n windows caller c owns.
func owned(n, c int) int { return (n - c + workers - 1) / workers }

func matchesAny(pred []float64, want [][]float64) bool {
	for _, w := range want {
		if bitsEqual(pred, w) {
			return true
		}
	}
	return false
}

// latency cuts the samples, in completion order, into chunks of chunk
// requests (the last chunk takes the remainder) and returns the median
// over the chunks of their rate (requests per wall second), p50 and p99, so
// a burst of host load moves one chunk, not the result. With chunks of
// 1000 a chunk's p99 has ten samples beyond it.
func latency(res loadResult, chunk int) (rps, p50, p99 float64) {
	n := len(res.samples)
	chunks := max(n/chunk, 1)
	var rates, p50s, p99s []float64
	prev := time.Duration(0)
	for k := 0; k < chunks; k++ {
		part := res.samples[k*chunk:]
		if k < chunks-1 {
			part = part[:chunk]
		}
		if len(part) == 0 {
			continue
		}
		lat := make([]float64, len(part))
		for i, s := range part {
			lat[i] = ms(s.lat)
		}
		end := part[len(part)-1].done
		rates = append(rates, float64(len(part))/(end-prev).Seconds())
		prev = end
		p50s = append(p50s, percentile(lat, 50))
		p99s = append(p99s, percentile(lat, 99))
	}
	return median(rates), median(p50s), median(p99s)
}

// setLatency sets serve_rps and serve_p50_ms from a serve phase, scaled by
// the phase's adjusted/wall ratio (see stopwatch); the raw values go to the
// diagnostics. So does the phase's p99: a request's tail latency on a
// shared 2-vCPU VM is set by the host's steal bursts, no scaling undoes
// that, and its spread across runs exceeds any bound the benchmark may
// set, so only the traced run reports it, unbounded.
func (r *run) setLatency(res loadResult) {
	rps, p50, p99 := latency(res, r.sz.chunk)
	f := float64(res.adj) / float64(res.wall)
	r.set("serve_rps", rps/f)
	r.set("serve_p50_ms", p50*f)
	r.diag["serve_rps_wall"] = rps
	r.diag["serve_p50_ms_wall"] = p50
	r.diag["serve_p99_ms_wall"] = p99
	r.diag["serve_samples"] = float64(len(res.samples))
}

// serveE2E is the end-to-end serve-mixed run. Set-up fits two weight sets
// on the same data (the normalization statistics a swap keeps must fit
// both): A with the global shuffle, B with the local one. Then two callers
// load a one-replica server while caller 0 swaps between B and A.
func (r *run) serveE2E() error {
	optsA, err := trainOptions(serveMixed, r.seed, r.sz)
	if err != nil {
		return err
	}
	optsB := append(append([]pgti.Option(nil), optsA...), pgti.WithShuffle(pgti.ShuffleLocal))
	var (
		setups, sps []float64
		expA, expB  *pgti.Experiment
		repA, repB  *pgti.Report
		refA, refB  []float64
		srv         *pgti.Server
	)
	for i := 0; i < r.sz.serveSetup; i++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return err
			}
		}
		runtime.GC()
		setup := startWatch()
		fit := func(opts []pgti.Option) (*pgti.Experiment, *pgti.Report, error) {
			e, err := newBuilt(opts)
			if err != nil {
				return nil, nil, err
			}
			sw := startWatch()
			rep, err := e.Fit(context.Background())
			_, adj := sw.elapsed(true)
			if err == nil {
				sps = append(sps, float64(rep.Steps*rep.GlobalBatch)/adj.Seconds())
			}
			return e, rep, err
		}
		if expA, repA, err = fit(optsA); err != nil {
			return fmt.Errorf("fit weight set A: %w", err)
		}
		if expB, repB, err = fit(optsB); err != nil {
			return fmt.Errorf("fit weight set B: %w", err)
		}
		if srv, err = pgti.NewServer(expA); err != nil {
			return err
		}
		_, adj := setup.elapsed(true)
		setups = append(setups, adj.Seconds())
		if got := r.checkFit(repA, refA); refA == nil {
			refA = got
		}
		if got := r.checkFit(repB, refB); refB == nil {
			refB = got
		}
	}
	defer srv.Close()
	d, err := openData(r.seed, r.sz)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	r.set("fit_samples_per_s", median(sps))
	r.set("model_epoch_ms", ms(repA.VirtualTime)/float64(len(repA.Curve)))
	r.setModeled(repA, d.idx.Std)

	windows := d.testWindows()
	preds, err := predictors(expA, expB)
	if err != nil {
		return err
	}
	expect, err := expectedForecasts(windows, preds)
	if err != nil {
		return err
	}
	res := (&load{
		srv: srv, windows: windows, expect: expect,
		dur: time.Duration(r.seconds * float64(time.Second)), minReq: r.sz.minServe,
		swapEvery: r.sz.swapEvery,
		swap: func(k int) error {
			if k%2 == 1 {
				return srv.Swap(expB)
			}
			return srv.Swap(expA)
		},
	}).run(r)
	r.setLatency(res)
	ops := float64(max(len(res.samples), 1))
	r.set("alloc_bytes_per_op", res.cnt.allocBytes/ops)
	r.set("allocs_per_op", res.cnt.allocObjs/ops)
	return nil
}
