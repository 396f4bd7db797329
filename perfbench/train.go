package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"pgti"
)

// spatialTol is the repository's pinned contract for a spatially sharded
// run against the unsharded one: equal validation MAE up to fp64
// reassociation of the sharded loss sums (1e-9 relative).
const spatialTol = 1e-9

// checkFit checks one fitted report: a full curve of finite values and,
// when ref is set, the same curve bit for bit (a fit is deterministic per
// seed). It returns the curve's validation MAEs, nil when the check failed.
func (r *run) checkFit(rep *pgti.Report, ref []float64) []float64 {
	ok := rep != nil && len(rep.Curve) == r.sz.epochs
	var vals []float64
	if ok {
		for _, e := range rep.Curve {
			vals = append(vals, e.ValMAE)
			ok = ok && !math.IsNaN(e.ValMAE) && !math.IsInf(e.ValMAE, 0) && !math.IsNaN(e.TrainMAE)
		}
	}
	if ok && ref != nil {
		ok = bitsEqual(vals, ref)
	}
	r.check(ok, "%s seed %d: fit curve %v (reference %v)", r.workload, r.seed, vals, ref)
	if !ok {
		return nil
	}
	return vals
}

// setModeled sets the metrics that come from the program's own report:
// the last epoch's validation MAE in units of the training split's standard
// deviation (the scale the model trains in; the generated signal's own
// scale varies with the seed), and memsim's modeled peak.
func (r *run) setModeled(rep *pgti.Report, std float64) {
	r.set("val_mae", rep.Curve[len(rep.Curve)-1].ValMAE/std)
	r.set("model_peak_bytes", float64(rep.PeakSystemBytes))
}

// epochMs is the report's modeled epoch time. The single-worker index
// clock charges measured compute, so there it is scaled like every timed
// metric by the fit's adjusted/wall ratio; the distributed clocks are
// pinned and taken as they are.
func (r *run) epochMs(rep *pgti.Report, wall, adj time.Duration) float64 {
	v := ms(rep.VirtualTime) / float64(len(rep.Curve))
	if r.workload == trainIndex {
		v *= float64(adj) / float64(wall)
	}
	return v
}

func newBuilt(opts []pgti.Option) (*pgti.Experiment, error) {
	e, err := pgti.NewExperiment(datasetName, opts...)
	if err != nil {
		return nil, err
	}
	return e, e.Build()
}

// trainE2E is the end-to-end run of a train-* workload: timed
// constructions for setup_s, then fresh fits of the same seed for the
// measured seconds, then a serve phase of a fixed request count over the
// last fitted model.
func (r *run) trainE2E() error {
	opts, err := trainOptions(r.workload, r.seed, r.sz)
	if err != nil {
		return err
	}
	// The median of many short constructions: a burst of host load
	// stalls a few of them, not the median.
	var setups []float64
	for start := time.Now(); len(setups) < r.sz.setupReps || time.Since(start) < r.sz.setupFor; {
		runtime.GC()
		t := time.Now()
		if _, err := newBuilt(opts); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", median(setups))
	r.diag["setup_reps"] = float64(len(setups))

	// The sharded run must reproduce the single-worker index run.
	var spatialRef float64
	if r.workload == trainSpatial {
		iopts, _ := trainOptions(trainIndex, r.seed, r.sz)
		e, err := newBuilt(iopts)
		if err != nil {
			return err
		}
		rep, err := e.Fit(context.Background())
		if err != nil {
			return fmt.Errorf("reference index fit: %w", err)
		}
		spatialRef = rep.Curve[len(rep.Curve)-1].ValMAE
	}

	var (
		sps, raw, epoch   []float64
		bytesPer, objsPer []float64
		ref               []float64
		last              *pgti.Experiment
		lastRep           *pgti.Report
	)
	fitFor := time.Duration(r.seconds * float64(time.Second))
	start := time.Now()
	for n := 0; n < r.sz.minFits || time.Since(start) < fitFor; n++ {
		e, err := newBuilt(opts)
		if err != nil {
			return err
		}
		runtime.GC()
		c0 := readCounters()
		sw := startWatch()
		rep, err := e.Fit(context.Background())
		wall, adj := sw.elapsed(true)
		c := readCounters().sub(c0)
		if err != nil {
			r.check(false, "fit %d: %v", n, err)
			continue
		}
		s := float64(rep.Steps * rep.GlobalBatch)
		sps = append(sps, s/adj.Seconds())
		raw = append(raw, s/wall.Seconds())
		epoch = append(epoch, r.epochMs(rep, wall, adj))
		bytesPer = append(bytesPer, c.allocBytes/s)
		objsPer = append(objsPer, c.allocObjs/s)
		if got := r.checkFit(rep, ref); ref == nil {
			ref = got
		}
		if r.workload == trainSpatial {
			got := rep.Curve[len(rep.Curve)-1].ValMAE
			r.check(math.Abs(got-spatialRef) <= spatialTol*math.Abs(spatialRef),
				"train-spatial val MAE %v vs train-index %v at seed %d", got, spatialRef, r.seed)
		}
		last, lastRep = e, rep
	}
	if last == nil {
		return fmt.Errorf("no fit completed")
	}
	d, err := openData(r.seed, r.sz)
	if err != nil {
		return err
	}
	r.set("fit_samples_per_s", median(sps))
	r.set("model_epoch_ms", median(epoch))
	r.diag["fit_samples_per_s_wall"] = median(raw)
	r.setModeled(lastRep, d.idx.Std)
	r.set("alloc_bytes_per_op", median(bytesPer))
	r.set("allocs_per_op", median(objsPer))
	r.diag["fits"] = float64(len(sps))

	srv, err := pgti.NewServer(last)
	if err != nil {
		return err
	}
	defer srv.Close()
	windows := d.testWindows()
	preds, err := predictors(last)
	if err != nil {
		return err
	}
	expect, err := expectedForecasts(windows, preds)
	if err != nil {
		return err
	}
	res := (&load{srv: srv, windows: windows, expect: expect, minReq: r.sz.minServe}).run(r)
	r.setLatency(res)
	return nil
}
