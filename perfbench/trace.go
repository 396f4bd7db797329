package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/nn"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Worker int     `json:"worker"`
	Parent int     `json:"parent"` // -1 for a root span
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Alloc  float64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder holds the spans of a traced run in memory; write saves them
// when the run ends. Safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) begin(name string, worker, parent int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Worker: worker, Parent: parent, Start: t, End: t})
	return id
}

func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

func (r *recorder) endAlloc(id int, alloc float64) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.spans[id].Alloc = alloc
	r.mu.Unlock()
}

// add records a span whose bounds are known after the fact (a step
// boundary read off the forward spans) and returns its id.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) setParent(id, parent int) {
	r.mu.Lock()
	r.spans[id].Parent = parent
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanIndex answers parent/child questions over a set of spans.
type spanIndex struct {
	spans    []span
	children map[int][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[int][]int{}}
	for _, s := range spans {
		if s.Parent >= 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
	}
	return ix
}

// self is a span's duration minus the time its child spans cover.
func (ix *spanIndex) self(id int) time.Duration {
	d := ix.spans[id].dur()
	for _, c := range ix.children[id] {
		d -= ix.spans[c].dur()
	}
	return max(d, 0)
}

// named returns the ids of every span called name.
func (ix *spanIndex) named(name string) []int {
	var out []int
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s.ID)
		}
	}
	return out
}

// under sums, over the descendants of id called name, their durations and
// allocations, and counts them.
func (ix *spanIndex) under(id int, name string) (d time.Duration, alloc float64, n int) {
	for _, c := range ix.children[id] {
		if ix.spans[c].Name == name {
			d += ix.spans[c].dur()
			alloc += ix.spans[c].Alloc
			n++
		}
		cd, ca, cn := ix.under(c, name)
		d, alloc, n = d+cd, alloc+ca, n+cn
	}
	return d, alloc, n
}

// perStep returns, for each step span, the summed duration (ms), summed
// allocation and count of its descendants called name.
func (ix *spanIndex) perStep(steps []int, name string) (msPer, allocPer, calls []float64) {
	for _, s := range steps {
		d, a, n := ix.under(s, name)
		msPer = append(msPer, ms(d))
		allocPer = append(allocPer, a)
		calls = append(calls, float64(n))
	}
	return msPer, allocPer, calls
}

// workerState is one model replica's tracing state: the span its forwards
// nest under and the open forward span its propagators nest under.
type workerState struct {
	rec     *recorder
	worker  int
	parent  int // -1 when forwards are root spans
	forward int // -1 outside a traced forward
}

func newWorkerState(rec *recorder, worker int) *workerState {
	return &workerState{rec: rec, worker: worker, parent: -1, forward: -1}
}

// tracedModel wraps a model's Forward in an nn.forward span.
type tracedModel struct {
	nn.SeqModel
	st *workerState
}

func (m *tracedModel) Forward(x *autograd.Variable) *autograd.Variable {
	a0 := allocBytes()
	m.st.forward = m.st.rec.begin("nn.forward", m.st.worker, m.st.parent)
	out := m.SeqModel.Forward(x)
	m.st.rec.endAlloc(m.st.forward, allocBytes()-a0)
	m.st.forward = -1
	return out
}

// tracedProp wraps a Propagator (the CSR SpMM, or the halo-exchanging
// sharded SpMM) in nn.propagate spans under the open forward span.
type tracedProp struct {
	nn.Propagator
	st *workerState
}

func (p tracedProp) Propagate(x *autograd.Variable) *autograd.Variable {
	if p.st.forward < 0 {
		return p.Propagator.Propagate(x)
	}
	id := p.st.rec.begin("nn.propagate", p.st.worker, p.st.forward)
	out := p.Propagator.Propagate(x)
	p.st.rec.end(id)
	return out
}

func traceProps(props []nn.Propagator, st *workerState) []nn.Propagator {
	out := make([]nn.Propagator, len(props))
	for i, p := range props {
		out[i] = tracedProp{Propagator: p, st: st}
	}
	return out
}
