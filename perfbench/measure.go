package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Runtime counters read through runtime/metrics.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mLiveHeap   = "/gc/heap/live:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// counters is a snapshot of the process-wide allocation and GC counters.
type counters struct {
	allocBytes, allocObjs, gcCycles float64
	gcCPU, totalCPU                 float64
}

func readCounters() counters {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return counters{allocBytes: v(0), allocObjs: v(1), gcCycles: v(2), gcCPU: v(3), totalCPU: v(4)}
}

func (c counters) sub(o counters) counters {
	return counters{
		allocBytes: c.allocBytes - o.allocBytes,
		allocObjs:  c.allocObjs - o.allocObjs,
		gcCycles:   c.gcCycles - o.gcCycles,
		gcCPU:      c.gcCPU - o.gcCPU,
		totalCPU:   c.totalCPU - o.totalCPU,
	}
}

// allocBytes returns the bytes allocated on the heap so far (one counter,
// cheap enough to read around a single call).
func allocBytes() float64 {
	s := []metrics.Sample{{Name: mAllocBytes}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// liveHeap records the live heap (the heap left marked after a GC) at the
// end of every GC cycle while it runs. A finalizer re-armed on every cycle
// reads the counter, so each cycle is sampled once and nothing polls.
type liveHeap struct {
	mu      sync.Mutex
	samples []float64
	stop    bool
}

type gcSentinel struct{ _ [16]byte }

func startLiveHeap() *liveHeap {
	h := &liveHeap{}
	h.arm()
	return h
}

func (h *liveHeap) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		s := []metrics.Sample{{Name: mLiveHeap}}
		metrics.Read(s)
		h.mu.Lock()
		h.samples = append(h.samples, float64(s[0].Value.Uint64()))
		stop := h.stop
		h.mu.Unlock()
		if !stop {
			h.arm()
		}
	})
}

// Stop ends sampling and returns the live heap after each GC cycle seen.
func (h *liveHeap) Stop() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stop = true
	return append([]float64(nil), h.samples...)
}

// cpuStat reads the aggregate "cpu" line of /proc/stat: the steal ticks,
// the total ticks and the busy ticks (user, nice, system, irq, softirq) of
// every process on the machine. ok is false where the file is missing
// (non-Linux).
func cpuStat() (steal, total, busy float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, 0, false
		}
		total += v
		switch i {
		case 7:
			steal = v
		case 0, 1, 2, 5, 6:
			busy += v
		}
	}
	return steal, total, busy, true
}

// processCPU returns this process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// userHZ is the tick rate of /proc/stat's counters.
const userHZ = 100

// vcpu is one CPU's tick counters from /proc/stat.
type vcpu struct{ busy, idle, steal float64 }

// vcpus reads the per-CPU lines of /proc/stat (nil where unavailable).
func vcpus() []vcpu {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []vcpu
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		var v [8]float64
		for i := range v {
			v[i], _ = strconv.ParseFloat(f[i+1], 64)
		}
		// user nice system idle iowait irq softirq steal
		out = append(out, vcpu{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]})
	}
	return out
}

// stopwatch times an interval on two clocks: the wall clock, and the wall
// clock with the time the host stole from the run taken out. On a shared
// VM the host runs other guests on our vCPUs ("steal"); the run's threads
// stall meanwhile, so the wall time of the same work grows with the host's
// load, not with the program. The guest kernel charges no CPU time to a
// thread while its vCPU is stolen, and /proc/stat counts each vCPU's busy,
// idle and stolen ticks. Over an interval with wall time W, process CPU
// time C and stolen time S, the same work takes W·C/(C+S) on an unloaded
// host. Which steal counts depends on the work:
//
//   - A fit's workers meet at a barrier every step, and the parallel
//     kernels at every op, so a step waits for whichever vCPU the host
//     stalled, busy or not: all steal counts (allSteal).
//   - Serving idles between requests, and steal also lands on idle
//     (polling) vCPUs, so a vCPU's steal counts in proportion to how busy
//     that vCPU was: S = sum of steal·busy/(busy+idle).
type stopwatch struct {
	t    time.Time
	cpu  float64 // process CPU seconds
	vcpu []vcpu
}

func startWatch() stopwatch {
	return stopwatch{t: time.Now(), cpu: processCPU(), vcpu: vcpus()}
}

// elapsed returns the wall time and the adjusted time from s until now.
func (s stopwatch) elapsed(allSteal bool) (wall, adjusted time.Duration) {
	e := startWatch()
	wall = e.t.Sub(s.t)
	c, st := e.cpu-s.cpu, 0.0
	for i := range s.vcpu {
		if i >= len(e.vcpu) {
			break
		}
		steal := (e.vcpu[i].steal - s.vcpu[i].steal) / userHZ
		busy, idle := e.vcpu[i].busy-s.vcpu[i].busy, e.vcpu[i].idle-s.vcpu[i].idle
		switch {
		case allSteal:
			st += steal
		case busy+idle > 0:
			st += steal * busy / (busy + idle)
		}
	}
	if c <= 0 || st <= 0 {
		return wall, wall
	}
	return wall, time.Duration(float64(wall) * c / (c + st))
}

// calibrate times a fixed integer loop that touches no memory. Its wall
// time moves only with the host (CPU frequency, steal, co-tenants), so a
// slow run whose calibration also slowed was slowed by the machine.
func calibrate() float64 {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return ms(time.Since(start))
}

var calibSink uint64

// noise collects the host-noise diagnostics of one run.
type noise struct {
	steal0, total0, busy0, cpu0 float64
	ok                          bool
	calibStart                  float64
}

func startNoise() *noise {
	n := &noise{calibStart: calibrate()}
	n.steal0, n.total0, n.busy0, n.ok = cpuStat()
	n.cpu0 = processCPU()
	return n
}

// finish returns the diagnostics: the shares of all CPU ticks over the run
// that the host stole and that other processes on the machine used (-1
// when /proc/stat is unavailable), and the calibration loop's wall time at
// the start and the end of the run.
func (n *noise) finish() map[string]float64 {
	stealFrac, otherFrac := -1.0, -1.0
	if s, t, b, ok := cpuStat(); ok && n.ok && t > n.total0 {
		stealFrac = (s - n.steal0) / (t - n.total0)
		otherFrac = max((b-n.busy0)/(t-n.total0)-(processCPU()-n.cpu0)*userHZ/(t-n.total0), 0)
	}
	return map[string]float64{
		"steal_frac":       stealFrac,
		"other_cpu_frac":   otherFrac,
		"calibration_ms_0": n.calibStart,
		"calibration_ms_1": calibrate(),
	}
}
