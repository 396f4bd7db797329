package shard

import (
	"fmt"
	"time"

	"pgti/internal/autograd"
	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/nn"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
	"pgti/internal/trace"
)

// Stats accumulates one worker's halo traffic: wire bytes shipped, the
// modeled exchange time charged to the virtual clock, the portion of it the
// interior-first overlap hid under compute, and the real wall time spent
// blocked inside exchanges (Wall — that is communication, not compute, so
// measured-mode step timing subtracts it). Reports surface the modeled
// figures, keeping the halo overhead separable from gradient communication.
//
// Under the overlapped schedule Stats also collects the step's exchange
// launches as comm events: the trainer stamps their ready offsets onto the
// step timeline and charges max(compute, pipelined comm) once per step via
// cluster.OverlapFinish, instead of exposing every exchange's full cost.
type Stats struct {
	Bytes int64
	// Time is the total modeled halo-exchange cost (exposed + hidden).
	Time time.Duration
	// Hidden is the portion of Time the overlapped schedule hid under the
	// step's compute (zero for the blocking schedule).
	Hidden time.Duration
	Wall   time.Duration
	// PinFirstLaunch stamps each step's first overlapped exchange at ReadyAt
	// zero on measured timelines: with the prefetch pipeline the batch's
	// windows are resident before the step starts, so the first forward halo
	// exchange launches the moment the step begins instead of at its
	// measured compute offset. Structural timelines already stamp the first
	// launch at zero, so fully-modeled runs are unaffected.
	PinFirstLaunch bool
	// Trace, when set, receives halo spans (blocking exchanges record them
	// inline at charge time; the overlapped trainer renders the resolved
	// step schedule itself from the per-event labels and bytes below).
	Trace *trace.Worker
	// Channel is the modeled comm channel this worker's halo traffic rides
	// (the replica group's channel); blocking charges attribute their
	// exposure to it in ChannelExposed.
	Channel cluster.Channel
	// ChannelExposed accumulates per-channel exposed halo time charged
	// inline: blocking exchanges and the evaluation settles.
	ChannelExposed [cluster.NumChannels]time.Duration

	// Per-step overlap state (reset by BeginStep).
	stepStart   time.Time
	stepBlocked time.Duration
	events      []cluster.CommEvent
	offsets     []time.Duration
	// Per-event trace annotations, parallel to events (populated only when
	// Trace is set; the overlapped trainer labels its schedule spans from
	// them).
	stepLabels []string
	stepBytes  []int64
}

// BeginStep resets the step-scoped overlap timeline.
func (s *Stats) BeginStep() {
	s.stepStart = time.Now()
	s.stepBlocked = 0
	s.events = s.events[:0]
	s.offsets = s.offsets[:0]
	s.stepLabels = s.stepLabels[:0]
	s.stepBytes = s.stepBytes[:0]
}

// launchOffset returns the measured offset of an exchange launch into the
// step's compute, excluding wall time already spent blocked in exchanges
// (that is communication, not compute, mirroring ddp's bucket timeline).
func (s *Stats) launchOffset() time.Duration {
	off := time.Since(s.stepStart) - s.stepBlocked
	if off < 0 {
		off = 0
	}
	return off
}

// record books one completed overlapped exchange: wire bytes, modeled cost,
// the measured launch offset, and (when traced) the span label.
func (s *Stats) record(bytes int64, cost time.Duration, offset time.Duration, label string) {
	s.Bytes += bytes
	s.Time += cost
	s.events = append(s.events, cluster.CommEvent{Cost: cost})
	s.offsets = append(s.offsets, offset)
	if s.Trace != nil {
		s.stepLabels = append(s.stepLabels, label)
		s.stepBytes = append(s.stepBytes, bytes)
	}
}

// StepEvents stamps each of the step's exchange launches with its ReadyAt on
// the [0, compute) timeline and returns the events in launch order. The
// structural timeline spaces the launches evenly (fully-modeled runs use it
// so virtual clocks are machine-independent); the measured timeline uses the
// recorded launch offsets capped at compute. The slice aliases Stats state
// and is valid until the next BeginStep.
func (s *Stats) StepEvents(compute time.Duration, structural bool) []cluster.CommEvent {
	n := len(s.events)
	for i := range s.events {
		if structural {
			s.events[i].ReadyAt = time.Duration(float64(compute) * float64(i) / float64(n))
		} else {
			off := s.offsets[i]
			if s.PinFirstLaunch && i == 0 {
				off = 0
			}
			if off > compute {
				off = compute
			}
			s.events[i].ReadyAt = off
		}
	}
	return s.events
}

// StepCost returns the summed modeled cost of the step's recorded events.
func (s *Stats) StepCost() time.Duration {
	var c time.Duration
	for _, e := range s.events {
		c += e.Cost
	}
	return c
}

// Exchanger moves halo rows between the shards of one replica group over
// the cluster's neighbour collective. It implements autograd.HaloExchange
// and autograd.AsyncHaloExchange; one Exchanger serves one (worker, support)
// pair. Under the blocking schedule the modeled cost is charged to the
// worker's clock at each exchange; under the overlapped schedule the cost is
// recorded as a step comm event and the trainer charges the overlapped
// timeline once per step. Either way the cost is priced via the topology's
// intra/inter links and accumulated into the shared Stats.
type Exchanger struct {
	w       *cluster.Worker
	group   []int // replica-group global ranks, indexed by shard
	shard   int
	plan    *ExchangePlan
	topo    cluster.Topology
	stats   *Stats
	overlap bool

	// In-flight split-phase state (one exchange at a time per Exchanger).
	handle    *cluster.NeighborHandle
	inflightF int
	offset    time.Duration
	sendBytes int64
}

// NewExchanger binds an exchange plan to a worker within its replica group.
// overlap selects the split-phase interior-first schedule.
func NewExchanger(w *cluster.Worker, group []int, shardIdx int, plan *ExchangePlan, topo cluster.Topology, stats *Stats, overlap bool) *Exchanger {
	return &Exchanger{w: w, group: group, shard: shardIdx, plan: plan, topo: topo, stats: stats, overlap: overlap}
}

// NumHalo implements autograd.HaloExchange.
func (e *Exchanger) NumHalo() int { return e.plan.NumHalo }

// Overlap implements autograd.AsyncHaloExchange.
func (e *Exchanger) Overlap() bool { return e.overlap }

// gatherRoutes assembles the forward exchange (ship owned rows peers need,
// expect this shard's halo rows).
func (e *Exchanger) gatherRoutes(local *tensor.Tensor) (sends []cluster.NeighborSend, recvFrom, recvLens []int, f int) {
	f = local.Dim(1)
	ld := local.Contiguous().Data()
	sends, recvFrom, recvLens = e.routes(f, e.plan.SendTo, e.plan.RecvPos, func(rows []int) []float64 {
		payload := make([]float64, len(rows)*f)
		for i, r := range rows {
			copy(payload[i*f:(i+1)*f], ld[r*f:(r+1)*f])
		}
		return payload
	})
	return sends, recvFrom, recvLens, f
}

// assembleHalo scatters the received payloads into the halo block.
func (e *Exchanger) assembleHalo(recvs map[int][]float64, f int) *tensor.Tensor {
	halo := tensor.New(e.plan.NumHalo, f)
	hd := halo.Data()
	for q := range e.group {
		payload := recvs[e.group[q]]
		for i, pos := range e.plan.RecvPos[q] {
			copy(hd[pos*f:(pos+1)*f], payload[i*f:(i+1)*f])
		}
	}
	return halo
}

// Gather implements autograd.HaloExchange: ship the owned rows peers need,
// collect this shard's halo rows [NumHalo, F].
func (e *Exchanger) Gather(local *tensor.Tensor) *tensor.Tensor {
	sends, recvFrom, recvLens, f := e.gatherRoutes(local)
	t0 := time.Now()
	recvs, cost := e.w.AsyncNeighborAllToAllV(sends, recvFrom, recvLens, e.topo)
	e.stats.Wall += time.Since(t0)
	halo := e.assembleHalo(recvs, f)
	e.charge(sends, cost)
	return halo
}

// GatherStart implements autograd.AsyncHaloExchange: issue the forward
// exchange's sends without blocking.
func (e *Exchanger) GatherStart(local *tensor.Tensor) {
	if e.handle != nil {
		panic("shard: halo exchange already in flight (Start without matching Finish)")
	}
	sends, recvFrom, recvLens, f := e.gatherRoutes(local)
	e.inflightF = f
	e.sendBytes = payloadBytes(sends)
	e.offset = e.stats.launchOffset()
	e.handle = e.w.NeighborAllToAllVStart(sends, recvFrom, recvLens, e.topo)
}

// GatherFinish implements autograd.AsyncHaloExchange: collect the halo rows
// launched by GatherStart, recording the exchange on the step timeline.
func (e *Exchanger) GatherFinish() *tensor.Tensor {
	t0 := time.Now()
	recvs, cost := e.handle.Finish()
	blocked := time.Since(t0)
	e.stats.Wall += blocked
	e.stats.stepBlocked += blocked
	halo := e.assembleHalo(recvs, e.inflightF)
	e.stats.record(e.sendBytes, cost, e.offset, "halo.gather")
	e.handle = nil
	return halo
}

// scatterRoutes assembles the reverse exchange (ship halo gradient rows back
// to their owners, expect peers' contributions to this shard's own rows).
func (e *Exchanger) scatterRoutes(haloGrad *tensor.Tensor) (sends []cluster.NeighborSend, recvFrom, recvLens []int, f int) {
	f = haloGrad.Dim(1)
	hd := haloGrad.Contiguous().Data()
	// Reverse routing: what we received in Gather we now send, and vice
	// versa.
	sends, recvFrom, recvLens = e.routes(f, e.plan.RecvPos, e.plan.SendTo, func(pos []int) []float64 {
		payload := make([]float64, len(pos)*f)
		for i, p := range pos {
			copy(payload[i*f:(i+1)*f], hd[p*f:(p+1)*f])
		}
		return payload
	})
	return sends, recvFrom, recvLens, f
}

// sumOwn accumulates the received peer contributions into the own-row block.
func (e *Exchanger) sumOwn(recvs map[int][]float64, f int) *tensor.Tensor {
	out := tensor.New(e.plan.NumOwn, f)
	od := out.Data()
	for q := range e.group {
		payload := recvs[e.group[q]]
		for i, r := range e.plan.SendTo[q] {
			dst := od[r*f : (r+1)*f]
			src := payload[i*f : (i+1)*f]
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
	return out
}

// ScatterAdd implements autograd.HaloExchange: ship halo gradient rows back
// to their owners, collect (and sum) the peers' contributions to this
// shard's own rows.
func (e *Exchanger) ScatterAdd(haloGrad *tensor.Tensor) *tensor.Tensor {
	sends, recvFrom, recvLens, f := e.scatterRoutes(haloGrad)
	t0 := time.Now()
	recvs, cost := e.w.AsyncNeighborAllToAllV(sends, recvFrom, recvLens, e.topo)
	e.stats.Wall += time.Since(t0)
	out := e.sumOwn(recvs, f)
	e.charge(sends, cost)
	return out
}

// ScatterAddStart implements autograd.AsyncHaloExchange: issue the reverse
// exchange's sends without blocking.
func (e *Exchanger) ScatterAddStart(haloGrad *tensor.Tensor) {
	if e.handle != nil {
		panic("shard: halo exchange already in flight (Start without matching Finish)")
	}
	sends, recvFrom, recvLens, f := e.scatterRoutes(haloGrad)
	e.inflightF = f
	e.sendBytes = payloadBytes(sends)
	e.offset = e.stats.launchOffset()
	e.handle = e.w.NeighborAllToAllVStart(sends, recvFrom, recvLens, e.topo)
}

// ScatterAddFinish implements autograd.AsyncHaloExchange: collect and sum
// the peer contributions launched by ScatterAddStart.
func (e *Exchanger) ScatterAddFinish() *tensor.Tensor {
	t0 := time.Now()
	recvs, cost := e.handle.Finish()
	blocked := time.Since(t0)
	e.stats.Wall += blocked
	e.stats.stepBlocked += blocked
	out := e.sumOwn(recvs, e.inflightF)
	e.stats.record(e.sendBytes, cost, e.offset, "halo.scatter")
	e.handle = nil
	return out
}

// routes assembles the neighbour-exchange call: payloads from outIdx rows
// (via pack) and the expected receive lengths from inIdx.
func (e *Exchanger) routes(f int, outIdx, inIdx [][]int, pack func([]int) []float64) (sends []cluster.NeighborSend, recvFrom, recvLens []int) {
	for q := range e.group {
		if q == e.shard {
			continue
		}
		if rows := outIdx[q]; len(rows) > 0 {
			sends = append(sends, cluster.NeighborSend{To: e.group[q], Payload: pack(rows)})
		}
		if pos := inIdx[q]; len(pos) > 0 {
			recvFrom = append(recvFrom, e.group[q])
			recvLens = append(recvLens, len(pos)*f)
		}
	}
	return sends, recvFrom, recvLens
}

func payloadBytes(sends []cluster.NeighborSend) int64 {
	var b int64
	for _, s := range sends {
		b += int64(len(s.Payload)) * 8
	}
	return b
}

// charge records a blocking exchange against the stats and the virtual
// clock: the full cost is exposed inline, so the trace gets the halo span
// and its exposed twin at the charge point.
func (e *Exchanger) charge(sends []cluster.NeighborSend, cost time.Duration) {
	bytes := payloadBytes(sends)
	e.stats.Bytes += bytes
	e.stats.Time += cost
	e.stats.ChannelExposed[e.stats.Channel] += cost
	if tw := e.stats.Trace; tw != nil {
		at := e.w.VirtualTime()
		tw.Span(trace.KindHalo, "halo.blocking", ddp.CommStream(e.stats.Channel), at, cost, bytes)
		tw.Span(trace.KindExposed, "halo.blocking", trace.StreamExposed, at, cost, 0)
	}
	e.w.AdvanceTime(cost)
}

// propagator adapts a sharded support block + exchanger to nn.Propagator.
// It is a pointer type so an elastic repartition can rebind the block and
// exchanger in place while the model keeps holding the same Propagator
// values.
type propagator struct {
	block *sparse.ShardCSR
	ex    *Exchanger
}

// Nodes implements nn.Propagator.
func (p *propagator) Nodes() int { return p.block.NumOwn() }

// Propagate implements nn.Propagator.
func (p *propagator) Propagate(x *autograd.Variable) *autograd.Variable {
	return autograd.ShardSpMMBlock(p.block, p.ex, x)
}

// Propagators builds the worker-bound nn.Propagators for one shard: one per
// support, all sharing the worker's halo Stats. overlap selects the
// interior-first split-phase halo schedule.
func Propagators(w *cluster.Worker, group []int, sp *ShardPlan, topo cluster.Topology, stats *Stats, overlap bool) []nn.Propagator {
	props := make([]nn.Propagator, len(sp.Supports))
	for si, block := range sp.Supports {
		props[si] = &propagator{
			block: block,
			ex:    NewExchanger(w, group, sp.Shard, sp.Exchanges[si], topo, stats, overlap),
		}
	}
	return props
}

// Rebind points propagators previously built by Propagators at a new
// ShardPlan after an elastic repartition: each gets the new plan's support
// block and a fresh Exchanger over the new halo routing, while the model's
// references to the Propagator values stay valid. The support count must
// match the original plan's.
func Rebind(props []nn.Propagator, w *cluster.Worker, group []int, sp *ShardPlan, topo cluster.Topology, stats *Stats, overlap bool) error {
	if len(props) != len(sp.Supports) {
		return fmt.Errorf("shard: rebind over %d propagators, plan has %d supports", len(props), len(sp.Supports))
	}
	for si, block := range sp.Supports {
		p, ok := props[si].(*propagator)
		if !ok {
			return fmt.Errorf("shard: propagator %d is %T, not rebindable", si, props[si])
		}
		p.block = block
		p.ex = NewExchanger(w, group, sp.Shard, sp.Exchanges[si], topo, stats, overlap)
	}
	return nil
}
