package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/ddp"
	"pgti/internal/graph"
	"pgti/internal/metrics"
	"pgti/internal/nn"
	"pgti/internal/shard"
	"pgti/internal/sparse"
	"pgti/internal/tensor"
)

// goldenPins are fully-modeled runs (ComputeCost and AssembleCost pinned, so
// curve and clock are pure functions of the configuration) recorded as
// hex-float curve bits plus the modeled clock and traffic figures. They pin
// the data-parallel and hybrid trainers bitwise: any change to a step's
// numerics, clock charge or traffic accounting shows up here.
var goldenPins = map[string]string{
	"core dist-index w2":                                             "0x1.36868bc17b2a8p+04 0x1.012e9069d822ap+04 0x1.6b4701c93864ap+03 0x1.769abf6346937p+03 75743792 153792 0 153792 196128",
	"ddp w2 flat prefetch=false fp16=false":                          "0x1.ab044a1eb4be2p-01 0x1.9d1744078ffc1p-01 0x1.a29b305e9bedcp-01 0x1.9efe20116d6dp-01 26617600 4569600 0 45136 0 14",
	"ddp w2 flat prefetch=false fp16=true":                           "0x1.ab044c30aebb5p-01 0x1.9d170a5db4e08p-01 0x1.a29b1c8dda647p-01 0x1.9efe20b043783p-01 23232400 1184400 0 11284 33852 14",
	"ddp w2 flat prefetch=true fp16=false":                           "0x1.ab044a1eb4be2p-01 0x1.9d1744078ffc1p-01 0x1.a29b305e9bedcp-01 0x1.9efe20116d6dp-01 21517600 4569600 0 45136 0 14",
	"ddp w2 flat prefetch=true fp16=true":                            "0x1.ab044c30aebb5p-01 0x1.9d170a5db4e08p-01 0x1.a29b1c8dda647p-01 0x1.9efe20b043783p-01 18132400 1184400 0 11284 33852 14",
	"ddp w2 hierarchical prefetch=false fp16=false":                  "0x1.ab044a1eb4be2p-01 0x1.9d1744078ffc1p-01 0x1.a29b305e9bedcp-01 0x1.9efe20116d6dp-01 22090168 42168 126070 45136 0 14",
	"ddp w2 hierarchical prefetch=false fp16=true":                   "0x1.ab044c30aebb5p-01 0x1.9d170a5db4e08p-01 0x1.a29b1c8dda647p-01 0x1.9efe20b043783p-01 22090014 42014 126000 11284 33852 14",
	"ddp w2 hierarchical prefetch=true fp16=false":                   "0x1.ab044a1eb4be2p-01 0x1.9d1744078ffc1p-01 0x1.a29b305e9bedcp-01 0x1.9efe20116d6dp-01 16990168 42168 126070 45136 0 14",
	"ddp w2 hierarchical prefetch=true fp16=true":                    "0x1.ab044c30aebb5p-01 0x1.9d170a5db4e08p-01 0x1.a29b1c8dda647p-01 0x1.9efe20b043783p-01 16990014 42014 126000 11284 33852 14",
	"ddp w2 ring prefetch=false fp16=false":                          "0x1.ab044a1eb4be2p-01 0x1.9d1744078ffc1p-01 0x1.a29b305e9bedcp-01 0x1.9efe20116d6dp-01 24926400 2878400 1859200 45136 0 14",
	"ddp w2 ring prefetch=false fp16=true":                           "0x1.ab044c30aebb5p-01 0x1.9d170a5db4e08p-01 0x1.a29b1c8dda647p-01 0x1.9efe20b043783p-01 22809600 761600 590800 11284 33852 14",
	"ddp w2 ring prefetch=true fp16=false":                           "0x1.ab044a1eb4be2p-01 0x1.9d1744078ffc1p-01 0x1.a29b305e9bedcp-01 0x1.9efe20116d6dp-01 19826400 2878400 1859200 45136 0 14",
	"ddp w2 ring prefetch=true fp16=true":                            "0x1.ab044c30aebb5p-01 0x1.9d170a5db4e08p-01 0x1.a29b1c8dda647p-01 0x1.9efe20b043783p-01 17709600 761600 590800 11284 33852 14",
	"ddp w4 flat prefetch=false fp16=false":                          "0x1.aea7ccafc4bcbp-01 0x1.a9d523fe06f79p-01 0x1.a28612390641fp-01 0x1.9cbf3993f45a3p-01 13005600 2973600 0 19344 0 6",
	"ddp w4 flat prefetch=false fp16=true":                           "0x1.aea7d035c0462p-01 0x1.a9d4fb93d700fp-01 0x1.a28609eaecc8dp-01 0x1.9cbf1310ec09p-01 10827600 795600 0 4836 14508 6",
	"ddp w4 flat prefetch=true fp16=false":                           "0x1.aea7ccafc4bcbp-01 0x1.a9d523fe06f79p-01 0x1.a28612390641fp-01 0x1.9cbf3993f45a3p-01 11205600 2973600 0 19344 0 6",
	"ddp w4 flat prefetch=true fp16=true":                            "0x1.aea7d035c0462p-01 0x1.a9d4fb93d700fp-01 0x1.a28609eaecc8dp-01 0x1.9cbf1310ec09p-01 9027600 795600 0 4836 14508 6",
	"ddp w4 hierarchical prefetch=false fp16=false":                  "0x1.aea7ccafc4bcbp-01 0x1.a9d523fe06f79p-01 0x1.a28612390641fp-01 0x1.9cbf3993f45a3p-01 11283672 1251672 850830 19344 0 6",
	"ddp w4 hierarchical prefetch=false fp16=true":                   "0x1.aea7d035c0462p-01 0x1.a9d4fb93d700fp-01 0x1.a28609eaecc8dp-01 0x1.9cbf1310ec09p-01 10376406 344406 307200 4836 14508 6",
	"ddp w4 hierarchical prefetch=true fp16=false":                   "0x1.aea7ccafc4bcbp-01 0x1.a9d523fe06f79p-01 0x1.a28612390641fp-01 0x1.9cbf3993f45a3p-01 9483672 1251672 850830 19344 0 6",
	"ddp w4 hierarchical prefetch=true fp16=true":                    "0x1.aea7d035c0462p-01 0x1.a9d4fb93d700fp-01 0x1.a28609eaecc8dp-01 0x1.9cbf1310ec09p-01 8576406 344406 307200 4836 14508 6",
	"ddp w4 ring prefetch=false fp16=false":                          "0x1.aea7ccafc4bcbp-01 0x1.a9d523fe06f79p-01 0x1.a28612390641fp-01 0x1.9cbf3993f45a3p-01 11918400 1886400 1303200 19344 0 6",
	"ddp w4 ring prefetch=false fp16=true":                           "0x1.aea7d035c0462p-01 0x1.a9d4fb93d700fp-01 0x1.a28609eaecc8dp-01 0x1.9cbf1310ec09p-01 10557600 525600 486000 4836 14508 6",
	"ddp w4 ring prefetch=true fp16=false":                           "0x1.aea7ccafc4bcbp-01 0x1.a9d523fe06f79p-01 0x1.a28612390641fp-01 0x1.9cbf3993f45a3p-01 10118400 1886400 1303200 19344 0 6",
	"ddp w4 ring prefetch=true fp16=true":                            "0x1.aea7d035c0462p-01 0x1.a9d4fb93d700fp-01 0x1.a28609eaecc8dp-01 0x1.9cbf1310ec09p-01 8757600 525600 486000 4836 14508 6",
	"shard 2x1 bucketed-overlap blocking staleness=0 prefetch=false": "0x1.a91237e3e319bp-01 0x1.9c78412ed8142p-01 0x1.a11d83ffdba03p-01 0x1.abf2de6359ef4p-01 28021396 52156 156052 83824 621240 0 356160 673396 0 26",
	"shard 2x1 bucketed-overlap blocking staleness=0 prefetch=true":  "0x1.a91237e3e319bp-01 0x1.9c78412ed8142p-01 0x1.a11d83ffdba03p-01 0x1.abf2de6359ef4p-01 17221396 52156 156052 83824 621240 0 356160 673396 0 26",
	"shard 2x1 bucketed-overlap blocking staleness=1 prefetch=false": "0x1.aa9db84230453p-01 0x1.9dd8a9fb28b95p-01 0x1.a17ffb33ff951p-01 0x1.aaef2588d4982p-01 27969240 0 208208 83824 621240 0 356160 621240 0 26",
	"shard 2x1 bucketed-overlap blocking staleness=1 prefetch=true":  "0x1.aa9db84230453p-01 0x1.9dd8a9fb28b95p-01 0x1.a17ffb33ff951p-01 0x1.aaef2588d4982p-01 17173252 4012 208208 83824 621240 0 356160 625252 0 26",
	"shard 2x1 bucketed-overlap overlap staleness=0 prefetch=false":  "0x1.a91237e3e319bp-01 0x1.9c78412ed8142p-01 0x1.a11d83ffdba03p-01 0x1.abf2de6359ef4p-01 27448252 52156 156052 83824 621240 573144 356160 100252 0 26",
	"shard 2x1 bucketed-overlap overlap staleness=0 prefetch=true":   "0x1.a91237e3e319bp-01 0x1.9c78412ed8142p-01 0x1.a11d83ffdba03p-01 0x1.abf2de6359ef4p-01 16648252 52156 156052 83824 621240 573144 356160 100252 0 26",
	"shard 2x1 bucketed-overlap overlap staleness=1 prefetch=false":  "0x1.aa9db84230453p-01 0x1.9dd8a9fb28b95p-01 0x1.a17ffb33ff951p-01 0x1.aaef2588d4982p-01 27396096 0 208208 83824 621240 573144 356160 48096 0 26",
	"shard 2x1 bucketed-overlap overlap staleness=1 prefetch=true":   "0x1.aa9db84230453p-01 0x1.9dd8a9fb28b95p-01 0x1.a17ffb33ff951p-01 0x1.aaef2588d4982p-01 16600108 4012 208208 83824 621240 573144 356160 52108 0 26",
	"shard 2x1 flatten blocking staleness=0 prefetch=false":          "0x1.a91237e3e319bp-01 0x1.9c78412ed8142p-01 0x1.a11d83ffdba03p-01 0x1.abf2de6359ef4p-01 28021500 52260 0 83824 621240 0 356160 673500 0 26",
	"shard 2x1 flatten blocking staleness=0 prefetch=true":           "0x1.a91237e3e319bp-01 0x1.9c78412ed8142p-01 0x1.a11d83ffdba03p-01 0x1.abf2de6359ef4p-01 17221500 52260 0 83824 621240 0 356160 673500 0 26",
	"shard 2x1 flatten overlap staleness=0 prefetch=false":           "0x1.a91237e3e319bp-01 0x1.9c78412ed8142p-01 0x1.a11d83ffdba03p-01 0x1.abf2de6359ef4p-01 27448356 52260 0 83824 621240 573144 356160 100356 0 26",
	"shard 2x1 flatten overlap staleness=0 prefetch=true":            "0x1.a91237e3e319bp-01 0x1.9c78412ed8142p-01 0x1.a11d83ffdba03p-01 0x1.abf2de6359ef4p-01 16648356 52260 0 83824 621240 573144 356160 100356 0 26",
	"shard 2x2 bucketed-overlap blocking staleness=0 prefetch=false": "0x1.ab044a1eb4be1p-01 0x1.9d1744078ffc4p-01 0x1.a29b305e9beddp-01 0x1.9efe20116d6cfp-01 15959904 1495284 1097628 45136 332620 0 182336 332620 1495284 14",
	"shard 2x2 bucketed-overlap blocking staleness=0 prefetch=true":  "0x1.ab044a1eb4be1p-01 0x1.9d1744078ffc4p-01 0x1.a29b305e9beddp-01 0x1.9efe20116d6cfp-01 10859904 1495284 1097628 45136 332620 0 182336 332620 1495284 14",
	"shard 2x2 bucketed-overlap blocking staleness=1 prefetch=false": "0x1.adcabc4c90c56p-01 0x1.a33157077c16p-01 0x1.a3a592937ae0fp-01 0x1.a060c15dd8994p-01 14464620 0 2592912 45136 332620 0 182336 332620 0 14",
	"shard 2x2 bucketed-overlap blocking staleness=1 prefetch=true":  "0x1.adcabc4c90c56p-01 0x1.a33157077c16p-01 0x1.a3a592937ae0fp-01 0x1.a060c15dd8994p-01 9578232 113612 2592912 45136 332620 0 182336 332620 113612 14",
	"shard 2x2 bucketed-overlap overlap staleness=0 prefetch=false":  "0x1.ab044a1eb4be1p-01 0x1.9d1744078ffc4p-01 0x1.a29b305e9beddp-01 0x1.9efe20116d6cfp-01 15651332 1495284 1097628 45136 332620 308572 182336 24048 1495284 14",
	"shard 2x2 bucketed-overlap overlap staleness=0 prefetch=true":   "0x1.ab044a1eb4be1p-01 0x1.9d1744078ffc4p-01 0x1.a29b305e9beddp-01 0x1.9efe20116d6cfp-01 10551332 1495284 1097628 45136 332620 308572 182336 24048 1495284 14",
	"shard 2x2 bucketed-overlap overlap staleness=1 prefetch=false":  "0x1.adcabc4c90c56p-01 0x1.a33157077c16p-01 0x1.a3a592937ae0fp-01 0x1.a060c15dd8994p-01 14156048 0 2592912 45136 332620 308572 182336 24048 0 14",
	"shard 2x2 bucketed-overlap overlap staleness=1 prefetch=true":   "0x1.adcabc4c90c56p-01 0x1.a33157077c16p-01 0x1.a3a592937ae0fp-01 0x1.a060c15dd8994p-01 9269660 113612 2592912 45136 332620 308572 182336 24048 113612 14",
	"shard 2x2 flatten blocking staleness=0 prefetch=false":          "0x1.ab044a1eb4be1p-01 0x1.9d1744078ffc4p-01 0x1.a29b305e9beddp-01 0x1.9efe20116d6cfp-01 19062360 4597740 0 90272 332620 0 182336 360760 4569600 14",
	"shard 2x2 flatten blocking staleness=0 prefetch=true":           "0x1.ab044a1eb4be1p-01 0x1.9d1744078ffc4p-01 0x1.a29b305e9beddp-01 0x1.9efe20116d6cfp-01 14062360 4597740 0 90272 332620 0 182336 360760 4569600 14",
	"shard 2x2 flatten overlap staleness=0 prefetch=false":           "0x1.ab044a1eb4be1p-01 0x1.9d1744078ffc4p-01 0x1.a29b305e9beddp-01 0x1.9efe20116d6cfp-01 18753788 4597740 0 90272 332620 308572 182336 52188 4569600 14",
	"shard 2x2 flatten overlap staleness=0 prefetch=true":            "0x1.ab044a1eb4be1p-01 0x1.9d1744078ffc4p-01 0x1.a29b305e9beddp-01 0x1.9efe20116d6cfp-01 13753788 4597740 0 90272 332620 308572 182336 52188 4569600 14",
}

// goldenLine renders one run: the curve's hex-float bits, then the named
// figures in order.
func goldenLine(curve metrics.Curve, figs ...any) string {
	var b strings.Builder
	for _, r := range curve {
		b.WriteString(strconv.FormatFloat(r.TrainMAE, 'x', -1, 64) + " " + strconv.FormatFloat(r.ValMAE, 'x', -1, 64) + " ")
	}
	for _, f := range figs {
		if d, ok := f.(time.Duration); ok {
			f = int64(d)
		}
		fmt.Fprintf(&b, "%v ", f)
	}
	return strings.TrimSpace(b.String())
}

// TestGoldenTrainerPins checks every pinned run against its recorded line.
func TestGoldenTrainerPins(t *testing.T) {
	got := map[string]string{}
	g, err := graph.RoadNetwork(7, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := g.TransitionMatrices()
	supports := []*sparse.CSR{fwd, bwd}
	data, err := batching.NewIndexDataset(tensor.Randn(tensor.NewRNG(21), 60, g.N, 1), 3, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	split := batching.MakeSplit(data.NumSnapshots(), 0.7, 0.1)
	model := func(seed uint64, props []nn.Propagator) nn.SeqModel {
		return nn.NewPGTDCRNNOn(tensor.NewRNG(seed), props, 1, 1, 6, 3)
	}
	net := cluster.NetworkModel{Bandwidth: 1e7, Latency: 2 * time.Microsecond, DispatchOverhead: time.Millisecond}
	compute := func(items int) time.Duration { return time.Duration(items) * 400 * time.Microsecond }
	assemble := func(items int) time.Duration { return time.Duration(items) * 150 * time.Microsecond }

	for _, workers := range []int{2, 4} {
		for _, algo := range []ddp.GradAlgo{ddp.GradAlgoRing, ddp.GradAlgoFlat, ddp.GradAlgoHierarchical} {
			for _, prefetch := range []bool{false, true} {
				for _, fp16 := range []bool{false, true} {
					res, err := ddp.Train(data, split, func(seed uint64) nn.SeqModel {
						return model(seed, nn.WrapSupports(supports))
					}, ddp.Config{
						Workers: workers, BatchSize: 3, Epochs: 2, LR: 0.02, Seed: 5, Net: net,
						Algo: algo, Topology: cluster.Topology{GPUsPerNode: 2}, BucketBytes: 512,
						Prefetch: prefetch, FP16: fp16, ComputeCost: compute, AssembleCost: assemble,
					})
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("ddp w%d %v prefetch=%v fp16=%v", workers, algo, prefetch, fp16)
					got[name] = goldenLine(res.Curve, res.VirtualTime, res.CommTime, res.CommHiddenTime, res.GradSyncBytes, res.CommBytesSaved, res.Steps)
				}
			}
		}
	}

	for _, grid := range []struct{ shards, replicas int }{{2, 1}, {2, 2}} {
		for _, halo := range []shard.HaloSyncMode{shard.HaloSyncOverlap, shard.HaloSyncBlocking} {
			for _, staleness := range []int{0, 1} {
				for _, prefetch := range []bool{false, true} {
					for _, sync := range []ddp.SyncMode{ddp.SyncBucketedOverlap, ddp.SyncFlatten} {
						if sync == ddp.SyncFlatten && staleness > 0 {
							continue // the staleness pipeline rides the bucketed sync only
						}
						res, err := shard.Train(data, split, g, supports, model, shard.Config{
							Shards: grid.shards, Replicas: grid.replicas, BatchSize: 3, Epochs: 2, LR: 0.02, Seed: 5,
							Net: net, Topology: cluster.Topology{GPUsPerNode: 2}, BucketBytes: 512,
							HaloSync: halo, Staleness: staleness, Prefetch: prefetch, Sync: sync,
							ComputeCost: compute, AssembleCost: assemble,
						})
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("shard %dx%d %v %v staleness=%d prefetch=%v", grid.shards, grid.replicas, sync, halo, staleness, prefetch)
						got[name] = goldenLine(res.Curve, res.VirtualTime, res.CommTime, res.CommHiddenTime, res.GradSyncBytes,
							res.HaloTime, res.HaloHiddenTime, res.HaloBytes, res.CommExposedIntra, res.CommExposedInter, res.Steps)
					}
				}
			}
		}
	}

	rep, err := Run(faultCfg(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	got["core dist-index w2"] = goldenLine(rep.Curve, rep.VirtualTime, rep.CommTime, rep.CommHiddenTime, rep.CommExposedInter, rep.GradSyncBytes)

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want, ok := goldenPins[name]; !ok || got[name] != want {
			t.Errorf("\n%q: %q,", name, got[name])
		}
	}
	if len(got) != len(goldenPins) {
		t.Errorf("%d runs, %d pins", len(got), len(goldenPins))
	}
}
