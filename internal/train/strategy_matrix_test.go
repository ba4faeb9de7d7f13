package train

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fsdp"
	"repro/internal/mae"
	"repro/internal/opt"
)

// matrixPlans is the executed Section III-C strategy matrix: the
// replicated baseline, ZeRO-1, ZeRO-3-style full sharding, and the
// two-level hybrid scheme at two group sizes.
func matrixPlans() []fsdp.Plan {
	return []fsdp.Plan{
		fsdp.DefaultDDP(),
		fsdp.BestPractice(fsdp.ShardGradOp, 0),
		fsdp.BestPractice(fsdp.FullShard, 0),
		fsdp.BestPractice(fsdp.HybridShard, 2),
		fsdp.BestPractice(fsdp.HybridShard, 4),
	}
}

// TestStrategyMatrix is the acceptance bar of the full strategy matrix:
// every strategy × world-size combination must (a) reproduce the
// single-rank reference loss trajectory within 1e-4 at every step,
// (b) leave every rank's replica bit-identical — which for the hybrid
// strategies includes replicas in *different* shard groups, so the
// replica-group all-reduce provably completes the global gradient —
// and (c) put exactly the per-step wire bytes on its rings that
// fsdp.TrafficPerStep charges the simulated run.
func TestStrategyMatrix(t *testing.T) {
	base := tinyDistConfig(1, fsdp.DefaultDDP())
	base.Epochs = 2
	ref, _ := referencePretrain(base.PretrainConfig, tinyDataset(32))
	for _, world := range []int{2, 4, 8} {
		for _, plan := range matrixPlans() {
			if plan.Strategy == fsdp.HybridShard && world%plan.GroupSize != 0 {
				continue // HYBRID_4GPUs cannot tile a 2-rank world
			}
			t.Run(fmt.Sprintf("%s/world=%d", plan.Name(), world), func(t *testing.T) {
				cfg := tinyDistConfig(world, plan)
				cfg.Epochs = 2
				res, err := PretrainDistributed(cfg, tinyDataset(32))
				if err != nil {
					t.Fatal(err)
				}
				if res.Steps != ref.Steps {
					t.Fatalf("steps: distributed %d, single-rank %d", res.Steps, ref.Steps)
				}
				// (a) per-step loss agreement with the single-rank run.
				for i := range ref.LossCurve.Y {
					if !relClose(res.LossCurve.Y[i], ref.LossCurve.Y[i], 1e-4) {
						t.Fatalf("loss diverges at step %d: distributed %v, single-rank %v",
							i, res.LossCurve.Y[i], ref.LossCurve.Y[i])
					}
				}
				// (b) bit-identical replicas on every rank.
				dim := opt.FlatDim(res.Model.Params())
				refW := make([]float32, dim)
				opt.PackValues(refW, res.Model.Params())
				buf := make([]float32, dim)
				for rank := 1; rank < len(res.replicas); rank++ {
					opt.PackValues(buf, res.replicas[rank].Params())
					for j := range buf {
						if buf[j] != refW[j] {
							t.Fatalf("rank %d diverged from rank 0 at flat element %d", rank, j)
						}
					}
				}
				// (c) measured wire bytes equal the simulator's per-step
				// accounting exactly.
				steps := float64(res.Steps)
				checks := []struct {
					name           string
					measured, want float64
				}{
					{"all-reduce", res.Comm.AllReduce.MeasuredWireBytes, res.Traffic.AllReduceBytes * steps},
					{"reduce-scatter", res.Comm.ReduceScatter.MeasuredWireBytes, res.Traffic.ReduceScatterBytes * steps},
					{"all-gather", res.Comm.AllGather.MeasuredWireBytes, res.Traffic.AllGatherBytes * steps},
				}
				for _, c := range checks {
					if c.measured != c.want {
						t.Errorf("%s: measured %v bytes over %v steps, simulator accounts %v",
							c.name, c.measured, steps, c.want)
					}
					// The α–β model prices the same volume it measures.
				}
				if res.Comm.AllGather.ModelWireBytes != res.Comm.AllGather.MeasuredWireBytes {
					t.Errorf("modeled AG bytes %v != measured %v",
						res.Comm.AllGather.ModelWireBytes, res.Comm.AllGather.MeasuredWireBytes)
				}
				if res.Comm.ReduceScatter.ModelWireBytes != res.Comm.ReduceScatter.MeasuredWireBytes {
					t.Errorf("modeled RS bytes %v != measured %v",
						res.Comm.ReduceScatter.ModelWireBytes, res.Comm.ReduceScatter.MeasuredWireBytes)
				}
			})
		}
	}
}

// TestStrategyMatrixOverlapAccum extends the matrix along the two new
// execution axes: for every {ddp, zero1, full, hybrid:2} × {fp32,
// bf16} cell, overlap on/off and AccumSteps ∈ {1, 4} must (a) be
// bitwise identical between overlap on and off (params and per-step
// losses), (b) reproduce the single-rank run with the same *effective*
// batch — AccumSteps=4 at global batch 8 tracks a single-rank batch-32
// run — within tolerance, (c) keep replicas bit-identical, and (d)
// still put exactly fsdp.TrafficPerStep wire bytes on the rings per
// optimizer step (accumulation fires collectives once per window, so
// the per-step volume is unchanged).
func TestStrategyMatrixOverlapAccum(t *testing.T) {
	const world = 4
	plans := []fsdp.Plan{
		fsdp.DefaultDDP(),
		fsdp.BestPractice(fsdp.ShardGradOp, 0),
		fsdp.BestPractice(fsdp.FullShard, 0),
		fsdp.BestPractice(fsdp.HybridShard, 2),
	}
	// Single-rank references at the effective batch sizes: 8·1 and 8·4.
	refs := map[int]*PretrainResult{}
	for _, accum := range []int{1, 4} {
		base := tinyDistConfig(1, fsdp.DefaultDDP())
		base.Epochs = 2
		base.MaxStepsPerEpoch = 2
		base.BatchSize = 8 * accum
		refs[accum], _ = referencePretrain(base.PretrainConfig, tinyDataset(64))
	}

	run := func(plan fsdp.Plan, prec Precision, accum int, overlap bool) *DistResult {
		cfg := tinyDistConfig(world, plan)
		cfg.Epochs = 2
		cfg.MaxStepsPerEpoch = 2
		cfg.Precision = prec
		cfg.AccumSteps = accum
		cfg.Overlap = overlap
		res, err := PretrainDistributed(cfg, tinyDataset(64))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat := func(m []*mae.Model, i int) []float32 {
		buf := make([]float32, opt.FlatDim(m[i].Params()))
		opt.PackValues(buf, m[i].Params())
		return buf
	}

	for _, plan := range plans {
		for _, prec := range []Precision{FP32, BF16} {
			for _, accum := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/accum=%d", plan.Name(), prec, accum), func(t *testing.T) {
					off := run(plan, prec, accum, false)
					on := run(plan, prec, accum, true)
					ref := refs[accum]
					if off.Steps != ref.Steps || on.Steps != off.Steps {
						t.Fatalf("steps: overlap-off %d, overlap-on %d, single-rank %d",
							off.Steps, on.Steps, ref.Steps)
					}
					// (a) overlap on ≡ overlap off, bit for bit.
					for i := range off.LossCurve.Y {
						if math.Float64bits(on.LossCurve.Y[i]) != math.Float64bits(off.LossCurve.Y[i]) {
							t.Fatalf("overlap changes the loss at step %d: %v vs %v",
								i, on.LossCurve.Y[i], off.LossCurve.Y[i])
						}
					}
					wOff, wOn := flat(off.replicas, 0), flat(on.replicas, 0)
					for j := range wOff {
						if math.Float32bits(wOn[j]) != math.Float32bits(wOff[j]) {
							t.Fatalf("overlap changes parameter %d: %v vs %v", j, wOn[j], wOff[j])
						}
					}
					// (b) the distributed window reproduces the
					// single-rank run at the same effective batch —
					// same sample order, same masks, same LR schedule.
					tol := 1e-3
					if prec == BF16 {
						tol = 5e-3 // bf16 working weights vs the fp32 reference
					}
					for i := range ref.LossCurve.Y {
						if !relClose(off.LossCurve.Y[i], ref.LossCurve.Y[i], tol) {
							t.Fatalf("accum=%d loss diverges from effective-batch single-rank at step %d: %v vs %v",
								accum, i, off.LossCurve.Y[i], ref.LossCurve.Y[i])
						}
					}
					// (c) replicas bit-identical across ranks.
					for rank := 1; rank < world; rank++ {
						wr := flat(on.replicas, rank)
						for j := range wr {
							if math.Float32bits(wr[j]) != math.Float32bits(wOn[j]) {
								t.Fatalf("rank %d diverged at flat element %d", rank, j)
							}
						}
					}
					// (d) per-optimizer-step traffic unchanged by
					// accumulation and overlap.
					for _, res := range []*DistResult{off, on} {
						steps := float64(res.Steps)
						if res.Comm.AllReduce.MeasuredWireBytes != res.Traffic.AllReduceBytes*steps ||
							res.Comm.ReduceScatter.MeasuredWireBytes != res.Traffic.ReduceScatterBytes*steps ||
							res.Comm.AllGather.MeasuredWireBytes != res.Traffic.AllGatherBytes*steps {
							t.Errorf("measured bytes drift from TrafficPerStep × %v steps", steps)
						}
					}
				})
			}
		}
	}
}

// TestFullShardMatchesZeRO1Bitwise: FULL_SHARD differs from
// SHARD_GRAD_OP only by dropping non-owned parameter shards after
// forward and re-gathering them for backward. The re-gather must
// restore the exact bytes forward ran with, so the two trajectories are
// not merely close — they are identical. A single flipped bit anywhere
// in the backward all-gather fails this test.
func TestFullShardMatchesZeRO1Bitwise(t *testing.T) {
	zero1, err := PretrainDistributed(tinyDistConfig(4, fsdp.BestPractice(fsdp.ShardGradOp, 0)), tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	full, err := PretrainDistributed(tinyDistConfig(4, fsdp.BestPractice(fsdp.FullShard, 0)), tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range zero1.LossCurve.Y {
		if full.LossCurve.Y[i] != zero1.LossCurve.Y[i] {
			t.Fatalf("FULL_SHARD loss differs from SHARD_GRAD_OP at step %d: %v vs %v",
				i, full.LossCurve.Y[i], zero1.LossCurve.Y[i])
		}
	}
	dim := opt.FlatDim(zero1.Model.Params())
	a := make([]float32, dim)
	b := make([]float32, dim)
	opt.PackValues(a, zero1.Model.Params())
	opt.PackValues(b, full.Model.Params())
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("final parameters differ at flat element %d", j)
		}
	}
	// And FULL_SHARD pays exactly one extra parameter all-gather per
	// step for the privilege.
	if full.Traffic.AllGatherBytes != 2*zero1.Traffic.AllGatherBytes {
		t.Fatalf("FULL_SHARD AG traffic %v, want twice ZeRO-1's %v",
			full.Traffic.AllGatherBytes, zero1.Traffic.AllGatherBytes)
	}
}

// TestHybridCollectiveMix pins the hybrid schedule's shape itself: a
// HYBRID_2GPUs run on 4 ranks must issue, per step, one shard-group
// reduce-scatter, two shard-group all-gathers, and one replica-group
// all-reduce — no more, no fewer — alongside the single init broadcast.
func TestHybridCollectiveMix(t *testing.T) {
	cfg := tinyDistConfig(4, fsdp.BestPractice(fsdp.HybridShard, 2))
	cfg.Epochs = 2
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	steps := res.Steps
	if steps == 0 {
		t.Fatal("no steps")
	}
	if got := res.Comm.ReduceScatter.Calls; got != steps {
		t.Errorf("reduce-scatter calls %d, want %d", got, steps)
	}
	if got := res.Comm.AllGather.Calls; got != 2*steps {
		t.Errorf("all-gather calls %d, want %d", got, 2*steps)
	}
	if got := res.Comm.AllReduce.Calls; got != steps {
		t.Errorf("replica all-reduce calls %d, want %d", got, steps)
	}
	if got := res.Comm.Broadcast.Calls; got != 1 {
		t.Errorf("broadcast calls %d, want 1", got)
	}
}
