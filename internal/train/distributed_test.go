package train

import (
	"math"
	"testing"

	"repro/internal/fsdp"
	"repro/internal/opt"
)

func tinyDistConfig(ranks int, plan fsdp.Plan) DistConfig {
	return DistConfig{
		PretrainConfig: PretrainConfig{
			MAE:          tinyMAE(),
			BatchSize:    8, // global; split across ranks
			Epochs:       3,
			BaseLR:       0.02,
			WeightDecay:  0.05,
			WarmupEpochs: 1,
			ClipNorm:     5,
			Workers:      2,
			Seed:         3,
		},
		Ranks: ranks,
		Plan:  plan,
	}
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestDistributedMatchesSingleRank is the acceptance bar of the
// distributed layer: a 4-rank DDP run must reproduce the single-rank
// loss trajectory of referencePretrain — same data order, same masks,
// gradients averaged to the same global mean — with the final loss
// within 1e-4.
func TestDistributedMatchesSingleRank(t *testing.T) {
	dcfg := tinyDistConfig(4, fsdp.DefaultDDP())
	ref, _ := referencePretrain(dcfg.PretrainConfig, tinyDataset(64))
	got, err := PretrainDistributed(dcfg, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != ref.Steps {
		t.Fatalf("steps: distributed %d, single-rank %d", got.Steps, ref.Steps)
	}
	if len(got.LossCurve.Y) != len(ref.LossCurve.Y) {
		t.Fatalf("curve lengths differ: %d vs %d", len(got.LossCurve.Y), len(ref.LossCurve.Y))
	}
	for i := range ref.LossCurve.Y {
		if !relClose(got.LossCurve.Y[i], ref.LossCurve.Y[i], 1e-4) {
			t.Fatalf("loss diverges at step %d: distributed %v, single-rank %v",
				i, got.LossCurve.Y[i], ref.LossCurve.Y[i])
		}
	}
	if !relClose(got.LossCurve.Last(), ref.LossCurve.Last(), 1e-4) {
		t.Fatalf("final loss: distributed %v, single-rank %v", got.LossCurve.Last(), ref.LossCurve.Last())
	}
}

// TestZeRO1MatchesDDP: the sharded-optimizer path must train the same
// trajectory as the replicated path (the reduced gradient chunks are
// identical; only clip-norm accumulation order differs).
func TestZeRO1MatchesDDP(t *testing.T) {
	ddp, err := PretrainDistributed(tinyDistConfig(4, fsdp.DefaultDDP()), tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	zero1, err := PretrainDistributed(tinyDistConfig(4, fsdp.BestPractice(fsdp.ShardGradOp, 0)), tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ddp.LossCurve.Y {
		if !relClose(zero1.LossCurve.Y[i], ddp.LossCurve.Y[i], 1e-4) {
			t.Fatalf("ZeRO-1 diverges from DDP at step %d: %v vs %v",
				i, zero1.LossCurve.Y[i], ddp.LossCurve.Y[i])
		}
	}
}

// TestReplicasStayIdentical: after training, every rank must hold
// bit-identical parameters — the invariant the collectives guarantee.
func TestReplicasStayIdentical(t *testing.T) {
	for _, plan := range []fsdp.Plan{fsdp.DefaultDDP(), fsdp.BestPractice(fsdp.ShardGradOp, 0)} {
		res, err := PretrainDistributed(tinyDistConfig(4, plan), tinyDataset(64))
		if err != nil {
			t.Fatal(err)
		}
		dim := opt.FlatDim(res.Model.Params())
		ref := make([]float32, dim)
		opt.PackValues(ref, res.Model.Params())
		for rank := 1; rank < len(res.replicas); rank++ {
			buf := make([]float32, dim)
			opt.PackValues(buf, res.replicas[rank].Params())
			for j := range buf {
				if buf[j] != ref[j] {
					t.Fatalf("%s: rank %d diverged from rank 0 at flat element %d", plan.Name(), rank, j)
				}
			}
		}
	}
}

// TestDistTrafficMatchesSimulator pins the executed per-step collective
// bytes to fsdp.TrafficPerStep — the acceptance criterion that the real
// execution and the Section IV simulator account the same traffic.
func TestDistTrafficMatchesSimulator(t *testing.T) {
	for _, plan := range []fsdp.Plan{fsdp.DefaultDDP(), fsdp.BestPractice(fsdp.ShardGradOp, 0)} {
		cfg := tinyDistConfig(2, plan)
		cfg.Epochs = 2
		res, err := PretrainDistributed(cfg, tinyDataset(32))
		if err != nil {
			t.Fatal(err)
		}
		steps := float64(res.Steps)
		if steps == 0 {
			t.Fatal("no steps")
		}
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
				t.Errorf("%s %s: measured %v bytes over %v steps, simulator accounts %v",
					plan.Name(), c.name, c.measured, steps, c.want)
			}
		}
		// The α–β model prices the identical byte volume.
		if res.Comm.AllReduce.ModelWireBytes != res.Comm.AllReduce.MeasuredWireBytes {
			t.Errorf("%s: modeled AR bytes %v != measured %v",
				plan.Name(), res.Comm.AllReduce.ModelWireBytes, res.Comm.AllReduce.MeasuredWireBytes)
		}
		// Init broadcast: one call, full parameter payload.
		if res.Comm.Broadcast.Calls != 1 {
			t.Errorf("%s: broadcast calls %d", plan.Name(), res.Comm.Broadcast.Calls)
		}
		wantB := float64(4 * opt.FlatDim(res.Model.Params()))
		if res.Comm.Broadcast.MeasuredWireBytes != wantB {
			t.Errorf("%s: broadcast bytes %v want %v", plan.Name(), res.Comm.Broadcast.MeasuredWireBytes, wantB)
		}
	}
}

// TestSingleRankDistributedMatchesPretrain: the degenerate world runs
// the very same arithmetic as the plain single-rank loop
// (referencePretrain; collectives are no-ops), so the loss curves and
// the trained parameters must match bit-for-bit — through
// PretrainDistributed and through its Pretrain wrapper alike.
func TestSingleRankDistributedMatchesPretrain(t *testing.T) {
	dcfg := tinyDistConfig(1, fsdp.DefaultDDP())
	ref, refState := referencePretrain(dcfg.PretrainConfig, tinyDataset(32))
	got, err := PretrainDistributed(dcfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Pretrain(dcfg.PretrainConfig, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*PretrainResult{"PretrainDistributed": &got.PretrainResult, "Pretrain": wrapped} {
		if res.Steps != ref.Steps || len(res.LossCurve.Y) != len(ref.LossCurve.Y) {
			t.Fatalf("%s: %d steps, %d losses; reference %d, %d",
				name, res.Steps, len(res.LossCurve.Y), ref.Steps, len(ref.LossCurve.Y))
		}
		for i := range ref.LossCurve.Y {
			if math.Float64bits(res.LossCurve.Y[i]) != math.Float64bits(ref.LossCurve.Y[i]) {
				t.Fatalf("%s differs from the reference loop at step %d: %v vs %v",
					name, i, res.LossCurve.Y[i], ref.LossCurve.Y[i])
			}
		}
		dim := opt.FlatDim(ref.Model.Params())
		want, have := make([]float32, dim), make([]float32, dim)
		opt.PackValues(want, ref.Model.Params())
		opt.PackValues(have, res.Model.Params())
		for j := range want {
			if math.Float32bits(have[j]) != math.Float32bits(want[j]) {
				t.Fatalf("%s: parameter %d is %v, reference loop %v", name, j, have[j], want[j])
			}
		}
	}
	if got.Traffic.Total() != 0 || got.Comm.AllReduce.MeasuredWireBytes != 0 {
		t.Fatalf("1-rank world moved bytes: %+v", got.Traffic)
	}
	// The captured training state: the flat optimizer's master weights,
	// moments and step count are the reference AdamW's, bit for bit.
	if got.State.OptStep != refState.OptStep {
		t.Fatalf("state OptStep %d, reference AdamW %d", got.State.OptStep, refState.OptStep)
	}
	for _, c := range []struct {
		name      string
		have, ref []float32
	}{
		{"Master", got.State.Master, refState.Master},
		{"OptM", got.State.OptM, refState.OptM},
		{"OptV", got.State.OptV, refState.OptV},
	} {
		if len(c.have) != len(c.ref) {
			t.Fatalf("state %s has %d values, reference %d", c.name, len(c.have), len(c.ref))
		}
		for j := range c.ref {
			if math.Float32bits(c.have[j]) != math.Float32bits(c.ref[j]) {
				t.Fatalf("state %s[%d] is %v, reference AdamW %v", c.name, j, c.have[j], c.ref[j])
			}
		}
	}
}

// TestDistributedRejectsInvalidPlans: configurations the executor
// cannot honor fail fast before any rank spawns, and WorkloadFor —
// which shares the executor's configuration check — rejects every one
// of them too.
func TestDistributedRejectsInvalidPlans(t *testing.T) {
	cases := []struct {
		name string
		cfg  DistConfig
	}{
		{"HYBRID_3GPUs on 4 ranks", tinyDistConfig(4, fsdp.BestPractice(fsdp.HybridShard, 3))},
		{"HYBRID with zero group", tinyDistConfig(4, fsdp.Plan{Strategy: fsdp.HybridShard})},
		{"unknown strategy", tinyDistConfig(4, fsdp.Plan{Strategy: fsdp.Strategy(99)})},
		{"batch 8 on 3 ranks", tinyDistConfig(3, fsdp.DefaultDDP())},
		{"zero ranks", tinyDistConfig(0, fsdp.DefaultDDP())},
		{"negative AccumSteps", func() DistConfig {
			c := tinyDistConfig(2, fsdp.DefaultDDP())
			c.AccumSteps = -1
			return c
		}()},
		{"unknown precision", func() DistConfig {
			c := tinyDistConfig(2, fsdp.DefaultDDP())
			c.Precision = Precision(7)
			return c
		}()},
		{"zero epochs", func() DistConfig {
			c := tinyDistConfig(2, fsdp.DefaultDDP())
			c.Epochs = 0
			return c
		}()},
	}
	for _, c := range cases {
		if _, err := PretrainDistributed(c.cfg, tinyDataset(64)); err == nil {
			t.Errorf("%s: PretrainDistributed accepted it", c.name)
		}
		if _, err := WorkloadFor(c.cfg); err == nil {
			t.Errorf("%s: WorkloadFor accepted it", c.name)
		}
	}
	// The valid base configuration passes both.
	if _, err := WorkloadFor(tinyDistConfig(4, fsdp.BestPractice(fsdp.HybridShard, 2))); err != nil {
		t.Errorf("WorkloadFor rejected a valid HYBRID_2GPUs plan: %v", err)
	}
}
