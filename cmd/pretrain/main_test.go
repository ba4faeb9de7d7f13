package main

import (
	"strings"
	"testing"

	"repro/geofm"
)

// TestParsePlan pins the full accepted -strategy vocabulary and the
// fail-fast behaviour: every rejection names the complete set, so a
// typo can never silently train with a default plan.
func TestParsePlan(t *testing.T) {
	cases := []struct {
		in       string
		strategy geofm.Plan
	}{
		{"ddp", geofm.DefaultDDP()},
		{"zero1", geofm.BestPractice(geofm.ShardGradOp, 0)},
		{"full", geofm.BestPractice(geofm.FullShard, 0)},
		{"hybrid:2", geofm.BestPractice(geofm.HybridShard, 2)},
		{"hybrid:8", geofm.BestPractice(geofm.HybridShard, 8)},
	}
	for _, c := range cases {
		got, err := parsePlan(c.in)
		if err != nil {
			t.Errorf("parsePlan(%q): %v", c.in, err)
			continue
		}
		if got != c.strategy {
			t.Errorf("parsePlan(%q) = %+v, want %+v", c.in, got, c.strategy)
		}
	}
	for _, bad := range []string{"", "DDP", "zero2", "fsdp", "hybrid", "hybrid:", "hybrid:0", "hybrid:-2", "hybrid:x"} {
		_, err := parsePlan(bad)
		if err == nil {
			t.Errorf("parsePlan(%q): expected an error", bad)
			continue
		}
		if !strings.Contains(err.Error(), acceptedStrategies) {
			t.Errorf("parsePlan(%q) error %q does not name the accepted set %q", bad, err, acceptedStrategies)
		}
	}
}

// TestCommTableGolden runs a deterministic 4-rank HYBRID_2GPUs training
// and pins writeComm's report byte for byte: the measured counters, the
// α–β model's pricing on a fixed link, and the per-step comparison
// against the fsdp simulator. Any drift between the executed
// collectives and the simulator's accounting — or any silent format
// change in the report — fails here.
func TestCommTableGolden(t *testing.T) {
	enc := geofm.ViTConfig{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	cfg := geofm.DefaultPretrain(geofm.MAEConfig{Encoder: enc,
		DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75})
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8
	cfg.Workers = 2
	cfg.Seed = 1
	plan, err := parsePlan("hybrid:2")
	if err != nil {
		t.Fatal(err)
	}
	dcfg := geofm.DistPretrainConfig{
		PretrainConfig: cfg,
		Ranks:          4,
		Plan:           plan,
		// A fixed link so the modeled times are independent of the
		// hw.Frontier defaults.
		Link: geofm.CommParams{Bandwidth: 50e9, HopLat: 1e-6, Launch: 2e-5},
	}
	suite := geofm.NewSuite(1000, 12, 3, 1)
	res, err := geofm.PretrainDistributed(dcfg, suite.Pretrain)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	writeComm(&b, res)
	const golden = `collective traffic (4 ranks, 2 steps):
  op                 calls  sent MiB/rank      model MiB   model time
  broadcast              1           0.03           0.03        0.0ms
  all-reduce             2           0.03           0.03        0.0ms
  reduce-scatter         2           0.03           0.03        0.0ms
  all-gather             4           0.05           0.05        0.1ms
  per-step bytes vs fsdp simulator: AR 13456/13456  RS 13456/13456  AG 26912/26912
`
	if got := b.String(); got != golden {
		t.Errorf("comm table drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestParsePrecision pins the -precision vocabulary and its fail-fast
// behaviour.
func TestParsePrecision(t *testing.T) {
	if p, err := parsePrecision("fp32"); err != nil || p != geofm.FP32 {
		t.Errorf("parsePrecision(fp32) = %v, %v", p, err)
	}
	if p, err := parsePrecision("bf16"); err != nil || p != geofm.BF16 {
		t.Errorf("parsePrecision(bf16) = %v, %v", p, err)
	}
	for _, bad := range []string{"", "FP32", "bf-16", "fp16", "half"} {
		_, err := parsePrecision(bad)
		if err == nil {
			t.Errorf("parsePrecision(%q): expected an error", bad)
			continue
		}
		if !strings.Contains(err.Error(), acceptedPrecisions) {
			t.Errorf("parsePrecision(%q) error %q does not name the accepted set", bad, err)
		}
	}
}

// TestCommTableGoldenBF16 is the bf16 twin of TestCommTableGolden: the
// identical 4-rank HYBRID_2GPUs run under -precision bf16 must report
// exactly half the per-step wire bytes on every gradient/parameter
// collective — measured, modeled and simulated alike.
func TestCommTableGoldenBF16(t *testing.T) {
	enc := geofm.ViTConfig{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	cfg := geofm.DefaultPretrain(geofm.MAEConfig{Encoder: enc,
		DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75})
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8
	cfg.Workers = 2
	cfg.Seed = 1
	plan, err := parsePlan("hybrid:2")
	if err != nil {
		t.Fatal(err)
	}
	prec, err := parsePrecision("bf16")
	if err != nil {
		t.Fatal(err)
	}
	dcfg := geofm.DistPretrainConfig{
		PretrainConfig: cfg,
		Ranks:          4,
		Plan:           plan,
		Precision:      prec,
		Link:           geofm.CommParams{Bandwidth: 50e9, HopLat: 1e-6, Launch: 2e-5},
	}
	suite := geofm.NewSuite(1000, 12, 3, 1)
	res, err := geofm.PretrainDistributed(dcfg, suite.Pretrain)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	writeComm(&b, res)
	const golden = `collective traffic (4 ranks, 2 steps):
  op                 calls  sent MiB/rank      model MiB   model time
  broadcast              1           0.03           0.03        0.0ms
  all-reduce             2           0.01           0.01        0.0ms
  reduce-scatter         2           0.01           0.01        0.0ms
  all-gather             4           0.03           0.03        0.1ms
  per-step bytes vs fsdp simulator: AR 6728/6728  RS 6728/6728  AG 13456/13456
`
	if got := b.String(); got != golden {
		t.Errorf("comm table drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestRunHonorsStrategyAtOneRank: every run goes through the one
// training loop, so -strategy takes effect at -ranks 1 too — a
// single-rank zero1 run executes SHARD_GRAD_OP and reports its
// collective table, rather than silently training DDP.
func TestRunHonorsStrategyAtOneRank(t *testing.T) {
	var out strings.Builder
	args := []string{"-ranks", "1", "-strategy", "zero1", "-epochs", "1", "-steps", "2",
		"-scale", "1000", "-image", "16", "-workers", "1"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"executing 1 ranks, SHARD_GRAD_OP, fp32",
		"[1 ranks, SHARD_GRAD_OP, fp32]",
		"collective traffic (1 ranks, 2 steps):",
		"reduce-scatter",
		"done: 2 steps",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsBadFlags: flag, strategy and precision errors surface
// as run's error before any training starts.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-strategy", "zero2"},
		{"-precision", "fp16"},
		{"-no-such-flag"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) accepted it", args)
		}
		if strings.Contains(out.String(), "pretraining") {
			t.Errorf("run(%q) started training:\n%s", args, out.String())
		}
	}
}
