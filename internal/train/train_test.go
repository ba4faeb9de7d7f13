package train

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/dataload"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/vit"
)

func tinyMAE() mae.Config {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	return mae.Config{Encoder: enc, DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75}
}

func tinyDataset(count int) *geodata.Dataset {
	gen := geodata.NewSceneGen(4, 12, 3, 11)
	return &geodata.Dataset{Name: "tiny", Gen: gen, TrainCount: count, TestCount: count / 2}
}

// referencePretrain is the plain single-rank training loop — ZeroGrads,
// Step, ClipGradNorm and AdamW.Step under the cosine schedule, over the
// unsharded loader — kept as an oracle that shares none of
// PretrainDistributed's flat-buffer, collective or sharding machinery.
// It fills Model, LossCurve and Steps, and returns the end-of-run
// Master, OptM, OptV and OptStep that AdamW exports.
func referencePretrain(cfg PretrainConfig, ds *geodata.Dataset) (*PretrainResult, *TrainState) {
	model := mae.New(cfg.MAE, rng.New(cfg.Seed))
	params := model.Params()
	optim := opt.NewAdamW(params, cfg.WeightDecay)
	spe := ds.TrainCount / cfg.BatchSize
	if cfg.MaxStepsPerEpoch > 0 {
		spe = min(spe, cfg.MaxStepsPerEpoch)
	}
	sched := opt.CosineSchedule{
		Base:        opt.ScaledLR(cfg.BaseLR, cfg.BatchSize),
		WarmupSteps: cfg.WarmupEpochs * spe,
		TotalSteps:  cfg.Epochs * spe,
	}
	loader := dataload.New(
		dataload.TrainSplit{D: ds, Count: ds.TrainCount, ImgLen: ds.Gen.ImageLen()},
		dataload.Config{BatchSize: cfg.BatchSize, Workers: cfg.Workers, Shuffle: true, DropLast: true,
			Seed: cfg.Seed ^ 0xDA7A})
	res := &PretrainResult{Model: model}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for batch := range loader.EpochN(spe) {
			nn.ZeroGrads(params)
			loss := model.Step(batch.Images, batch.Size)
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(params, cfg.ClipNorm)
			}
			optim.Step(sched.LR(res.Steps))
			loader.Recycle(batch)
			res.LossCurve.Append(float64(res.Steps), loss)
			res.Steps++
		}
	}
	dim := opt.FlatDim(params)
	st := &TrainState{Master: make([]float32, dim), OptM: make([]float32, dim), OptV: make([]float32, dim)}
	opt.PackValues(st.Master, params)
	optim.ExportMoments(st.OptM, st.OptV)
	st.OptStep = optim.StepCount()
	return res, st
}

func TestPretrainLossDecreases(t *testing.T) {
	// BaseLR is raised relative to the paper's 1.5e-4 because the linear
	// batch-scaling rule divides by 256 while the test batch is only 8.
	cfg := PretrainConfig{
		MAE:          tinyMAE(),
		BatchSize:    8,
		Epochs:       8,
		BaseLR:       0.08,
		WeightDecay:  0.05,
		WarmupEpochs: 1,
		ClipNorm:     5,
		Workers:      2,
		Seed:         3,
	}
	res, err := Pretrain(cfg, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 8*(64/8) {
		t.Fatalf("steps=%d", res.Steps)
	}
	first := res.EpochLoss.Y[0]
	last := res.EpochLoss.Last()
	if !(last < first) {
		t.Fatalf("epoch loss did not decrease: %v → %v", first, last)
	}
	if len(res.LossCurve.X) != res.Steps {
		t.Fatalf("loss curve has %d points for %d steps", len(res.LossCurve.X), res.Steps)
	}
	if res.ImagesPerSec <= 0 {
		t.Fatal("ImagesPerSec not measured")
	}
}

func TestPretrainDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		cfg := PretrainConfig{
			MAE: tinyMAE(), BatchSize: 8, Epochs: 2, BaseLR: 1.5e-4,
			WeightDecay: 0.05, WarmupEpochs: 1, ClipNorm: 5,
			Workers: workers, Seed: 5,
		}
		res, err := Pretrain(cfg, tinyDataset(32))
		if err != nil {
			t.Fatal(err)
		}
		return res.LossCurve.Y
	}
	a, b := run(1), run(4)
	if len(a) != len(b) {
		t.Fatalf("curve lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss curves diverge at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPretrainValidation(t *testing.T) {
	bad := PretrainConfig{MAE: tinyMAE(), BatchSize: 0, Epochs: 1}
	if _, err := Pretrain(bad, tinyDataset(32)); err == nil {
		t.Fatal("batch size 0 accepted")
	}
	small := PretrainConfig{MAE: tinyMAE(), BatchSize: 64, Epochs: 1}
	if _, err := Pretrain(small, tinyDataset(8)); err == nil {
		t.Fatal("dataset smaller than batch accepted")
	}
}

func TestPretrainMaxSteps(t *testing.T) {
	cfg := PretrainConfig{
		MAE: tinyMAE(), BatchSize: 8, Epochs: 2, BaseLR: 1e-4,
		WeightDecay: 0, WarmupEpochs: 0, Workers: 1, Seed: 1,
		MaxStepsPerEpoch: 2,
	}
	res, err := Pretrain(cfg, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 4 {
		t.Fatalf("steps=%d want 4", res.Steps)
	}
}

func TestPretrainLogs(t *testing.T) {
	var buf bytes.Buffer
	cfg := PretrainConfig{
		MAE: tinyMAE(), BatchSize: 8, Epochs: 1, BaseLR: 1e-4,
		Workers: 1, Seed: 1, Log: &buf, MaxStepsPerEpoch: 1,
	}
	if _, err := Pretrain(cfg, tinyDataset(16)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no log output")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	r := rng.New(1)
	m1 := mae.New(tinyMAE(), r)
	path := filepath.Join(t.TempDir(), "ck.gob")
	if err := SaveParamsFile(path, m1.Params(), 42); err != nil {
		t.Fatal(err)
	}
	m2 := mae.New(tinyMAE(), rng.New(99)) // different init
	step, err := LoadParamsFile(path, m2.Params())
	if err != nil {
		t.Fatal(err)
	}
	if step != 42 {
		t.Fatalf("step=%d", step)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if p1[i].Value.Data[j] != p2[i].Value.Data[j] {
				t.Fatalf("param %s differs after restore", p1[i].Name)
			}
		}
	}
}

func TestCheckpointRejectsMismatchedModel(t *testing.T) {
	r := rng.New(1)
	m1 := mae.New(tinyMAE(), r)
	var buf bytes.Buffer
	if err := SaveParams(&buf, m1.Params(), 0); err != nil {
		t.Fatal(err)
	}
	other := tinyMAE()
	other.Encoder.Width = 24
	other.Encoder.MLP = 48
	m2 := mae.New(other, rng.New(2))
	if _, err := LoadParams(&buf, m2.Params()); err == nil {
		t.Fatal("mismatched restore accepted")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	var p []*nn.Param
	if _, err := LoadParams(bytes.NewReader([]byte("not a checkpoint")), p); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCheckpointRejectsMissingParam(t *testing.T) {
	r := rng.New(1)
	lin := nn.NewLinear("only", 2, 2, r)
	var buf bytes.Buffer
	if err := SaveParams(&buf, lin.Params(), 0); err != nil {
		t.Fatal(err)
	}
	extra := nn.NewLinear("extra", 2, 2, r)
	if _, err := LoadParams(&buf, append(lin.Params(), extra.Params()...)); err == nil {
		t.Fatal("missing parameter accepted")
	}
}
