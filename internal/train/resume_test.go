package train

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fsdp"
	"repro/internal/opt"
)

// TestResumeBitwiseIdentical is the checkpoint acceptance bar: a run
// interrupted at an epoch boundary (StopAfterEpoch), its TrainState
// round-tripped through the gob checkpoint encoding, and resumed in a
// fresh PretrainDistributed must produce the exact final parameters and
// the exact per-step losses of a run that never stopped — for fp32 and
// bf16, replicated and sharded strategies alike. Any drift in the
// master weights, Adam moments, step counter, loss scale, mask stream
// or sampler order fails bit-for-bit.
func TestResumeBitwiseIdentical(t *testing.T) {
	cases := []struct {
		plan fsdp.Plan
		prec Precision
	}{
		{fsdp.DefaultDDP(), FP32},
		{fsdp.BestPractice(fsdp.ShardGradOp, 0), FP32},
		{fsdp.BestPractice(fsdp.FullShard, 0), BF16},
		{fsdp.BestPractice(fsdp.HybridShard, 2), BF16},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s", c.plan.Name(), c.prec), func(t *testing.T) {
			base := tinyDistConfig(4, c.plan)
			base.Epochs = 4
			base.Precision = c.prec

			ref, err := PretrainDistributed(base, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}

			// Leg A: same configuration, interrupted after 2 epochs.
			legA := base
			legA.StopAfterEpoch = 2
			a, err := PretrainDistributed(legA, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}
			if a.State.Epoch != 2 || a.State.Step != ref.State.Step/2 {
				t.Fatalf("leg A state: epoch %d step %d", a.State.Epoch, a.State.Step)
			}
			// Its loss curve must be the first half of the reference's.
			for i := range a.LossCurve.Y {
				if a.LossCurve.Y[i] != ref.LossCurve.Y[i] {
					t.Fatalf("leg A loss differs at step %d", i)
				}
			}

			// The state survives the on-disk encoding bit-for-bit.
			var buf bytes.Buffer
			if err := SaveTrainState(&buf, a.State); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadTrainState(&buf)
			if err != nil {
				t.Fatal(err)
			}

			// Leg B: resume the remaining 2 epochs.
			legB := base
			legB.Resume = restored
			b, err := PretrainDistributed(legB, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}
			if b.Steps != ref.Steps-a.Steps {
				t.Fatalf("leg B ran %d steps, want %d", b.Steps, ref.Steps-a.Steps)
			}
			// No init broadcast on resume.
			if b.Comm.Broadcast.Calls != 0 {
				t.Errorf("resumed run broadcast %d times", b.Comm.Broadcast.Calls)
			}
			// Its loss curve is the second half of the reference's,
			// bitwise, at the right absolute step indices.
			half := len(ref.LossCurve.Y) / 2
			for i := range b.LossCurve.Y {
				if b.LossCurve.Y[i] != ref.LossCurve.Y[half+i] {
					t.Fatalf("resumed loss differs at step %d: %v vs %v",
						half+i, b.LossCurve.Y[i], ref.LossCurve.Y[half+i])
				}
				if b.LossCurve.X[i] != ref.LossCurve.X[half+i] {
					t.Fatalf("resumed curve indexed at %v, want %v", b.LossCurve.X[i], ref.LossCurve.X[half+i])
				}
			}
			// Final parameters identical to the uninterrupted run's.
			dim := opt.FlatDim(ref.Model.Params())
			want := make([]float32, dim)
			got := make([]float32, dim)
			opt.PackValues(want, ref.Model.Params())
			opt.PackValues(got, b.Model.Params())
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("resumed parameters differ at flat element %d: %v vs %v", j, got[j], want[j])
				}
			}
			// And the final states agree too (master + moments), so a
			// second resume would also continue identically.
			for j := range ref.State.Master {
				if math.Float32bits(b.State.Master[j]) != math.Float32bits(ref.State.Master[j]) ||
					math.Float32bits(b.State.OptM[j]) != math.Float32bits(ref.State.OptM[j]) ||
					math.Float32bits(b.State.OptV[j]) != math.Float32bits(ref.State.OptV[j]) {
					t.Fatalf("resumed train state differs at flat element %d", j)
				}
			}
			if b.State.OptStep != ref.State.OptStep || b.State.Step != ref.State.Step {
				t.Fatalf("state counters: %d/%d vs %d/%d",
					b.State.OptStep, b.State.Step, ref.State.OptStep, ref.State.Step)
			}
			if c.prec == BF16 && b.State.LossScale != ref.State.LossScale {
				t.Fatalf("loss scale diverged: %v vs %v", b.State.LossScale, ref.State.LossScale)
			}
		})
	}
}

// TestTrainStateFileRoundTrip exercises the file-backed checkpoint
// path: save to disk, load, resume — the workflow cmd/pretrain wires
// up.
func TestTrainStateFileRoundTrip(t *testing.T) {
	cfg := tinyDistConfig(2, fsdp.DefaultDDP())
	cfg.Epochs = 2
	cfg.StopAfterEpoch = 1
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.gob")
	if err := SaveTrainStateFile(path, res.State); err != nil {
		t.Fatal(err)
	}
	st, err := LoadTrainStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != res.State.Epoch || st.Step != res.State.Step || st.OptStep != res.State.OptStep {
		t.Fatalf("counters drifted through the file: %+v", st)
	}
	for i := range res.State.Master {
		if math.Float32bits(st.Master[i]) != math.Float32bits(res.State.Master[i]) {
			t.Fatalf("master differs at %d after file round trip", i)
		}
	}
	cfg.StopAfterEpoch = 0
	cfg.Resume = st
	if _, err := PretrainDistributed(cfg, tinyDataset(32)); err != nil {
		t.Fatal(err)
	}
}

// TestTrainStateRejectsGarbage: malformed streams and mismatched
// shapes fail fast instead of resuming silently wrong.
func TestTrainStateRejectsGarbage(t *testing.T) {
	if _, err := LoadTrainState(bytes.NewReader([]byte("not a train state"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Moments not matching the master length.
	var buf bytes.Buffer
	bad := &TrainState{Master: make([]float32, 4), OptM: make([]float32, 2), OptV: make([]float32, 4)}
	if err := SaveTrainState(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrainState(&buf); err == nil {
		t.Fatal("mismatched moments accepted")
	}
}

// TestTrainStateCorruptionDetected: the checksummed envelope turns the
// two silent on-disk failure modes — truncation and bit flips — into
// clean LoadTrainState errors. (The atomic temp-file rename already
// prevents truncation by crash; this covers the storage layer.)
func TestTrainStateCorruptionDetected(t *testing.T) {
	cfg := tinyDistConfig(2, fsdp.DefaultDDP())
	cfg.Epochs = 2
	cfg.StopAfterEpoch = 1
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.gob")
	if err := SaveTrainStateFile(path, res.State); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at any depth — mid-envelope and mid-payload.
	for _, keep := range []int{1, len(blob) / 4, len(blob) - 1} {
		if _, err := LoadTrainState(bytes.NewReader(blob[:keep])); err == nil {
			t.Errorf("state truncated to %d/%d bytes accepted", keep, len(blob))
		}
	}

	// A single flipped bit deep in the tensor payload. Without the
	// checksum gob would decode this into silently wrong weights; the
	// envelope must reject it, naming the corruption.
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x10
	_, err = LoadTrainState(bytes.NewReader(flipped))
	if err == nil {
		t.Fatal("bit-flipped state accepted")
	}
	if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "checksum") &&
		!strings.Contains(err.Error(), "decoding") {
		t.Errorf("corruption error does not explain itself: %v", err)
	}

	// The pristine file still loads.
	if _, err := LoadTrainState(bytes.NewReader(blob)); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
}

// TestResumeValidation: resume states that cannot continue this
// configuration are rejected before any rank spawns (or at rank init
// for shape mismatches).
func TestResumeValidation(t *testing.T) {
	cfg := tinyDistConfig(2, fsdp.DefaultDDP())
	cfg.Epochs = 2
	cfg.StopAfterEpoch = 1
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	st := res.State

	// Epoch beyond the schedule.
	c := cfg
	c.StopAfterEpoch = 0
	c.Epochs = 1
	c.Resume = st
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("resume past the final epoch accepted")
	}
	// Step count inconsistent with the schedule.
	c = cfg
	c.StopAfterEpoch = 0
	broken := *st
	broken.Step++
	c.Resume = &broken
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("resume with mismatched step count accepted")
	}
	// Wrong model size.
	c = cfg
	c.StopAfterEpoch = 0
	short := *st
	short.Master = short.Master[:10]
	short.OptM = short.OptM[:10]
	short.OptV = short.OptV[:10]
	c.Resume = &short
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("resume with wrong parameter count accepted")
	}
	// Precision mismatch: an FP32 state carries no loss-scale schedule,
	// so resuming it under BF16 must fail fast rather than train with a
	// zero scale.
	c = cfg
	c.StopAfterEpoch = 0
	c.Precision = BF16
	c.Resume = st // captured under FP32
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("FP32-captured state accepted under BF16")
	}
	// Accumulation-window mismatch: Step counts optimizer steps, so the
	// mask fast-forward consumes Step×AccumSteps micro-batches — a
	// different window must fail fast, not resume on a misaligned mask
	// stream. (MaxStepsPerEpoch pins stepsPerEpoch so the Step check
	// alone cannot catch it.)
	c = cfg
	c.StopAfterEpoch = 0
	c.MaxStepsPerEpoch = 1
	c.AccumSteps = 2
	mismatch := *st
	mismatch.Step = 1 // consistent with 1 step/epoch × 1 epoch
	c.Resume = &mismatch
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("state captured without accumulation accepted under AccumSteps=2")
	}
	// And a pre-accumulation state (AccumSteps zero value) resumes an
	// unaccumulated run.
	if st.AccumSteps != 1 {
		t.Errorf("captured state AccumSteps = %d, want 1", st.AccumSteps)
	}
	// Topology stamps: a state sharded for another world or strategy
	// must be rejected with a pointer at Reshard, naming both sides.
	if st.World != 2 || st.Strategy != "DDP" {
		t.Fatalf("captured state stamped %d/%q, want 2/DDP", st.World, st.Strategy)
	}
	c = cfg
	c.StopAfterEpoch = 0
	c.Ranks = 4
	c.BatchSize = 8
	c.Resume = st
	_, err = PretrainDistributed(c, tinyDataset(32))
	if err == nil {
		t.Error("state captured at world 2 accepted at world 4")
	} else if !strings.Contains(err.Error(), "world 2") || !strings.Contains(err.Error(), "4 ranks") ||
		!strings.Contains(err.Error(), "Reshard") {
		t.Errorf("world-mismatch error does not name both sides and the fix: %v", err)
	}
	c = cfg
	c.StopAfterEpoch = 0
	c.Plan = fsdp.BestPractice(fsdp.FullShard, 0)
	c.Resume = st
	_, err = PretrainDistributed(c, tinyDataset(32))
	if err == nil {
		t.Error("DDP-captured state accepted under FULL_SHARD")
	} else if !strings.Contains(err.Error(), "DDP") || !strings.Contains(err.Error(), "FULL_SHARD") ||
		!strings.Contains(err.Error(), "Reshard") {
		t.Errorf("strategy-mismatch error does not name both sides and the fix: %v", err)
	}
	// Zero stamps — states from before elasticity — act as wildcards.
	wild := *st
	wild.World, wild.Strategy = 0, ""
	c = cfg
	c.StopAfterEpoch = 0
	c.Resume = &wild
	if _, err := PretrainDistributed(c, tinyDataset(32)); err != nil {
		t.Errorf("wildcard-stamped state rejected: %v", err)
	}
	// After Reshard the same state resumes at the new topology.
	resharded, err := Reshard(st, 4, fsdp.DefaultDDP())
	if err != nil {
		t.Fatal(err)
	}
	c = cfg
	c.StopAfterEpoch = 0
	c.Ranks = 4
	c.BatchSize = 8
	c.Resume = resharded
	if _, err := PretrainDistributed(c, tinyDataset(32)); err != nil {
		t.Errorf("re-sharded state rejected at its new topology: %v", err)
	}
}

// TestResumeWithWorkersBitwise is the PR 4 fast-forward audit's
// regression: resuming mid-run with 4 loader workers per rank (the
// paper's configuration) — here additionally under overlap and a
// 2-micro-step accumulation window — must be bitwise identical to the
// uninterrupted run. The hazards this pins down: dataload.SkipEpochs
// must not disturb the batch pool (a double-put panics the run via the
// Recycle guard), and no recycled batch may be delivered while a
// worker still holds it (run under -race in CI, which would flag the
// overlapping writes).
func TestResumeWithWorkersBitwise(t *testing.T) {
	base := tinyDistConfig(4, fsdp.BestPractice(fsdp.HybridShard, 2))
	base.Epochs = 4
	base.Workers = 4
	base.Overlap = true
	base.AccumSteps = 2

	ref, err := PretrainDistributed(base, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	legA := base
	legA.StopAfterEpoch = 2
	a, err := PretrainDistributed(legA, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTrainState(&buf, a.State); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadTrainState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	legB := base
	legB.Resume = restored
	b, err := PretrainDistributed(legB, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	half := len(ref.LossCurve.Y) / 2
	for i := range b.LossCurve.Y {
		if math.Float64bits(b.LossCurve.Y[i]) != math.Float64bits(ref.LossCurve.Y[half+i]) {
			t.Fatalf("resumed loss differs at step %d: %v vs %v",
				half+i, b.LossCurve.Y[i], ref.LossCurve.Y[half+i])
		}
	}
	dim := opt.FlatDim(ref.Model.Params())
	want := make([]float32, dim)
	got := make([]float32, dim)
	opt.PackValues(want, ref.Model.Params())
	opt.PackValues(got, b.Model.Params())
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("resumed parameters differ at flat element %d", j)
		}
	}
}

// interruptedState runs cfg's first epoch of two and returns the
// captured state, ready to resume the second.
func interruptedState(t *testing.T, cfg DistConfig) *TrainState {
	t.Helper()
	cfg.Epochs = 2
	cfg.StopAfterEpoch = 1
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	return res.State
}

// TestNonFiniteGradFailsFP32: an FP32 run whose reduced gradient turns
// NaN stops with ErrNonFiniteGrad instead of applying it, under the
// replicated and both sharded schedules. The NaN enters through a
// resumed master weight, so every rank's forward sees it.
func TestNonFiniteGradFailsFP32(t *testing.T) {
	for _, plan := range []fsdp.Plan{
		fsdp.DefaultDDP(),
		fsdp.BestPractice(fsdp.ShardGradOp, 0),
		fsdp.BestPractice(fsdp.FullShard, 0),
	} {
		cfg := tinyDistConfig(2, plan)
		cfg.Epochs = 2
		poisoned := interruptedState(t, cfg).clone()
		poisoned.Master[0] = float32(math.NaN())
		cfg.Resume = poisoned
		res, err := PretrainDistributed(cfg, tinyDataset(32))
		if !errors.Is(err, ErrNonFiniteGrad) {
			loss := math.NaN()
			if res != nil {
				loss = res.LossCurve.Last()
			}
			t.Errorf("%s: NaN gradient gave err %v (final loss %v), want ErrNonFiniteGrad", plan.Name(), err, loss)
		}
	}
}

// TestResumeRejectsShortMoments: a resume state whose Adam moments are
// shorter than the model's flat length is rejected by name — both a
// freshly allocated short slice (which would otherwise panic inside a
// rank) and a short re-slice whose capacity still covers the model
// (which would otherwise be accepted silently).
func TestResumeRejectsShortMoments(t *testing.T) {
	for _, plan := range []fsdp.Plan{fsdp.DefaultDDP(), fsdp.BestPractice(fsdp.FullShard, 0)} {
		cfg := tinyDistConfig(2, plan)
		cfg.Epochs = 2
		st := interruptedState(t, cfg)
		half := len(st.OptV) / 2
		for name, short := range map[string][]float32{
			"fresh":    make([]float32, half),
			"resliced": st.OptV[:half],
		} {
			bad := *st
			bad.OptV = short
			cfg.Resume = &bad
			if _, err := PretrainDistributed(cfg, tinyDataset(32)); !errors.Is(err, errResumeShape) {
				t.Errorf("%s, %s short OptV: err %v, want errResumeShape", plan.Name(), name, err)
			}
		}
	}
}

// FuzzLoadTrainState: any bytes either fail to load or give a state
// whose moments match the master length — never a panic. Seeded with a
// captured state, a hand-built one, their truncations and garbage.
func FuzzLoadTrainState(f *testing.F) {
	cfg := tinyDistConfig(1, fsdp.DefaultDDP())
	cfg.Epochs = 2
	cfg.StopAfterEpoch = 1
	res, err := PretrainDistributed(cfg, tinyDataset(16))
	if err != nil {
		f.Fatal(err)
	}
	small := &TrainState{Step: 3, Epoch: 1, World: 2, Strategy: "FULL_SHARD",
		Master: []float32{1, 2, 3}, OptM: []float32{4, 5, 6}, OptV: []float32{7, 8, 9}, OptStep: 3}
	for _, st := range []*TrainState{res.State, small} {
		var buf bytes.Buffer
		if err := SaveTrainState(&buf, st); err != nil {
			f.Fatal(err)
		}
		blob := buf.Bytes()
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte("not a train state"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadTrainState(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(st.OptM) != len(st.Master) || len(st.OptV) != len(st.Master) {
			t.Fatalf("loaded state with %d master, %d/%d moment values", len(st.Master), len(st.OptM), len(st.OptV))
		}
	})
}
