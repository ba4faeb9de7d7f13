package opt

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// TestLossScalerBackoffAndGrowth walks the scaler through the AMP
// protocol: overflow halves the scale, skips the step and resets the
// good-step run; an interval of clean steps doubles it.
func TestLossScalerBackoffAndGrowth(t *testing.T) {
	s := NewLossScaler(0, 0, 0, 4)
	if s.Scale != DefaultLossScale {
		t.Fatalf("default scale %v", s.Scale)
	}
	if skip := s.Update(true); !skip {
		t.Fatal("overflow did not request a skip")
	}
	if s.Scale != DefaultLossScale/2 || s.Backoffs() != 1 || s.Skipped() != 1 {
		t.Fatalf("after backoff: scale %v, backoffs %d, skipped %d", s.Scale, s.Backoffs(), s.Skipped())
	}
	for i := 0; i < 3; i++ {
		if s.Update(false) {
			t.Fatal("clean step skipped")
		}
		if s.Scale != DefaultLossScale/2 {
			t.Fatalf("scale grew early at clean step %d", i)
		}
	}
	s.Update(false) // 4th clean step completes the interval
	if s.Scale != DefaultLossScale {
		t.Fatalf("scale after growth: %v", s.Scale)
	}
	if s.GoodSteps() != 0 {
		t.Fatalf("good-step run not reset after growth: %d", s.GoodSteps())
	}
	// An overflow mid-run resets the interval.
	s.Update(false)
	s.Update(true)
	if s.GoodSteps() != 0 {
		t.Fatal("good-step run survived an overflow")
	}
}

// TestLossScalerPowerOfTwo: the default policy keeps the scale an exact
// power of two through arbitrary backoff/growth sequences, so scaling
// never perturbs bf16 rounding decisions.
func TestLossScalerPowerOfTwo(t *testing.T) {
	s := NewLossScaler(0, 0, 0, 1)
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		s.Update(r.Intn(3) == 0)
		frac, _ := math.Frexp(s.Scale)
		if frac != 0.5 {
			t.Fatalf("scale %v is not a power of two after %d updates", s.Scale, i+1)
		}
	}
}

// TestLossScalerRestore: Restore reproduces the exact schedule point.
func TestLossScalerRestore(t *testing.T) {
	a := NewLossScaler(1024, 2, 0.5, 3)
	a.Update(false)
	a.Update(false)
	b := NewLossScaler(1024, 2, 0.5, 3)
	b.Restore(a.Scale, a.GoodSteps())
	a.Update(false) // completes the interval → growth
	b.Update(false)
	if a.Scale != b.Scale || a.Scale != 2048 {
		t.Fatalf("restored scaler diverged: %v vs %v", a.Scale, b.Scale)
	}
}

// TestHasNonFinite covers the three non-finite classes and the clean
// case.
func TestHasNonFinite(t *testing.T) {
	clean := []float32{0, -1.5, math.MaxFloat32, -math.MaxFloat32}
	if HasNonFinite(clean) {
		t.Fatal("finite slice flagged")
	}
	for _, bad := range []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	} {
		x := append([]float32{1, 2}, bad)
		if !HasNonFinite(x) {
			t.Fatalf("missed %v", bad)
		}
	}
	if HasNonFinite(nil) {
		t.Fatal("nil slice flagged")
	}
}

// TestAdamWMomentsRoundTrip: exporting moments after some steps and
// importing them into a fresh optimizer (with the step counter carried
// over) continues the identical update sequence — the replicated-mode
// resume path.
func TestAdamWMomentsRoundTrip(t *testing.T) {
	r := rng.New(9)
	build := func() []*nn.Param {
		lin := nn.NewLinear("l", 4, 3, rng.New(7))
		return lin.Params()
	}
	grads := make([][]float32, 6)
	for i := range grads {
		g := make([]float32, FlatDim(build()))
		r.FillNormal(g, 0, 0.3)
		grads[i] = g
	}
	step := func(a *AdamW, params []*nn.Param, g []float32) {
		off := 0
		for _, p := range params {
			off += copy(p.Grad.Data, g[off:])
		}
		a.Step(0.01)
	}

	// Straight run: six steps.
	pRef := build()
	aRef := NewAdamW(pRef, 0.05)
	for _, g := range grads {
		step(aRef, pRef, g)
	}

	// Interrupted run: three steps, export, fresh optimizer, import,
	// three more.
	p1 := build()
	a1 := NewAdamW(p1, 0.05)
	for _, g := range grads[:3] {
		step(a1, p1, g)
	}
	dim := FlatDim(p1)
	m := make([]float32, dim)
	v := make([]float32, dim)
	a1.ExportMoments(m, v)

	p2 := build()
	w := make([]float32, dim)
	PackValues(w, p1)
	UnpackValues(p2, w)
	a2 := NewAdamW(p2, 0.05)
	a2.ImportMoments(m, v)
	a2.SetStep(a1.StepCount())
	for _, g := range grads[3:] {
		step(a2, p2, g)
	}

	ref := make([]float32, dim)
	got := make([]float32, dim)
	PackValues(ref, pRef)
	PackValues(got, p2)
	for i := range ref {
		if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
			t.Fatalf("resumed AdamW diverged at flat element %d: %v vs %v", i, got[i], ref[i])
		}
	}
}

// TestShardedAdamWMomentsRoundTrip: the sharded twin of the test above.
func TestShardedAdamWMomentsRoundTrip(t *testing.T) {
	params := nn.NewLinear("l", 5, 3, rng.New(7)).Params()
	lo, hi := 4, 12
	r := rng.New(11)
	grads := make([][]float32, 4)
	for i := range grads {
		g := make([]float32, hi-lo)
		r.FillNormal(g, 0, 0.5)
		grads[i] = g
	}

	run := func(a *ShardedAdamW, w []float32, gs [][]float32) {
		for _, g := range gs {
			a.Step(0.02, w, g)
		}
	}
	wRef := make([]float32, hi-lo)
	own := []Span{{lo, hi}}
	aRef := NewShardedAdamWSpans(params, 0.05, own)
	run(aRef, wRef, grads)

	w1 := make([]float32, hi-lo)
	a1 := NewShardedAdamWSpans(params, 0.05, own)
	run(a1, w1, grads[:2])
	m := make([]float32, hi-lo)
	v := make([]float32, hi-lo)
	a1.CopyMoments(m, v)

	a2 := NewShardedAdamWSpans(params, 0.05, own)
	a2.RestoreMoments(m, v)
	a2.SetStep(a1.StepCount())
	run(a2, w1, grads[2:])

	for i := range wRef {
		if math.Float32bits(wRef[i]) != math.Float32bits(w1[i]) {
			t.Fatalf("resumed ShardedAdamW diverged at %d: %v vs %v", i, w1[i], wRef[i])
		}
	}
}
