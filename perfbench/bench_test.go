package main

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/geofm"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	// A failed request (+Inf) sorts above every served one.
	if got := percentile([]float64{1, math.Inf(1), 2}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
}

func TestDueLatency(t *testing.T) {
	// Submitted 3 ms late, 10 ms in the server: 13 ms from the due time.
	if got := dueLatency(1.000, 1.003, 5.0, 5.010); math.Abs(got-0.013) > 1e-12 {
		t.Errorf("late request latency = %v, want 0.013", got)
	}
	// Early wake-ups are not credited back.
	if got := dueLatency(1.000, 0.999, 5.0, 5.010); math.Abs(got-0.010) > 1e-12 {
		t.Errorf("early request latency = %v, want 0.010", got)
	}
}

func TestRateLadder(t *testing.T) {
	rungs := rateLadder(25, 800, 1.08)
	if rungs[0] != 25 || rungs[len(rungs)-1] < 800 {
		t.Fatalf("ladder %v does not span [25, 800]", rungs)
	}
	for i := 1; i < len(rungs); i++ {
		if step := rungs[i]/rungs[i-1] - 1; step <= 0 || step > 0.10 {
			t.Errorf("rungs %v → %v are %.1f%% apart, want (0, 10%%]", rungs[i-1], rungs[i], 100*step)
		}
	}
}

func TestBisectLadder(t *testing.T) {
	for n := 1; n <= 50; n++ {
		for capIdx := -1; capIdx < n; capIdx++ {
			best, probed := bisectLadder(n, func(i int) bool { return i <= capIdx })
			if best != capIdx {
				t.Fatalf("n=%d cap=%d: best %d", n, capIdx, best)
			}
			if limit := int(math.Ceil(math.Log2(float64(n + 1)))); len(probed) > limit {
				t.Fatalf("n=%d cap=%d: %d probes, want ≤ %d", n, capIdx, len(probed), limit)
			}
		}
	}
}

func TestClosure(t *testing.T) {
	// Two ops: 4 calls × 1 ms + 2 calls × 3 ms = 10 ms of a 20 ms step.
	if got := closure([]float64{4, 2}, []float64{1e-3, 3e-3}, 20e-3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("closure = %v, want 0.5", got)
	}
}

func TestTrainInputsFollowSeed(t *testing.T) {
	w, err := findWorkload("pretrain-base")
	if err != nil {
		t.Fatal(err)
	}
	a, err := newTrainInputs(w, 1, w.batch)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newTrainInputs(w, 1, w.batch)
	c, _ := newTrainInputs(w, 2, w.batch)
	if a.digest != b.digest {
		t.Error("same seed rendered different training images")
	}
	if a.digest == c.digest {
		t.Error("different seeds rendered the same training images")
	}
	wa := geofm.NewMAE(a.cfg.MAE, a.cfg.Seed).Params()[0].Value.Data
	wc := geofm.NewMAE(c.cfg.MAE, c.cfg.Seed).Params()[0].Value.Data
	if sameF32(wa, wc) {
		t.Error("different seeds drew the same initial weights")
	}
}

func TestServeInputsFollowSeed(t *testing.T) {
	w, err := findWorkload("serve-1b-open")
	if err != nil {
		t.Fatal(err)
	}
	a, err := newServeInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newServeInputs(w, 1)
	c, _ := newServeInputs(w, 2)
	for i := range a.imgs {
		if !sameF32(a.imgs[i], b.imgs[i]) {
			t.Fatalf("same seed rendered different request image %d", i)
		}
	}
	if sameF32(a.imgs[0], c.imgs[0]) {
		t.Error("different seeds rendered the same request image")
	}
	img := func(i int) []float32 { return a.imgs[i%len(a.imgs)] }
	s1 := geofm.ServePoissonArrivals(200, 64, serveMix, img, 7)
	s2 := geofm.ServePoissonArrivals(200, 64, serveMix, img, 7)
	s3 := geofm.ServePoissonArrivals(200, 64, serveMix, img, 8)
	for i := range s1 {
		if !sameBits(s1[i].AtSec, s2[i].AtSec) {
			t.Fatalf("same seed gave different arrival %d", i)
		}
	}
	if sameBits(s1[0].AtSec, s3[0].AtSec) {
		t.Error("different seeds gave the same arrival schedule")
	}
}

// TestRecordReferenceLoss prints the referenceLoss table: each training
// workload's final loss of one untraced call for seeds 1–10. It runs
// only with PERFBENCH_RECORD=1, to re-record after a change that alters
// the training arithmetic on purpose.
func TestRecordReferenceLoss(t *testing.T) {
	if os.Getenv("PERFBENCH_RECORD") != "1" {
		t.Skip("set PERFBENCH_RECORD=1 to record reference losses")
	}
	for _, w := range workloads {
		if w.serve {
			continue
		}
		var finals []float64
		for seed := uint64(1); seed <= 10; seed++ {
			in, err := newTrainInputs(w, seed, w.batch)
			if err != nil {
				t.Fatal(err)
			}
			r := &run{w: w, seed: seed, metrics: map[string]metric{}}
			c, err := callTrain(r, in, w.ranks)
			if err != nil {
				t.Fatal(err)
			}
			final := c.losses[len(c.losses)-1]
			finals = append(finals, final)
			fmt.Printf("%s seed %d final %.17g bits %#016x\n", w.name, seed, final, math.Float64bits(final))
		}
		var m float64
		for _, f := range finals {
			m += f / float64(len(finals))
		}
		var dev float64
		for _, f := range finals {
			dev = math.Max(dev, math.Abs(f-m))
		}
		fmt.Printf("%s mean %.17g maxdev %.17g\n", w.name, m, dev)
	}
}
