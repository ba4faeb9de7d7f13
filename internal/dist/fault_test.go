package dist

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
)

// TestFaultPlanKillsAtIndex: the planned death fires exactly at the
// 1-based collective-entry index, the victim's error surfaces through
// Run wrapped around ErrInjectedFault, and every surviving rank
// unblocks with ErrAborted instead of deadlocking.
func TestFaultPlanKillsAtIndex(t *testing.T) {
	const n, kills = 4, 5
	w := New(n, Options{Fault: FaultPlan{Rank: 2, Call: kills}})
	err := w.Run(func(r *Rank) error {
		buf := make([]float32, 4*n)
		for i := 0; i < 10; i++ {
			w.Group().AllReduce(r, buf, nil, nil).Wait()
		}
		return nil
	})
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("Run returned %v, want ErrInjectedFault in the chain", err)
	}
	var f *InjectedFault
	if !errors.As(err, &f) {
		t.Fatalf("Run error %v does not carry *InjectedFault", err)
	}
	if f.Rank != 2 || f.Call != kills || f.Op != OpAllReduce {
		t.Fatalf("fault fired at %+v, want rank 2 call %d all-reduce", f, kills)
	}
	// The victim entered exactly Call collectives; survivors parked in
	// the ring at the same index (entered, never completed).
	if got := w.ranks[2].CollectiveCalls(); got != kills {
		t.Fatalf("victim entered %d collectives, want %d", got, kills)
	}
}

// TestFaultPlanMatrix drives the injected death through every path the
// elastic driver has to survive: blocking calls and several issued
// handles in flight at once, fp32 and bf16 wire, world-group and
// subgroup collectives. Each case must surface ErrInjectedFault from
// Run with no deadlock.
func TestFaultPlanMatrix(t *testing.T) {
	const n = 4
	cases := []struct {
		name string
		body func(w *World, r *Rank)
	}{
		{"sync/fp32", func(w *World, r *Rank) {
			buf := make([]float32, 4*n)
			for i := 0; i < 8; i++ {
				w.Group().AllReduce(r, buf, nil, nil).Wait()
			}
		}},
		{"sync/bf16", func(w *World, r *Rank) {
			buf := make([]float32, 4*n)
			wire := make([]uint16, len(buf))
			for i := 0; i < 8; i++ {
				w.Group().AllReduce(r, buf, wire, nil).Wait()
			}
		}},
		{"async/fp32", func(w *World, r *Rank) {
			bufs := make([][]float32, 8)
			var hs []*Handle
			for i := range bufs {
				bufs[i] = make([]float32, 4*n)
				hs = append(hs, w.Group().AllReduce(r, bufs[i], nil, nil))
			}
			for _, h := range hs {
				h.Wait()
			}
		}},
		{"async/bf16", func(w *World, r *Rank) {
			var hs []*Handle
			for i := 0; i < 8; i++ {
				buf := make([]float32, 4*n)
				hs = append(hs, w.Group().AllReduce(r, buf, make([]uint16, len(buf)), nil))
			}
			for _, h := range hs {
				h.Wait()
			}
		}},
		{"subgroup/two-level", func(w *World, r *Rank) {
			// The hybrid shape: reduce-scatter in consecutive pairs,
			// all-reduce across the strided replica pairs.
			first := r.ID() / 2 * 2
			sg := w.Subgroup([]int{first, first + 1})
			rg := w.Subgroup([]int{r.ID() % 2, r.ID()%2 + 2})
			buf := make([]float32, 8)
			for i := 0; i < 8; i++ {
				shard := sg.ReduceScatter(r, buf, nil).Wait()
				rg.AllReduce(r, shard, nil, nil).Wait()
			}
		}},
		{"subgroup/async-chained", func(w *World, r *Rank) {
			first := r.ID() / 2 * 2
			sg := w.Subgroup([]int{first, first + 1})
			rg := w.Subgroup([]int{r.ID() % 2, r.ID()%2 + 2})
			buf := make([]float32, 8)
			for i := 0; i < 8; i++ {
				rs := sg.ReduceScatter(r, buf, nil)
				rg.AllReduce(r, buf[:4], nil, rs).Wait()
			}
		}},
	}
	for _, c := range cases {
		for _, victim := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/rank=%d", c.name, victim), func(t *testing.T) {
				w := New(n, Options{Fault: FaultPlan{Rank: victim, Call: 6}})
				err := w.Run(func(r *Rank) error {
					c.body(w, r)
					return nil
				})
				if !errors.Is(err, ErrInjectedFault) {
					t.Fatalf("Run returned %v, want ErrInjectedFault", err)
				}
				var f *InjectedFault
				if !errors.As(err, &f) || f.Rank != victim || f.Call != 6 {
					t.Fatalf("fault detail %v, want rank %d call 6", err, victim)
				}
			})
		}
	}
}

// TestFaultPlanDeterministic: the same program with the same plan dies
// at the same place every run — the property that makes kill-at-epoch-E
// elasticity tests reproducible.
func TestFaultPlanDeterministic(t *testing.T) {
	run := func() error {
		w := New(3, Options{Fault: FaultPlan{Rank: 1, Call: 4}})
		return w.Run(func(r *Rank) error {
			buf := make([]float32, 3)
			for i := 0; i < 6; i++ {
				w.Group().AllReduce(r, buf, nil, nil).Wait()
				w.Group().AllReduceScalar(r, 1)
			}
			return nil
		})
	}
	a, b := run(), run()
	if a == nil || b == nil {
		t.Fatal("fault did not fire")
	}
	if a.Error() != b.Error() {
		t.Fatalf("non-deterministic death site:\n  %v\n  %v", a, b)
	}
	var f *InjectedFault
	if !errors.As(a, &f) || f.Op != OpScalar {
		// calls alternate all-reduce, scalar, ... — entry 4 is a scalar.
		t.Fatalf("death site %v, want the 4th entry (scalar)", a)
	}
}

// TestFaultPlanDisarmed: the zero plan and a Call beyond the schedule
// inject nothing.
func TestFaultPlanDisarmed(t *testing.T) {
	for _, plan := range []FaultPlan{{}, {Rank: 1, Call: 1000}} {
		w := New(2, Options{Fault: plan})
		err := w.Run(func(r *Rank) error {
			buf := make([]float32, 2)
			w.Group().AllReduce(r, buf, nil, nil).Wait()
			return nil
		})
		if err != nil {
			t.Fatalf("plan %+v injected: %v", plan, err)
		}
	}
}

// TestFaultPlanValidation: plans and skews targeting ranks outside the
// world fail at New, not mid-run.
func TestFaultPlanValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("fault rank", func() { New(2, Options{Fault: FaultPlan{Rank: 2, Call: 1}}) })
	mustPanic("negative fault rank", func() { New(2, Options{Fault: FaultPlan{Rank: -1, Call: 1}}) })
	mustPanic("skew rank", func() { New(2, Options{ThrottleSkew: map[int]float64{5: 2}}) })
}

// TestThrottleSkewStraggler: one rank with a throttle skew slows every
// peer to its pace — the synchronous-lockstep cost the simulator's α–β
// model predicts. The skewed run's wall clock must carry at least the
// straggler's modeled collective time, and the baseline must not.
func TestThrottleSkewStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n, rounds, skew = 4, 4, 4.0
	link := comm.Params{Bandwidth: 2e6, HopLat: 1e-6, Launch: 1e-5} // 2 MB/s: 32 KiB AR ≈ 25 ms
	elems := 8192
	run := func(skewed bool) (time.Duration, Stats) {
		opts := Options{Link: link, Throttle: 1}
		if skewed {
			opts.ThrottleSkew = map[int]float64{n - 1: skew}
		}
		w := New(n, opts)
		start := time.Now()
		err := w.Run(func(r *Rank) error {
			buf := make([]float32, elems)
			for i := 0; i < rounds; i++ {
				w.Group().AllReduce(r, buf, nil, nil).Wait()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), w.Stats()
	}
	base, st := run(false)
	skewedWall, _ := run(true)
	modeled := st.AllReduce.ModelTime // total over all rounds, rank 0's schedule
	if modeled <= 0 {
		t.Fatal("no modeled time recorded")
	}
	// Lockstep: every collective completes no earlier than the straggler
	// finishes sleeping, so the skewed wall carries ≥ skew × modeled
	// collective time while the baseline carries ≥ 1 ×.
	if skewedWall.Seconds() < skew*modeled {
		t.Errorf("skewed wall %.3fs below the lockstep prediction %.3fs",
			skewedWall.Seconds(), skew*modeled)
	}
	if base.Seconds() >= skew*modeled {
		t.Errorf("baseline wall %.3fs already at the skewed prediction %.3fs — straggler cost not measurable",
			base.Seconds(), skew*modeled)
	}
	if skewedWall <= base {
		t.Errorf("skewed run (%v) not slower than baseline (%v)", skewedWall, base)
	}
}
