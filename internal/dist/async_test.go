package dist

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/rng"
)

// TestAsyncAllReduceMatchesSyncBitwise: a bucketed overlapped
// all-reduce schedule (issue everything, wait at the end) must leave
// every rank with bit-for-bit the buffers of the blocking bucket loop,
// and the
// measured byte accounting must be identical — the keystone of the
// overlapped training path.
func TestAsyncAllReduceMatchesSyncBitwise(t *testing.T) {
	const n, elems, buckets = 4, 64, 4
	mk := func() [][]float32 {
		g := rng.New(7)
		out := make([][]float32, n)
		for r := range out {
			out[r] = make([]float32, elems)
			g.FillNormal(out[r], 0, 1)
		}
		return out
	}

	run := func(async bool) ([][]float32, Stats) {
		bufs := mk()
		w := New(n, Options{})
		err := w.Run(func(r *Rank) error {
			be := elems / buckets
			if async {
				var hs []*Handle
				for off := 0; off < elems; off += be {
					hs = append(hs, w.Group().AllReduce(r, bufs[r.ID()][off:off+be], nil, nil))
				}
				for _, h := range hs {
					h.Wait()
				}
			} else {
				for off := 0; off < elems; off += be {
					w.Group().AllReduce(r, bufs[r.ID()][off:off+be], nil, nil).Wait()
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bufs, w.Stats()
	}

	sync, syncStats := run(false)
	asy, asyStats := run(true)
	for r := range sync {
		for i := range sync[r] {
			if math.Float32bits(sync[r][i]) != math.Float32bits(asy[r][i]) {
				t.Fatalf("rank %d element %d: async %v != sync %v", r, i, asy[r][i], sync[r][i])
			}
		}
	}
	if asyStats.AllReduce.MeasuredWireBytes != syncStats.AllReduce.MeasuredWireBytes ||
		asyStats.AllReduce.Calls != syncStats.AllReduce.Calls ||
		asyStats.AllReduce.ModelWireBytes != syncStats.AllReduce.ModelWireBytes {
		t.Fatalf("async accounting %+v != sync %+v", asyStats.AllReduce, syncStats.AllReduce)
	}
}

// TestAsyncReduceScatterShard: the handle's Wait returns the caller's
// fully reduced shard as a view into the caller's buffer.
func TestAsyncReduceScatterShard(t *testing.T) {
	const n, elems = 4, 32
	w := New(n, Options{})
	err := w.Run(func(r *Rank) error {
		buf := make([]float32, elems)
		for i := range buf {
			buf[i] = float32(r.ID()*elems + i)
		}
		h := w.Group().ReduceScatter(r, buf, nil)
		shard := h.Wait()
		cs := elems / n
		for i := range shard {
			var want float32
			for peer := 0; peer < n; peer++ {
				want += float32(peer*elems + r.ID()*cs + i)
			}
			if shard[i] != want {
				return fmt.Errorf("rank %d shard[%d] = %v, want %v", r.ID(), i, shard[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsyncTwoLevelChaining exercises the HYBRID_SHARD composite: a
// shard-group reduce-scatter chained (via AllReduce's after argument)
// into a replica-group all-reduce must equal the blocking two-level
// schedule bitwise — including when several buckets are in flight at
// once.
func TestAsyncTwoLevelChaining(t *testing.T) {
	const n, g, elems, buckets = 4, 2, 48, 3
	repl := n / g
	mk := func() [][]float32 {
		gen := rng.New(11)
		out := make([][]float32, n)
		for r := range out {
			out[r] = make([]float32, elems)
			gen.FillNormal(out[r], 0, 1)
		}
		return out
	}
	run := func(async bool) [][]float32 {
		bufs := mk()
		w := New(n, Options{})
		err := w.Run(func(r *Rank) error {
			first := r.ID() / g * g
			shardRanks := []int{first, first + 1}
			peers := make([]int, repl)
			for i := range peers {
				peers[i] = r.ID()%g + i*g
			}
			sg := w.Subgroup(shardRanks)
			rg := w.Subgroup(peers)
			idx := r.ID() - first
			be := elems / buckets
			cl := be / g
			buf := bufs[r.ID()]
			if async {
				var hs []*Handle
				for b := buckets - 1; b >= 0; b-- {
					span := buf[b*be : (b+1)*be]
					rs := sg.ReduceScatter(r, span, nil)
					hs = append(hs, rg.AllReduce(r, span[idx*cl:(idx+1)*cl], nil, rs))
				}
				for _, h := range hs {
					h.Wait()
				}
			} else {
				for b := buckets - 1; b >= 0; b-- {
					span := buf[b*be : (b+1)*be]
					shard := sg.ReduceScatter(r, span, nil).Wait()
					rg.AllReduce(r, shard, nil, nil).Wait()
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bufs
	}
	sync := run(false)
	asy := run(true)
	// Compare each rank's owned chunk of each bucket (the rest is ring
	// garbage in both schedules).
	be := elems / buckets
	cl := be / g
	for r := 0; r < n; r++ {
		idx := r % g
		for b := 0; b < buckets; b++ {
			for i := 0; i < cl; i++ {
				at := b*be + idx*cl + i
				if math.Float32bits(sync[r][at]) != math.Float32bits(asy[r][at]) {
					t.Fatalf("rank %d bucket %d chunk elem %d: async %v != sync %v",
						r, b, i, asy[r][at], sync[r][at])
				}
			}
		}
	}
}

// TestAsyncBF16MatchesSync: the bf16 wire stays bit-identical between
// overlapped (both buckets in flight, then Wait) and blocking issue,
// and moves exactly half the fp32 bytes.
func TestAsyncBF16MatchesSync(t *testing.T) {
	const n, elems = 4, 64
	mk := func() [][]float32 {
		g := rng.New(3)
		out := make([][]float32, n)
		for r := range out {
			out[r] = make([]float32, elems)
			g.FillNormal(out[r], 0, 1)
		}
		return out
	}
	run := func(async bool) ([][]float32, Stats) {
		bufs := mk()
		w := New(n, Options{})
		err := w.Run(func(r *Rank) error {
			buf, wire := bufs[r.ID()], make([]uint16, elems)
			const half = elems / 2
			if async {
				lo := w.Group().AllReduce(r, buf[:half], wire[:half], nil)
				hi := w.Group().AllReduce(r, buf[half:], wire[half:], nil)
				lo.Wait()
				hi.Wait()
			} else {
				w.Group().AllReduce(r, buf[:half], wire[:half], nil).Wait()
				w.Group().AllReduce(r, buf[half:], wire[half:], nil).Wait()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bufs, w.Stats()
	}
	sync, _ := run(false)
	asy, st := run(true)
	for r := range sync {
		for i := range sync[r] {
			if math.Float32bits(sync[r][i]) != math.Float32bits(asy[r][i]) {
				t.Fatalf("rank %d element %d differs", r, i)
			}
		}
	}
	want := 2 * float64(n-1) / float64(n) * float64(elems) * 2
	if st.AllReduce.MeasuredWireBytes != want {
		t.Fatalf("bf16 async bytes %v, want %v", st.AllReduce.MeasuredWireBytes, want)
	}
}

// TestAsyncAbort: a rank that fails while peers have collectives in
// flight must unblock their Wait with ErrAborted instead of
// deadlocking.
func TestAsyncAbort(t *testing.T) {
	w := New(2, Options{})
	boom := errors.New("boom")
	err := w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			return boom
		}
		buf := make([]float32, 8)
		h := w.Group().AllReduce(r, buf, nil, nil)
		defer func() {
			if p := recover(); p == nil {
				t.Error("Wait did not re-raise the abort")
			} else if e, ok := p.(error); !ok || !errors.Is(e, ErrAborted) {
				t.Errorf("Wait panicked with %v, want ErrAborted", p)
			}
		}()
		h.Wait()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the originating error", err)
	}
}

// TestAsyncAbortHybridSubgroups: a rank dying mid-collective in a
// two-level (hybrid) world must unblock every peer parked in a shard
// *or* replica subgroup with ErrAborted — including handles the victim
// abandoned un-Waited — and Run must return the originating error.
// Run under -race in CI: the abort path crosses the async workers of
// four ranks over four subgroups concurrently.
func TestAsyncAbortHybridSubgroups(t *testing.T) {
	const n, g = 4, 2
	boom := errors.New("boom")
	w := New(n, Options{})
	var sawAborted [n]bool
	err := w.Run(func(r *Rank) error {
		first := r.ID() / g * g
		sg := w.Subgroup([]int{first, first + 1})
		rg := w.Subgroup([]int{r.ID() % g, r.ID()%g + g})
		buf := make([]float32, 8)
		if r.ID() == 3 {
			// The victim: issue a shard-group collective it will never
			// Wait (abandoned at exit), then die "mid-step".
			sg.ReduceScatter(r, buf, nil)
			panic(boom)
		}
		defer func() {
			if p := recover(); p == nil {
				t.Errorf("rank %d was not unblocked", r.ID())
			} else if e, ok := p.(error); !ok || !errors.Is(e, ErrAborted) {
				t.Errorf("rank %d panicked with %v, want ErrAborted", r.ID(), p)
			} else {
				sawAborted[r.ID()] = true
				panic(p) // re-raise so Run records the abort
			}
		}()
		// Every survivor has work in flight on both levels: the chained
		// replica all-reduce can only complete if rank 3 participates.
		rs := sg.ReduceScatter(r, buf, nil)
		ar := rg.AllReduce(r, buf[:4], nil, rs)
		rs.Wait()
		ar.Wait()
		// Ranks whose groups exclude rank 3 entirely (rank 0's shard
		// group {0,1} and replica group {0,2}) may get this far; the
		// next world-group collective parks them until the abort.
		w.Group().AllReduce(r, buf[:4], nil, nil).Wait()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the originating error", err)
	}
	for id := 0; id < n-1; id++ {
		if !sawAborted[id] {
			t.Errorf("rank %d completed without observing the abort", id)
		}
	}
}

// TestAsyncFIFOOrdering: operations issued on one group execute in
// issue order — a later all-gather observes the earlier all-reduce's
// result.
func TestAsyncFIFOOrdering(t *testing.T) {
	const n = 3
	w := New(n, Options{})
	err := w.Run(func(r *Rank) error {
		sum := make([]float32, n)
		for i := range sum {
			sum[i] = 1
		}
		gathered := make([]float32, n)
		h1 := w.Group().AllReduce(r, sum, nil, nil)
		// The all-gather contribution reads sum's chunk — legal only
		// because FIFO guarantees h1 ran first. (sum[r] == n after the
		// all-reduce.)
		h2 := w.Group().AllGather(r, gathered, sum[r.ID():r.ID()+1], nil)
		h1.Wait()
		h2.Wait()
		for i, v := range gathered {
			if v != n {
				return fmt.Errorf("rank %d gathered[%d] = %v, want %v", r.ID(), i, v, float32(n))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockingAfterAsyncIsFIFO: a blocking collective issued while an
// overlapped one is still in flight on the same group queues behind
// it, so the buffers are bit-identical to running the two in sequence
// (run under -race: the two collectives share the group's ring edges).
func TestBlockingAfterAsyncIsFIFO(t *testing.T) {
	const n, elems = 4, 32
	inputs := randInputs(rng.New(13), n, elems)
	run := func(overlap bool) (sums, gathers [][]float32) {
		sums, gathers = make([][]float32, n), make([][]float32, n)
		w := New(n, Options{})
		err := w.Run(func(r *Rank) error {
			g := w.Group()
			sum := append([]float32(nil), inputs[r.ID()]...)
			shard := append([]float32(nil), inputs[r.ID()][:elems/n]...)
			gather := make([]float32, elems)
			if overlap {
				h := g.AllReduce(r, sum, nil, nil)
				g.AllGather(r, gather, shard, nil).Wait()
				h.Wait()
			} else {
				g.AllReduce(r, sum, nil, nil).Wait()
				g.AllGather(r, gather, shard, nil).Wait()
			}
			sums[r.ID()], gathers[r.ID()] = sum, gather
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sums, gathers
	}
	seqSum, seqGather := run(false)
	sum, gather := run(true)
	for r := 0; r < n; r++ {
		for i := 0; i < elems; i++ {
			if math.Float32bits(sum[r][i]) != math.Float32bits(seqSum[r][i]) {
				t.Fatalf("rank %d all-reduce elem %d: %v, sequential %v", r, i, sum[r][i], seqSum[r][i])
			}
			if math.Float32bits(gather[r][i]) != math.Float32bits(seqGather[r][i]) {
				t.Fatalf("rank %d all-gather elem %d: %v, sequential %v", r, i, gather[r][i], seqGather[r][i])
			}
		}
	}
}

// TestIssueValidatesOnCaller: a malformed ring collective panics on
// the issuing goroutine, at the call and before any Wait, with the
// validation message — it never reaches a queue worker, so the world
// is not aborted and the next collective still completes.
func TestIssueValidatesOnCaller(t *testing.T) {
	const n = 3
	w := New(n, Options{})
	err := w.Run(func(r *Rank) error {
		g := w.Group()
		cases := []struct {
			name, want string
			issue      func() *Handle
		}{
			{"divisibility", "reduce-scatter buffer length 4 not divisible by group size 3",
				func() *Handle { return g.ReduceScatter(r, make([]float32, 4), nil) }},
			{"wire length", "all-reduce bf16 wire scratch length 3, want 6",
				func() *Handle { return g.AllReduce(r, make([]float32, 6), make([]uint16, 3), nil) }},
			{"shard length", "all-gather shard length 1, want 2",
				func() *Handle { return g.AllGather(r, make([]float32, 6), make([]float32, 1), nil) }},
			{"broadcast root", "broadcast root 3 outside group of 3",
				func() *Handle { return g.Broadcast(r, make([]float32, 2), n) }},
		}
		for _, c := range cases {
			func() {
				defer func() {
					if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), c.want) {
						t.Errorf("rank %d %s: recovered %v, want %q", r.ID(), c.name, p, c.want)
					}
				}()
				h := c.issue()
				t.Errorf("rank %d %s: issued without panicking", r.ID(), c.name)
				h.Wait()
			}()
		}
		buf := []float32{1, 1, 1}
		g.AllReduce(r, buf, nil, nil).Wait()
		if buf[0] != n {
			return fmt.Errorf("rank %d: all-reduce after rejected calls gave %v", r.ID(), buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("rejected calls aborted the world: %v", err)
	}
}

// TestThrottleRealizesModeledTime: with Options.Throttle the executed
// wall-clock of a collective is at least the α–β model's prediction.
func TestThrottleRealizesModeledTime(t *testing.T) {
	link := comm.Params{Bandwidth: 1e6, HopLat: 1e-6, Launch: 1e-5} // 1 MB/s: 64 KiB AR ≈ 0.2 s
	w := New(2, Options{Link: link, Throttle: 1})
	buf := make([]float32, 16384)
	start := time.Now()
	err := w.Run(func(r *Rank) error {
		local := make([]float32, len(buf))
		w.Group().AllReduce(r, local, nil, nil).Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	want := comm.AllReduce(float64(len(buf)*4), 2, link).Time
	if elapsed < want {
		t.Fatalf("throttled all-reduce took %.3fs, model predicts at least %.3fs", elapsed, want)
	}
	if st := w.Stats(); st.AllReduce.ModelTime <= 0 {
		t.Fatalf("no model time recorded: %+v", st.AllReduce)
	}
}

// TestAsyncWorldReuse: queues restart cleanly across Runs of the same
// world.
func TestAsyncWorldReuse(t *testing.T) {
	w := New(2, Options{})
	for run := 0; run < 3; run++ {
		err := w.Run(func(r *Rank) error {
			buf := []float32{1, 2}
			w.Group().AllReduce(r, buf, nil, nil).Wait()
			if buf[0] != 2 {
				return fmt.Errorf("run %d: got %v", run, buf[0])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Stats().AllReduce.Calls; got != 3 {
		t.Fatalf("calls %d, want 3", got)
	}
}
