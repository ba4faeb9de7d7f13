package dist

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// refSum returns the sequential element-wise sum of the per-rank
// inputs, accumulated in rank order — the reference every collective is
// held to.
func refSum(inputs [][]float32) []float64 {
	out := make([]float64, len(inputs[0]))
	for _, in := range inputs {
		for j, v := range in {
			out[j] += float64(v)
		}
	}
	return out
}

// randInputs draws n random per-rank vectors of the given length.
func randInputs(r *rng.RNG, n, length int) [][]float32 {
	ins := make([][]float32, n)
	for i := range ins {
		ins[i] = make([]float32, length)
		r.FillUniform(ins[i], -1, 1)
	}
	return ins
}

// tolerance for comparing a ring reduction (ring order) against the
// sequential reference (rank order): both sum the same n float32
// values, only the association differs.
func closeEnough(got float32, want float64) bool {
	return math.Abs(float64(got)-want) <= 1e-4*(1+math.Abs(want))
}

func TestAllReduceMatchesReference(t *testing.T) {
	r := rng.New(42)
	for n := 1; n <= 8; n++ {
		for _, elems := range []int{n, 4 * n, 16 * n} {
			inputs := randInputs(r, n, elems)
			want := refSum(inputs)
			outs := make([][]float32, n)
			w := New(n, Options{})
			err := w.Run(func(rk *Rank) error {
				buf := append([]float32(nil), inputs[rk.ID()]...)
				w.Group().AllReduce(rk, buf, nil, nil).Wait()
				outs[rk.ID()] = buf
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, out := range outs {
				for j := range out {
					if !closeEnough(out[j], want[j]) {
						t.Fatalf("n=%d elems=%d rank=%d elem %d: got %v want %v",
							n, elems, rank, j, out[j], want[j])
					}
				}
			}
			// Every rank must hold the bit-identical result.
			for rank := 1; rank < n; rank++ {
				for j := range outs[0] {
					if outs[rank][j] != outs[0][j] {
						t.Fatalf("n=%d: ranks 0 and %d disagree at %d", n, rank, j)
					}
				}
			}
		}
	}
}

func TestReduceScatterMatchesReference(t *testing.T) {
	r := rng.New(7)
	for n := 1; n <= 8; n++ {
		elems := 8 * n
		inputs := randInputs(r, n, elems)
		want := refSum(inputs)
		shards := make([][]float32, n)
		w := New(n, Options{})
		err := w.Run(func(rk *Rank) error {
			buf := append([]float32(nil), inputs[rk.ID()]...)
			shard := w.Group().ReduceScatter(rk, buf, nil).Wait()
			shards[rk.ID()] = append([]float32(nil), shard...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cs := elems / n
		for rank, shard := range shards {
			if len(shard) != cs {
				t.Fatalf("n=%d rank=%d shard length %d want %d", n, rank, len(shard), cs)
			}
			for j, v := range shard {
				if !closeEnough(v, want[rank*cs+j]) {
					t.Fatalf("n=%d rank=%d elem %d: got %v want %v", n, rank, j, v, want[rank*cs+j])
				}
			}
		}
	}
}

func TestAllGatherMatchesReference(t *testing.T) {
	r := rng.New(9)
	for n := 1; n <= 8; n++ {
		cs := 5
		inputs := randInputs(r, n, cs)
		outs := make([][]float32, n)
		w := New(n, Options{})
		err := w.Run(func(rk *Rank) error {
			buf := make([]float32, n*cs)
			w.Group().AllGather(rk, buf, inputs[rk.ID()], nil).Wait()
			outs[rk.ID()] = buf
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank, out := range outs {
			for c := 0; c < n; c++ {
				for j := 0; j < cs; j++ {
					if out[c*cs+j] != inputs[c][j] {
						t.Fatalf("n=%d rank=%d chunk=%d elem %d: got %v want %v",
							n, rank, c, j, out[c*cs+j], inputs[c][j])
					}
				}
			}
		}
	}
}

func TestBroadcast(t *testing.T) {
	r := rng.New(11)
	for n := 1; n <= 8; n++ {
		for root := 0; root < n; root += max(1, n-1) { // first and last
			payload := make([]float32, 13)
			r.FillUniform(payload, -2, 2)
			outs := make([][]float32, n)
			w := New(n, Options{})
			err := w.Run(func(rk *Rank) error {
				buf := make([]float32, len(payload))
				if rk.ID() == root {
					copy(buf, payload)
				}
				w.Group().Broadcast(rk, buf, root).Wait()
				outs[rk.ID()] = buf
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, out := range outs {
				for j := range out {
					if out[j] != payload[j] {
						t.Fatalf("n=%d root=%d rank=%d elem %d: got %v want %v",
							n, root, rank, j, out[j], payload[j])
					}
				}
			}
		}
	}
}

func TestAllReduceScalar(t *testing.T) {
	for n := 1; n <= 8; n++ {
		outs := make([]float64, n)
		w := New(n, Options{})
		err := w.Run(func(rk *Rank) error {
			outs[rk.ID()] = w.Group().AllReduceScalar(rk, float64(rk.ID()+1))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n*(n+1)) / 2
		for rank, got := range outs {
			if got != want {
				t.Fatalf("n=%d rank=%d: got %v want %v", n, rank, got, want)
			}
		}
	}
}

// TestSequencedCollectives chains several collectives back to back to
// exercise the per-edge handshake across calls (a regression guard for
// view-reuse races; run with -race).
func TestSequencedCollectives(t *testing.T) {
	const n = 4
	const elems = 32
	r := rng.New(5)
	inputs := randInputs(r, n, elems)
	want := refSum(inputs)
	w := New(n, Options{})
	outs := make([][]float32, n)
	err := w.Run(func(rk *Rank) error {
		buf := append([]float32(nil), inputs[rk.ID()]...)
		for iter := 0; iter < 10; iter++ {
			w.Group().AllReduce(rk, buf, nil, nil).Wait()
			shard := w.Group().ReduceScatter(rk, buf, nil).Wait()
			w.Group().AllGather(rk, buf, append([]float32(nil), shard...), nil).Wait()
			w.Group().Broadcast(rk, buf, iter%n).Wait()
			w.Group().Barrier(rk)
			copy(buf, inputs[rk.ID()])
		}
		w.Group().AllReduce(rk, buf, nil, nil).Wait()
		outs[rk.ID()] = buf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < n; rank++ {
		for j := range outs[rank] {
			if !closeEnough(outs[rank][j], want[j]) {
				t.Fatalf("rank=%d elem %d: got %v want %v", rank, j, outs[rank][j], want[j])
			}
		}
	}
}

// TestStatsAccounting pins the measured per-rank wire bytes to the ring
// formulas the α–β model prices: (n−1)/n·V for reduce-scatter and
// all-gather, 2(n−1)/n·V for all-reduce, V for broadcast.
func TestStatsAccounting(t *testing.T) {
	const n = 4
	const elems = 64 // divisible by n
	w := New(n, Options{})
	err := w.Run(func(rk *Rank) error {
		buf := make([]float32, elems)
		w.Group().AllReduce(rk, buf, nil, nil).Wait()
		w.Group().ReduceScatter(rk, buf, nil).Wait()
		w.Group().AllGather(rk, buf, nil, nil).Wait()
		w.Group().Broadcast(rk, buf, 0).Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	bytes := float64(elems * 4)
	frac := float64(n-1) / float64(n)
	cases := []struct {
		name     string
		got      OpStats
		wantWire float64
	}{
		{"all-reduce", s.AllReduce, 2 * frac * bytes},
		{"reduce-scatter", s.ReduceScatter, frac * bytes},
		{"all-gather", s.AllGather, frac * bytes},
		{"broadcast", s.Broadcast, bytes},
	}
	for _, c := range cases {
		if c.got.Calls != 1 {
			t.Errorf("%s: calls=%d", c.name, c.got.Calls)
		}
		if c.got.MeasuredWireBytes != c.wantWire {
			t.Errorf("%s: measured %v bytes, ring formula %v", c.name, c.got.MeasuredWireBytes, c.wantWire)
		}
		if c.got.ModelWireBytes != c.wantWire {
			t.Errorf("%s: modeled %v bytes, ring formula %v", c.name, c.got.ModelWireBytes, c.wantWire)
		}
		if c.got.ModelTime <= 0 {
			t.Errorf("%s: modeled time %v", c.name, c.got.ModelTime)
		}
	}
	if s.World != n {
		t.Errorf("stats world = %d", s.World)
	}
}

func TestDivisibilityPanics(t *testing.T) {
	w := New(3, Options{})
	err := w.Run(func(rk *Rank) error {
		if rk.ID() == 0 {
			defer func() { recover() }()
			w.Group().AllReduce(rk, make([]float32, 4), nil, nil).Wait() // 4 % 3 != 0 → panics at issue on every rank
			return nil
		}
		defer func() { recover() }()
		w.Group().AllReduce(rk, make([]float32, 4), nil, nil).Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanics(t *testing.T) {
	w := New(2, Options{})
	err := w.Run(func(rk *Rank) error {
		if rk.ID() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected the panic's error, got %v", err)
	}
}

// TestAbortUnblocksPeers: a rank dying while its peers are parked in a
// collective (or barrier) must surface the original failure, not
// deadlock the world.
func TestAbortUnblocksPeers(t *testing.T) {
	w := New(3, Options{})
	err := w.Run(func(rk *Rank) error {
		if rk.ID() == 1 {
			panic("boom")
		}
		buf := make([]float32, 6)
		w.Group().AllReduce(rk, buf, nil, nil).Wait() // would hang forever without the abort path
		w.Group().Barrier(rk)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected the originating panic, got %v", err)
	}

	// An error return aborts too, and wins over the secondary ErrAborted.
	w2 := New(2, Options{})
	err = w2.Run(func(rk *Rank) error {
		if rk.ID() == 0 {
			return errors.New("rank 0 failed")
		}
		w.Group().Barrier(rk)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 failed") {
		t.Fatalf("expected rank 0's error, got %v", err)
	}
}
