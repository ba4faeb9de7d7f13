package dist

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// bf16AllReduceRef computes what the bf16 ring all-reduce must produce
// for a given element: the ring reduce-scatter widens each incoming
// bf16 partial and accumulates in fp32 along a fixed order, then the
// all-gather rounds the final sum once. For inputs that are already
// bf16-valued the partials stay exactly representable, so the reference
// is simply round(Σ) when every partial fits — the tests below feed
// bf16-valued inputs to keep the oracle exact.
func bf16Round(x float32) float32 { return tensor.F32FromBF16(tensor.BF16FromF32(x)) }

// scalePow2 varies magnitudes across a buffer without sacrificing bf16
// exactness: powers of two only shift the exponent.
func scalePow2(i int) float32 { return float32(math.Ldexp(1, i%3-1)) }

// TestAllReduceBF16SumAndHalfBytes: the bf16 all-reduce over bf16-valued
// contributions produces the exact rounded sum on every rank, while the
// measured wire bytes are exactly half of what the fp32 all-reduce
// moves for the same buffer.
func TestAllReduceBF16SumAndHalfBytes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		const elems = 64 * 3 * 5 // divisible by every n above
		// fp32 baseline for the byte comparison.
		wFP := New(n, Options{})
		if err := wFP.Run(func(r *Rank) error {
			buf := make([]float32, elems)
			for i := range buf {
				buf[i] = float32(r.ID() + 1)
			}
			wFP.Group().AllReduce(r, buf, nil, nil).Wait()
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		w := New(n, Options{})
		results := make([][]float32, n)
		err := w.Run(func(r *Rank) error {
			buf := make([]float32, elems)
			for i := range buf {
				// Small integers scaled by powers of two: every partial
				// sum the ring forms (≤ 36·2) fits bf16's 8-bit
				// significand exactly, so the oracle below is exact.
				buf[i] = float32(r.ID()+1) * scalePow2(i)
			}
			wire := make([]uint16, elems)
			w.Group().AllReduce(r, buf, wire, nil).Wait()
			results[r.ID()] = buf
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Expected: Σ ranks elementwise, exact at every intermediate.
		sum := n * (n + 1) / 2
		for i, v := range results[0] {
			want := float32(sum) * scalePow2(i)
			if v != want {
				t.Fatalf("n=%d: all-reduce[%d] = %v, want %v", n, i, v, want)
			}
		}
		for rank := 1; rank < n; rank++ {
			for i := range results[rank] {
				if math.Float32bits(results[rank][i]) != math.Float32bits(results[0][i]) {
					t.Fatalf("n=%d: rank %d differs from rank 0 at %d", n, rank, i)
				}
			}
		}
		got := w.Stats().AllReduce
		want := wFP.Stats().AllReduce
		if got.MeasuredWireBytes*2 != want.MeasuredWireBytes {
			t.Fatalf("n=%d: bf16 AR moved %v bytes, fp32 moved %v (want exactly half)",
				n, got.MeasuredWireBytes, want.MeasuredWireBytes)
		}
		if got.ModelWireBytes != got.MeasuredWireBytes {
			t.Fatalf("n=%d: modeled %v != measured %v", n, got.ModelWireBytes, got.MeasuredWireBytes)
		}
	}
}

// TestReduceScatterBF16FP32Accumulation: the reduction accumulates in
// fp32 — contributions that would each round to zero relative to a
// large partner in bf16-sized steps still add up exactly when they are
// bf16-representable, and the owner's shard is returned as a view.
func TestReduceScatterBF16FP32Accumulation(t *testing.T) {
	const n = 4
	const elems = 8 * n
	w := New(n, Options{})
	shards := make([][]float32, n)
	err := w.Run(func(r *Rank) error {
		buf := make([]float32, elems)
		for i := range buf {
			buf[i] = bf16Round(0.25 * float32(r.ID()+1))
		}
		wire := make([]uint16, elems)
		shard := w.Group().ReduceScatter(r, buf, wire).Wait()
		if len(shard) != elems/n {
			t.Errorf("shard length %d", len(shard))
		}
		out := make([]float32, len(shard))
		copy(out, shard)
		shards[r.ID()] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, s := range shards {
		for i, v := range s {
			if v != 2.5 { // 0.25·(1+2+3+4)
				t.Fatalf("rank %d shard[%d] = %v, want 2.5", rank, i, v)
			}
		}
	}
}

// TestAllGatherBF16RoundsOwnChunk: after the bf16 all-gather every rank
// holds the identical bf16-valued buffer — including the contributing
// rank's own chunk, which must be rewritten with its rounded image.
func TestAllGatherBF16RoundsOwnChunk(t *testing.T) {
	const n = 4
	const elems = 4 * n
	w := New(n, Options{})
	results := make([][]float32, n)
	err := w.Run(func(r *Rank) error {
		buf := make([]float32, elems)
		shard := make([]float32, elems/n)
		for i := range shard {
			// Not bf16-representable: forces a visible rounding step.
			shard[i] = 1 + float32(r.ID()+1)*1e-3
		}
		wire := make([]uint16, elems)
		w.Group().AllGather(r, buf, shard, wire).Wait()
		results[r.ID()] = buf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < n; rank++ {
		for c := 0; c < n; c++ {
			want := bf16Round(1 + float32(c+1)*1e-3)
			for i := 0; i < elems/n; i++ {
				got := results[rank][c*elems/n+i]
				if got != want {
					t.Fatalf("rank %d chunk %d[%d] = %v, want rounded %v", rank, c, i, got, want)
				}
			}
		}
	}
}

// TestBF16SubgroupCollectives: the bf16 wire mode runs on subgroup
// communicators too, concurrently across disjoint groups, with bytes
// accounted to the sending world rank.
func TestBF16SubgroupCollectives(t *testing.T) {
	const n = 4
	w := New(n, Options{})
	results := make([]float32, n)
	err := w.Run(func(r *Rank) error {
		half := []int{0, 1}
		if r.ID() >= 2 {
			half = []int{2, 3}
		}
		g := w.Subgroup(half)
		buf := make([]float32, 8)
		for i := range buf {
			buf[i] = float32(r.ID() + 1)
		}
		wire := make([]uint16, 8)
		g.AllReduce(r, buf, wire, nil).Wait()
		results[r.ID()] = buf[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, got := range results {
		want := float32(3) // 1+2
		if rank >= 2 {
			want = 7 // 3+4
		}
		if got != want {
			t.Fatalf("rank %d got %v, want %v", rank, got, want)
		}
	}
}

// TestBF16WireValidation: a wire scratch of the wrong length is a
// programming error and must fail fast, not silently corrupt chunks.
func TestBF16WireValidation(t *testing.T) {
	w := New(2, Options{})
	err := w.Run(func(r *Rank) error {
		defer func() {
			if recover() == nil {
				t.Error("short wire scratch accepted")
			}
			// Poison the world so the peer unblocks rather than waiting
			// on a collective that will never happen.
			w.doAbort()
		}()
		w.Group().AllReduce(r, make([]float32, 8), make([]uint16, 4), nil).Wait()
		return nil
	})
	if err != nil && err != ErrAborted {
		t.Fatal(err)
	}
}

// TestBF16Deterministic: two identical runs produce bit-identical
// results — the rounding points are fixed by the ring schedule.
func TestBF16Deterministic(t *testing.T) {
	run := func() []float32 {
		w := New(4, Options{})
		var out []float32
		err := w.Run(func(r *Rank) error {
			buf := make([]float32, 32)
			for i := range buf {
				buf[i] = float32(math.Sin(float64(i*(r.ID()+3)))) * 1.7
			}
			wire := make([]uint16, 32)
			w.Group().AllReduce(r, buf, wire, nil).Wait()
			if r.ID() == 0 {
				out = append([]float32(nil), buf...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
