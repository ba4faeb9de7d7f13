package opt

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

func randParams(r *rng.RNG) []*nn.Param {
	shapes := [][]int{{3, 5}, {7}, {2, 2, 2}, {11}}
	var ps []*nn.Param
	for i, s := range shapes {
		p := nn.NewParam("p", s...)
		r.FillUniform(p.Value.Data, -1, 1)
		r.FillUniform(p.Grad.Data, -0.1, 0.1)
		if i%2 == 1 {
			p.NoWeightDecay = true
		}
		ps = append(ps, p)
	}
	return ps
}

func TestPackUnpackRoundTrip(t *testing.T) {
	r := rng.New(3)
	ps := randParams(r)
	dim := FlatDim(ps)
	if want := 15 + 7 + 8 + 11; dim != want {
		t.Fatalf("FlatDim=%d want %d", dim, want)
	}
	flat := make([]float32, PadTo(dim, 4))
	PackValues(flat, ps)
	// Mutate the params, then restore from the flat copy.
	orig := append([]float32(nil), flat[:dim]...)
	for _, p := range ps {
		for i := range p.Value.Data {
			p.Value.Data[i] = -99
		}
	}
	UnpackValues(ps, flat)
	check := make([]float32, dim)
	PackValues(check, ps)
	for i := range check {
		if check[i] != orig[i] {
			t.Fatalf("value round trip differs at %d", i)
		}
	}

	PackGrads(flat, ps)
	off := 0
	for _, p := range ps {
		for i, g := range p.Grad.Data {
			if flat[off+i] != g {
				t.Fatalf("packed gradient differs at %d", off+i)
			}
		}
		off += p.NumEl()
	}
}

func TestPadTo(t *testing.T) {
	cases := []struct{ n, world, want int }{
		{10, 1, 10}, {10, 4, 12}, {12, 4, 12}, {0, 4, 0}, {1, 8, 8},
	}
	for _, c := range cases {
		if got := PadTo(c.n, c.world); got != c.want {
			t.Fatalf("PadTo(%d,%d)=%d want %d", c.n, c.world, got, c.want)
		}
	}
}

// TestShardedAdamWMatchesAdamW drives AdamW and a set of single-span
// ShardedAdamW instances covering the flat space with identical
// gradients and checks the resulting weights are bit-identical — the
// ZeRO-1 invariant that sharding optimizer state must not change the
// update. World 1 is the replicated optimizer: one span over the whole
// padded space.
func TestShardedAdamWMatchesAdamW(t *testing.T) {
	for _, world := range []int{1, 4} {
		testShardedAdamWMatchesAdamW(t, world)
	}
}

func testShardedAdamWMatchesAdamW(t *testing.T, world int) {
	const steps = 5
	const wd = 0.05

	ref := randParams(rng.New(17))
	shard := randParams(rng.New(17)) // identical initial state

	refOpt := NewAdamW(ref, wd)

	dim := FlatDim(shard)
	padded := PadTo(dim, world)
	flatW := make([]float32, padded)
	flatG := make([]float32, padded)
	PackValues(flatW, shard)
	shardLen := padded / world
	var opts []*ShardedAdamW
	for k := 0; k < world; k++ {
		opts = append(opts, NewShardedAdamWSpans(shard, wd, []Span{{k * shardLen, (k + 1) * shardLen}}))
	}

	r := rng.New(23)
	for s := 0; s < steps; s++ {
		// Fresh identical gradients on both sides.
		for i, p := range ref {
			r.FillUniform(p.Grad.Data, -0.2, 0.2)
			copy(shard[i].Grad.Data, p.Grad.Data)
		}
		lr := 0.01 * float64(s+1)
		refOpt.Step(lr)

		PackGrads(flatG, shard)
		for k, o := range opts {
			lo, hi := k*shardLen, (k+1)*shardLen
			o.Step(lr, flatW[lo:hi], flatG[lo:hi])
		}
	}
	UnpackValues(shard, flatW)
	for i := range ref {
		for j := range ref[i].Value.Data {
			if ref[i].Value.Data[j] != shard[i].Value.Data[j] {
				t.Fatalf("world %d: param %d elem %d: AdamW %v, sharded %v",
					world, i, j, ref[i].Value.Data[j], shard[i].Value.Data[j])
			}
		}
	}
	// Padding must have stayed zero.
	for i := dim; i < padded; i++ {
		if flatW[i] != 0 {
			t.Fatalf("world %d: pad element %d became %v", world, i, flatW[i])
		}
	}
}

// TestPackGradsSpanMatchesFullPack: packing any aligned sub-range must
// write exactly the same bytes PackGrads writes there, and nothing
// outside it — including param boundaries that straddle the span edges.
func TestPackGradsSpanMatchesFullPack(t *testing.T) {
	r := rng.New(5)
	ps := randParams(r)
	dim := FlatDim(ps)
	padded := PadTo(dim, 4)
	full := make([]float32, padded)
	PackGrads(full, ps)
	for _, span := range []Span{{0, padded}, {0, 8}, {8, 24}, {13, 29}, {dim - 3, padded}, {7, 7}} {
		got := make([]float32, padded)
		for i := range got {
			got[i] = -77 // sentinel: untouched outside the span
		}
		PackGradsSpan(got, ps, span.Lo, span.Hi)
		for i := range got {
			in := i >= span.Lo && i < span.Hi && i < dim
			switch {
			case in && got[i] != full[i]:
				t.Fatalf("span %v: element %d = %v, want %v", span, i, got[i], full[i])
			case !in && got[i] != -77:
				t.Fatalf("span %v: element %d outside the span was written", span, i)
			}
		}
	}
}

// TestSpanHelpers: gather/scatter round-trip and scrub over
// bucket-granular ownership.
func TestSpanHelpers(t *testing.T) {
	buf := make([]float32, 16)
	for i := range buf {
		buf[i] = float32(i + 1)
	}
	spans := []Span{{2, 5}, {8, 10}, {15, 16}}
	if got := SpansLen(spans); got != 6 {
		t.Fatalf("SpansLen=%d want 6", got)
	}
	shard := make([]float32, 6)
	GatherSpans(shard, buf, spans)
	want := []float32{3, 4, 5, 9, 10, 16}
	for i := range want {
		if shard[i] != want[i] {
			t.Fatalf("gathered[%d]=%v want %v", i, shard[i], want[i])
		}
	}
	for i := range shard {
		shard[i] *= 10
	}
	out := append([]float32(nil), buf...)
	ScatterSpans(out, shard, spans)
	for i, v := range out {
		owned := (i >= 2 && i < 5) || (i >= 8 && i < 10) || i == 15
		if owned && v != buf[i]*10 {
			t.Fatalf("scatter missed owned element %d: %v", i, v)
		}
		if !owned && v != buf[i] {
			t.Fatalf("scatter touched unowned element %d", i)
		}
	}
	ScrubOutsideSpans(out, spans)
	for i, v := range out {
		owned := (i >= 2 && i < 5) || (i >= 8 && i < 10) || i == 15
		if !owned && v != 0 {
			t.Fatalf("scrub left unowned element %d = %v", i, v)
		}
		if owned && v == 0 {
			t.Fatalf("scrub zeroed owned element %d", i)
		}
	}
}

// TestShardedAdamWSpansMatchesContiguous: a spans optimizer over chunk
// idx of every bucket must update exactly the same flat elements to
// exactly the same values as running AdamW over the whole space and
// reading off those elements — including the NoWeightDecay mask across
// straddled parameter boundaries and the shared bias-correction step.
func TestShardedAdamWSpansMatchesContiguous(t *testing.T) {
	r := rng.New(11)
	ps := randParams(r)
	dim := FlatDim(ps)
	padded := PadTo(dim, 8) // 2 buckets × 4-way chunking
	const buckets, shards = 2, 4
	be := padded / buckets
	cl := be / shards
	flatW := make([]float32, padded)
	flatG := make([]float32, padded)
	PackValues(flatW, ps)
	PackGrads(flatG, ps)

	// Reference: full-range sharded AdamW (proven equal to AdamW by
	// TestShardedAdamWMatchesAdamW).
	refW := append([]float32(nil), flatW...)
	refG := append([]float32(nil), flatG...)
	ref := NewShardedAdamWSpans(ps, 0.05, []Span{{0, padded}})
	for step := 0; step < 3; step++ {
		ref.Step(1e-2, refW, refG)
	}

	for idx := 0; idx < shards; idx++ {
		spans := []Span{}
		for b := 0; b < buckets; b++ {
			lo := b*be + idx*cl
			spans = append(spans, Span{lo, lo + cl})
		}
		opt := NewShardedAdamWSpans(ps, 0.05, spans)
		w := make([]float32, SpansLen(spans))
		g := make([]float32, SpansLen(spans))
		GatherSpans(w, flatW, spans)
		GatherSpans(g, flatG, spans)
		for step := 0; step < 3; step++ {
			opt.Step(1e-2, w, g)
		}
		want := make([]float32, SpansLen(spans))
		GatherSpans(want, refW, spans)
		for i := range want {
			if w[i] != want[i] {
				t.Fatalf("shard %d local element %d: spans update %v, reference %v", idx, i, w[i], want[i])
			}
		}
	}
}
