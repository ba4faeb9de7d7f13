package opt

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// This file provides the flat-tensor view of a parameter set that the
// training loop (internal/train.PretrainDistributed over internal/dist)
// shards collectives and optimizer state on: parameters and gradients
// are packed into one contiguous []float32 in parameter order, padded
// so the flat length divides evenly across ranks (Partition describes
// the shard layout, including HYBRID_SHARD's two-level alignment), and
// a ShardedAdamW instance owns the Adam moments for the flat spans one
// rank updates. It is the training loop's only optimizer: spans tiling
// the whole padded space when the state is replicated, a rank's chunk
// of every gradient bucket under ZeRO-1/ZeRO-3 sharding.

// FlatDim returns the total element count across params — the length
// of the packed flat vector before padding.
func FlatDim(params []*nn.Param) int {
	n := 0
	for _, p := range params {
		n += p.NumEl()
	}
	return n
}

// PadTo rounds n up to the next multiple of world, the length a flat
// buffer must have for uniform ring collectives (internal/dist requires
// collective buffers divisible by the world size).
func PadTo(n, world int) int {
	if world <= 1 {
		return n
	}
	return (n + world - 1) / world * world
}

// Partition is the contiguous equal-shard layout of a flat parameter
// space: Dim packed elements padded to Padded and split into Shards
// shards of ShardLen elements each. It is the unit-partitioning scheme
// the FULL_SHARD and HYBRID_SHARD execution paths shard parameters,
// gradients and optimizer state on.
type Partition struct {
	// Dim is the packed element count (FlatDim of the parameter set).
	Dim int
	// Shards is how many contiguous shards the padded space splits into
	// (the sharding-group size).
	Shards int
	// Padded is Dim rounded up so that every shard is a whole multiple
	// of the alignment quantum — for HYBRID_SHARD the quantum is the
	// full world (shard group × replica group), so the same flat buffer
	// chunks uniformly at both communicator levels.
	Padded int
	// ShardLen is Padded / Shards.
	ShardLen int
}

// NewPartition lays out dim flat elements across `shards` shards,
// padding to a multiple of `align`. align must be a positive multiple
// of shards (use align == shards when there is no second communicator
// level). Pad elements beyond Dim belong to the final shard and carry
// zero gradients and a zero weight-decay mask, so they stay zero
// through training.
func NewPartition(dim, shards, align int) Partition {
	if dim < 0 || shards < 1 {
		panic(fmt.Sprintf("opt: partition of %d elements into %d shards", dim, shards))
	}
	if align < shards || align%shards != 0 {
		panic(fmt.Sprintf("opt: partition alignment %d is not a multiple of %d shards", align, shards))
	}
	p := Partition{Dim: dim, Shards: shards, Padded: PadTo(dim, align)}
	p.ShardLen = p.Padded / shards
	return p
}

// Range returns the flat bounds [lo, hi) of shard i.
func (p Partition) Range(i int) (lo, hi int) {
	if i < 0 || i >= p.Shards {
		panic(fmt.Sprintf("opt: shard %d of %d", i, p.Shards))
	}
	return i * p.ShardLen, (i + 1) * p.ShardLen
}

// Span is one contiguous flat range [Lo, Hi). Bucket-granular
// gradient synchronization (train.PretrainDistributed with gradient
// buckets) shards each bucket independently, so a rank's ownership is
// a list of spans — chunk i of every bucket — rather than one
// contiguous range; the helpers below and ShardedAdamW operate on such
// lists. A single-span list reproduces the contiguous layout exactly.
type Span struct{ Lo, Hi int }

// Len returns the span's element count.
func (s Span) Len() int { return s.Hi - s.Lo }

// SpansLen sums the element counts of spans.
func SpansLen(spans []Span) int {
	n := 0
	for _, s := range spans {
		n += s.Len()
	}
	return n
}

func checkSpans(spans []Span, limit int) {
	prev := 0
	for _, s := range spans {
		if s.Lo < prev || s.Hi < s.Lo || s.Hi > limit {
			panic(fmt.Sprintf("opt: spans %v not ascending and disjoint within [0, %d)", spans, limit))
		}
		prev = s.Hi
	}
}

// ScrubOutsideSpans zeroes buf everywhere outside the given spans
// (ascending, disjoint) — the executed analog of FSDP freeing
// non-owned parameter shards when a unit is resharded after forward:
// the subsequent backward all-gather must genuinely restore the
// dropped values, so a test of the trained trajectory is a test of the
// collective.
func ScrubOutsideSpans(buf []float32, spans []Span) {
	checkSpans(spans, len(buf))
	at := 0
	for _, s := range spans {
		clear(buf[at:s.Lo])
		at = s.Hi
	}
	clear(buf[at:])
}

// GatherSpans copies the spans of src, in order, into the contiguous
// dst (len(dst) must equal SpansLen) — how a rank assembles its
// shard-local gradient/weight buffer from the per-bucket chunks it
// owns in the flat space.
func GatherSpans(dst, src []float32, spans []Span) {
	checkSpans(spans, len(src))
	at := 0
	for _, s := range spans {
		at += copy(dst[at:], src[s.Lo:s.Hi])
	}
	if at != len(dst) {
		panic(fmt.Sprintf("opt: gathered %d elements into a buffer of %d", at, len(dst)))
	}
}

// ScatterSpans is GatherSpans' inverse: the contiguous src is copied
// back out into the spans of dst.
func ScatterSpans(dst, src []float32, spans []Span) {
	checkSpans(spans, len(dst))
	at := 0
	for _, s := range spans {
		at += copy(dst[s.Lo:s.Hi], src[at:])
	}
	if at != len(src) {
		panic(fmt.Sprintf("opt: scattered %d elements from a buffer of %d", at, len(src)))
	}
}

// PackGrads copies every parameter's gradient into dst in parameter
// order. len(dst) must be at least FlatDim; elements beyond the packed
// region are left untouched (a padded tail stays zero if it started
// zero, which keeps ring reductions over the pad exact).
func PackGrads(dst []float32, params []*nn.Param) {
	packTensors(dst, params, func(p *nn.Param) []float32 { return p.Grad.Data })
}

// PackGradsSpan packs only the flat range [lo, hi) of the gradient
// into the same range of dst (a full-size flat buffer), leaving the
// rest of dst untouched — how the overlapped executor packs one
// gradient bucket the moment backward finalizes it, without touching
// ranges whose gradients are still accumulating. Ranges extending past
// FlatDim cover pad elements, which are never written (they stay
// zero).
func PackGradsSpan(dst []float32, params []*nn.Param, lo, hi int) {
	if lo < 0 || hi < lo || hi > len(dst) {
		panic(fmt.Sprintf("opt: pack span [%d, %d) of %d", lo, hi, len(dst)))
	}
	off := 0
	for _, p := range params {
		d := p.Grad.Data
		if off >= hi {
			break
		}
		if off+len(d) > lo {
			s := max(off, lo)
			e := min(off+len(d), hi)
			copy(dst[s:e], d[s-off:e-off])
		}
		off += len(d)
	}
}

// PackValues copies every parameter's value into dst in parameter
// order.
func PackValues(dst []float32, params []*nn.Param) {
	packTensors(dst, params, func(p *nn.Param) []float32 { return p.Value.Data })
}

// UnpackValues copies the packed flat values back into every
// parameter's value tensor.
func UnpackValues(params []*nn.Param, src []float32) {
	unpackTensors(src, params, func(p *nn.Param) []float32 { return p.Value.Data })
}

func packTensors(dst []float32, params []*nn.Param, field func(*nn.Param) []float32) {
	off := 0
	for _, p := range params {
		d := field(p)
		if off+len(d) > len(dst) {
			panic(fmt.Sprintf("opt: flat buffer length %d < FlatDim %d", len(dst), FlatDim(params)))
		}
		copy(dst[off:], d)
		off += len(d)
	}
}

func unpackTensors(src []float32, params []*nn.Param, field func(*nn.Param) []float32) {
	off := 0
	for _, p := range params {
		d := field(p)
		if off+len(d) > len(src) {
			panic(fmt.Sprintf("opt: flat buffer length %d < FlatDim %d", len(src), FlatDim(params)))
		}
		copy(d, src[off:off+len(d)])
		off += len(d)
	}
}

// ShardedAdamW is AdamW restricted to a list of owned flat spans —
// the ZeRO-1 optimizer when the spans are one rank's shard: each rank
// holds the first and second Adam moments only for its own spans,
// updates only those elements of the flat weights, and the ranks'
// updated shards are re-assembled with an all-gather. With spans
// tiling [0, padded) it is the replicated optimizer. The update
// arithmetic is identical, element for element, to AdamW.Step,
// including the per-parameter NoWeightDecay exclusions (captured at
// construction as a 0/1 decay mask over the spans) and the shared step
// count for bias correction. Spans may extend past FlatDim into
// padding; pad elements carry a zero decay mask and zero gradients, so
// they stay zero.
type ShardedAdamW struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	// m, v and decay are in shard-local coordinates: the concatenation
	// of the owned spans in order.
	m, v  []float32
	decay []float32 // 1 where decoupled weight decay applies, else 0
	t     int
}

// NewShardedAdamWSpans constructs the optimizer for the given owned
// flat spans (ascending, disjoint), with the same hyper-parameters as
// NewAdamW (β₁=0.9, β₂=0.95, ε=1e-8). Moments and the weight-decay
// mask live in shard-local coordinates: the concatenation of the spans
// in order, exactly the layout GatherSpans produces.
func NewShardedAdamWSpans(params []*nn.Param, weightDecay float64, spans []Span) *ShardedAdamW {
	if len(spans) == 0 {
		panic("opt: sharded adamw with no spans")
	}
	checkSpans(spans, spans[len(spans)-1].Hi)
	total := SpansLen(spans)
	a := &ShardedAdamW{
		Beta1: adamwBeta1, Beta2: adamwBeta2, Eps: adamwEps,
		WeightDecay: weightDecay,
		m:           make([]float32, total),
		v:           make([]float32, total),
		decay:       make([]float32, total),
	}
	off := 0
	for _, p := range params {
		n := p.NumEl()
		if !p.NoWeightDecay {
			local := 0
			for _, sp := range spans {
				// Mark the overlap of [off, off+n) with the span, in
				// shard-local coordinates.
				s, e := max(off, sp.Lo), min(off+n, sp.Hi)
				for i := s; i < e; i++ {
					a.decay[local+i-sp.Lo] = 1
				}
				local += sp.Len()
			}
		}
		off += n
	}
	return a
}

// StepCount returns how many updates have been applied.
func (a *ShardedAdamW) StepCount() int { return a.t }

// SetStep overrides the step counter (resuming from a checkpoint).
func (a *ShardedAdamW) SetStep(t int) { a.t = t }

// CopyMoments writes the shard's Adam moments into dstM and dstV, for
// checkpointing. Destinations shorter than the owned length receive a
// prefix.
func (a *ShardedAdamW) CopyMoments(dstM, dstV []float32) {
	copy(dstM, a.m)
	copy(dstV, a.v)
}

// RestoreMoments loads the shard's Adam moments from srcM and srcV,
// resuming from a checkpoint. Sources shorter than the owned length
// fill a prefix and leave the rest untouched.
func (a *ShardedAdamW) RestoreMoments(srcM, srcV []float32) {
	copy(a.m, srcM)
	copy(a.v, srcV)
}

// Step applies one AdamW update to the owned spans: w and g are the
// flat weight and (already averaged) flat gradient in shard-local
// order — the flat buffers themselves when the spans tile
// [0, padded), the GatherSpans concatenations otherwise.
func (a *ShardedAdamW) Step(lr float64, w, g []float32) {
	if len(w) != len(a.m) || len(g) != len(a.m) {
		panic(fmt.Sprintf("opt: sharded adamw got %d weights / %d grads for shard of %d",
			len(w), len(g), len(a.m)))
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	adamwApply(w, g, a.m, a.v,
		float32(a.Beta1), float32(a.Beta2), bc1, bc2, lr, a.Eps,
		float32(lr*a.WeightDecay), a.decay)
}
