package train

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// This file implements executed communication–computation overlap: the
// flat gradient space is split into wire buckets, the layer-granular
// backward (mae.BackwardStepLayers) reports each unit's gradients the
// moment they are final, and the engine launches the covering buckets'
// collectives on internal/dist's issue queues while the
// remaining layers keep computing — FSDP's per-unit overlapped
// reduce-scatter, executed. With Overlap off the identical operations
// run at the identical points but are waited immediately, so the two
// schedules are bit-for-bit the same trajectory and move exactly the
// same bytes; only wall-clock (and its compute/exposed-comm
// decomposition) differs.

// gradBucket is one wire bucket of the padded flat gradient.
type gradBucket struct {
	span  opt.Span // flat range [Lo, Hi), a multiple of the world size long
	piece opt.Span // this rank's owned part: its chunk when sharded, the whole span when replicated
}

// makeBuckets tiles [0, padded) with spans of bucketElems (the last
// may be shorter; all lengths stay multiples of the alignment since
// both padded and bucketElems are).
func makeBuckets(padded, bucketElems int) []opt.Span {
	var spans []opt.Span
	for off := 0; off < padded; off += bucketElems {
		end := off + bucketElems
		if end > padded {
			end = padded
		}
		spans = append(spans, opt.Span{Lo: off, Hi: end})
	}
	return spans
}

// bucketElemsFor resolves the gradient bucket size in flat elements,
// rounded to a multiple of the world size so every bucket ring-chunks
// uniformly at both communicator levels. Precedence: an explicit
// DistConfig.BucketBytes covers every strategy; otherwise DDP keeps
// its plan-level bucket size (wire bytes, so bf16 buckets hold twice
// the elements) and the sharded strategies default to one whole-buffer
// bucket — the pre-overlap schedule.
func bucketElemsFor(bucketBytes int, ddpBucketBytes float64, isDDP bool, wireBytes, n, padded int) int {
	elems := padded
	switch {
	case bucketBytes > 0:
		elems = bucketBytes / wireBytes / n * n
	case isDDP && n > 1:
		elems = int(ddpBucketBytes) / wireBytes / n * n
	}
	if elems < n {
		elems = n
	}
	return elems
}

// phaseTimer decomposes rank 0's step wall-clock: time spent blocked
// inside per-step collectives (or waiting on their handles) is exposed
// communication; the rest of the loop is compute (+ input pipeline).
// Ranks other than 0 carry a nil timer.
type phaseTimer struct {
	exposed time.Duration
}

func (t *phaseTimer) comm(f func()) {
	if t == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.exposed += time.Since(t0)
}

// syncEngine drives one rank's per-step gradient synchronization:
// bucket launches during backward, the wait barrier before
// clipping/optimizer, and the parameter all-gathers after it.
type syncEngine struct {
	r       *dist.Rank
	mode    execMode
	overlap bool

	gradGroup *dist.Group // collective group for gradient buckets (world for replicated, shard group otherwise)
	replGroup *dist.Group // HYBRID replica-dimension all-reduce (nil otherwise)

	buckets  []gradBucket
	spans    []opt.Span // owned pieces, ascending (tiling [0, padded) when replicated)
	shardLen int

	params []*nn.Param
	flatG  []float32
	wire   []uint16 // bf16 wire scratch; nil selects the fp32 wire

	segStart []int // flat frontier after each backward segment

	// timer is rank 0's exposed-communication stopwatch (nil on other
	// ranks); wired at construction so even collectives issued before
	// the first beginStep — the resharded schedule's first backward
	// re-gather — are accounted.
	timer *phaseTimer

	// per-step state
	gScale     float32
	scaleGrads bool
	next       int
	handles    []*dist.Handle
}

// newSyncEngine builds the bucket layout and validates the model's
// backward-segment contract against the flat packing order.
func newSyncEngine(r *dist.Rank, model *mae.Model, params []*nn.Param,
	mode execMode, overlap bool,
	gradGroup, replGroup *dist.Group, group int,
	flatG []float32, wire []uint16, timer *phaseTimer, bucketElems int) (*syncEngine, error) {

	padded := len(flatG)
	e := &syncEngine{
		r: r, mode: mode, overlap: overlap,
		gradGroup: gradGroup, replGroup: replGroup,
		params: params, flatG: flatG, wire: wire, timer: timer,
	}
	for _, sp := range makeBuckets(padded, bucketElems) {
		piece := sp
		if mode != execReplicated {
			cl := sp.Len() / group
			idx := gradGroup.RankOf(r)
			piece = opt.Span{Lo: sp.Lo + idx*cl, Hi: sp.Lo + (idx+1)*cl}
		}
		e.buckets = append(e.buckets, gradBucket{span: sp, piece: piece})
		e.spans = append(e.spans, piece)
		e.shardLen += piece.Len()
	}

	// Map backward segments onto the flat space: completion events walk
	// the frontier down from dim to 0, so each segment must sit
	// immediately below its predecessor.
	dim := opt.FlatDim(params)
	offs := make(map[*nn.Param]int, len(params))
	off := 0
	for _, p := range params {
		offs[p] = off
		off += p.NumEl()
	}
	cursor := dim
	for k, seg := range model.BackwardSegments() {
		lo, total := cursor, 0
		for _, p := range seg {
			po, ok := offs[p]
			if !ok {
				return nil, fmt.Errorf("train: backward segment %d holds an unknown parameter %q", k, p.Name)
			}
			if po < lo {
				lo = po
			}
			total += p.NumEl()
		}
		if lo+total != cursor {
			return nil, fmt.Errorf("train: backward segment %d covers [%d, %d), not contiguous below frontier %d",
				k, lo, lo+total, cursor)
		}
		e.segStart = append(e.segStart, lo)
		cursor = lo
	}
	if cursor != 0 {
		return nil, fmt.Errorf("train: backward segments leave [0, %d) uncovered", cursor)
	}
	return e, nil
}

// beginStep arms the engine for one optimizer step's backward pass.
// gScale (applied to each packed bucket when scaleGrads) folds the
// 1/(world·accum) gradient averaging and, under bf16, the loss scale.
func (e *syncEngine) beginStep(gScale float32, scaleGrads bool) {
	e.gScale = gScale
	e.scaleGrads = scaleGrads
	e.next = len(e.buckets) - 1
	e.handles = e.handles[:0]
}

// onSegment is the mae.BackwardStepLayers callback: segment k's
// gradients are final, so every bucket lying entirely above the new
// frontier launches now.
func (e *syncEngine) onSegment(k int) {
	f := e.segStart[k]
	for e.next >= 0 && e.buckets[e.next].span.Lo >= f {
		e.launch(e.buckets[e.next])
		e.next--
	}
}

// launch packs, scales and issues one bucket's gradient collective(s):
// an all-reduce for the replicated schedule, a shard-group
// reduce-scatter (chained into a replica-group all-reduce under
// HYBRID) for the sharded ones — over the bf16 wire when the run is
// mixed-precision. With Overlap off the handle is waited immediately
// (the blocking schedule); either way completion order and arithmetic
// are identical.
func (e *syncEngine) launch(b gradBucket) {
	sp := b.span
	view := e.flatG[sp.Lo:sp.Hi]
	opt.PackGradsSpan(e.flatG, e.params, sp.Lo, sp.Hi)
	if e.scaleGrads {
		tensor.Scale(view, view, e.gScale)
	}
	var h *dist.Handle
	if e.mode == execReplicated {
		h = e.gradGroup.AllReduce(e.r, view, e.wireOf(sp), nil)
	} else {
		h = e.gradGroup.ReduceScatter(e.r, view, e.wireOf(sp))
		if e.replGroup != nil {
			h = e.replGroup.AllReduce(e.r, e.flatG[b.piece.Lo:b.piece.Hi], e.wireOf(b.piece), h)
		}
	}
	if !e.overlap {
		e.timer.comm(func() { h.Wait() })
	}
	e.handles = append(e.handles, h)
}

// finishBackward flushes and waits every in-flight bucket — the
// barrier before overflow detection, clipping and the optimizer. The
// frontier reaching 0 guarantees flushing is a no-op; it is kept as a
// safety net for a segment contract violation.
func (e *syncEngine) finishBackward() {
	for e.next >= 0 {
		e.launch(e.buckets[e.next])
		e.next--
	}
	e.timer.comm(func() {
		for _, h := range e.handles {
			h.Wait()
		}
	})
}

// wireOf returns the bf16 wire scratch for sp, or nil (the fp32 wire)
// when the run is fp32.
func (e *syncEngine) wireOf(sp opt.Span) []uint16 {
	if e.wire == nil {
		return nil
	}
	return e.wire[sp.Lo:sp.Hi]
}

// gatherShard assembles the rank's reduced gradient shard (its owned
// piece of every bucket) into the contiguous dst.
func (e *syncEngine) gatherShard(dst []float32) {
	opt.GatherSpans(dst, e.flatG, e.spans)
}

// allGatherParams re-assembles the updated flat parameters bucket by
// bucket — the post-optimizer all-gather of the sharded schedules
// (doubling as the next forward's eager parameter gather), and the
// FULL_SHARD backward re-gather.
func (e *syncEngine) allGatherParams(flatW []float32) {
	e.timer.comm(func() {
		for _, b := range e.buckets {
			e.gradGroup.AllGather(e.r, flatW[b.span.Lo:b.span.Hi], nil, e.wireOf(b.span)).Wait()
		}
	})
}

// gatherSpansClipped and scatterSpansClipped move between the
// shard-local contiguous layout and the unpadded flat checkpoint
// tensors: each span is clipped at dim so the zero-valued pad tail
// never leaves (or enters) the state.
func gatherSpansClipped(dst, src []float32, spans []opt.Span, dim int) {
	off := 0
	for _, sp := range spans {
		if e := min(sp.Hi, dim); sp.Lo < e {
			copy(dst[off:off+e-sp.Lo], src[sp.Lo:e])
		}
		off += sp.Len()
	}
}

func scatterSpansClipped(dst, src []float32, spans []opt.Span, dim int) {
	off := 0
	for _, sp := range spans {
		if e := min(sp.Hi, dim); sp.Lo < e {
			copy(dst[sp.Lo:e], src[off:off+e-sp.Lo])
		}
		off += sp.Len()
	}
}
