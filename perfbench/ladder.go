package main

import (
	"fmt"
	"math"
	"time"

	"repro/geofm"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// ladderOp is one standalone layer call at the exact shape the training
// step makes it, with how often one step makes it and the work one call
// does. FLOPs count multiply-adds of the matrix products as two
// operations and leave elementwise work out; bytes are computed from
// the operand sizes (fp32), not measured.
type ladderOp struct {
	name         string // metric stem, e.g. "nn.enc.qkv"
	calls        float64
	fwd, bwd     func()
	flopF, flopB float64
	byteF, byteB float64
}

// timeCall returns the median wall time of one call of f, in seconds,
// over at least five calls and about 20 ms, after two warm-up calls.
func timeCall(f func()) float64 {
	f()
	f()
	var ts []float64
	var total time.Duration
	for len(ts) < 5 || (total < 20*time.Millisecond && len(ts) < 400) {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		ts = append(ts, d.Seconds())
		total += d
	}
	return median(ts)
}

func randSlice(r *rng.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = r.NormFloat32()
	}
	return s
}

// linearOp times a Linear at rows × (in → out).
func linearOp(name string, l *nn.Linear, rows int, calls float64, r *rng.RNG) ladderOp {
	x := randSlice(r, rows*l.In)
	dy := randSlice(r, rows*l.Out)
	f := 2 * float64(rows) * float64(l.In) * float64(l.Out)
	w := float64(l.In) * float64(l.Out)
	return ladderOp{
		name: name, calls: calls,
		fwd:   func() { l.Forward(x, rows) },
		bwd:   func() { l.Backward(dy) },
		flopF: f, flopB: 2 * f,
		byteF: 4 * (float64(rows*l.In) + w + float64(l.Out) + float64(rows*l.Out)),
		byteB: 4 * (float64(rows*l.Out) + float64(rows*l.In) + w + float64(rows*l.In) + 2*w + 2*float64(l.Out)),
	}
}

// elementOp times a row-wise layer (LayerNorm, GELU) over n elements.
func elementOp(name string, fwd func([]float32) []float32, bwd func([]float32) []float32, n int, calls float64, r *rng.RNG) ladderOp {
	x := randSlice(r, n)
	dy := randSlice(r, n)
	return ladderOp{
		name: name, calls: calls,
		fwd:   func() { fwd(x) },
		bwd:   func() { bwd(dy) },
		byteF: 4 * 2 * float64(n), byteB: 4 * 3 * float64(n),
	}
}

// attnOp times the fused attention core over batch·heads (T × D) tiles,
// dispatched exactly as nn.MultiHeadAttention dispatches it.
func attnOp(name string, batch, tokens, width, heads int, calls float64, r *rng.RNG) ladderOp {
	d := width / heads
	bh := batch * heads
	q, k, v := randSlice(r, bh*tokens*d), randSlice(r, bh*tokens*d), randSlice(r, bh*tokens*d)
	o := make([]float32, batch*tokens*width)
	do := randSlice(r, batch*tokens*width)
	dqkv := make([]float32, batch*tokens*3*width)
	stats := make([]float32, bh*2*tokens)
	scale := float32(1 / math.Sqrt(float64(d)))
	head := func(i int) ([]float32, []float32, []float32) {
		return q[i*tokens*d : (i+1)*tokens*d], k[i*tokens*d : (i+1)*tokens*d], v[i*tokens*d : (i+1)*tokens*d]
	}
	fwd := func() {
		parallel.ForGrain(bh, 1, func(i int) {
			qi, ki, vi := head(i)
			b, hh := i/heads, i%heads
			tensor.FlashAttnFwd(o[(b*tokens)*width+hh*d:], width, qi, ki, vi, tokens, d, scale,
				stats[i*2*tokens:(i+1)*2*tokens])
		})
	}
	bwd := func() {
		parallel.ForGrain(bh, 1, func(i int) {
			qi, ki, vi := head(i)
			b, hh := i/heads, i%heads
			g := dqkv[(b*tokens)*3*width:]
			tensor.FlashAttnBwd(g[hh*d:], g[width+hh*d:], g[2*width+hh*d:], 3*width,
				do[(b*tokens)*width+hh*d:], o[(b*tokens)*width+hh*d:], width, qi, ki, vi, tokens, d, scale,
				stats[i*2*tokens:(i+1)*2*tokens])
		})
	}
	fwd() // the backward reads the forward's output and statistics
	btw := float64(batch * tokens * width)
	f := 4 * float64(batch) * float64(tokens) * float64(tokens) * float64(width)
	return ladderOp{
		name: name, calls: calls, fwd: fwd, bwd: bwd,
		// Backward FLOPs exclude the probability tiles it recomputes.
		flopF: f, flopB: 2 * f,
		byteF: 4 * 4 * btw, byteB: 4 * 8 * btw,
	}
}

// blockOps lists one transformer block's layer calls at rows = batch ·
// tokens, each made depth times per step (LayerNorm twice per block,
// plus the stack's final norm).
func blockOps(prefix string, b *nn.Block, batch, tokens, depth int, r *rng.RNG) []ladderOp {
	rows := batch * tokens
	dd := float64(depth)
	hidden := b.MLP.FC1.Out
	return []ladderOp{
		elementOp("nn."+prefix+".ln", func(x []float32) []float32 { return b.LN1.Forward(x, rows) },
			b.LN1.Backward, rows*b.Attn.Width, 2*dd+1, r),
		linearOp("nn."+prefix+".qkv", b.Attn.QKV, rows, dd, r),
		attnOp("tensor."+prefix+".attn", batch, tokens, b.Attn.Width, b.Attn.Heads, dd, r),
		linearOp("nn."+prefix+".proj", b.Attn.Out, rows, dd, r),
		linearOp("nn."+prefix+".fc1", b.MLP.FC1, rows, dd, r),
		elementOp("nn."+prefix+".gelu", func(x []float32) []float32 { return b.MLP.Act.Forward(x, rows) },
			b.MLP.Act.Backward, rows*hidden, dd, r),
		linearOp("nn."+prefix+".fc2", b.MLP.FC2, rows, dd, r),
	}
}

// ladderSection times every layer of the workload's training step as a
// standalone call at the step's exact shapes, reconciles the ladder's
// FLOPs with the performance model's, and reports how much of the
// measured forward+backward the ladder accounts for. It then times the
// serving path's layer calls at batch 8 and whole batches through
// Model.Fill.
func ladderSection(r *run) error {
	w := r.w
	in, err := newTrainInputs(w, r.seed, w.localBatch)
	if err != nil {
		return err
	}
	cfg := in.cfg.MAE
	enc := cfg.Encoder
	model := geofm.NewMAE(cfg, r.seed)
	src := rng.New(r.seed ^ 0x1add)
	b := w.localBatch
	t := enc.Tokens()
	keep := cfg.KeepTokens()
	pd := enc.PatchDim()

	ops := blockOps("enc", model.Encoder.Blocks[0], b, keep, enc.Depth, src)
	ops = append(ops, blockOps("dec", model.DecBlocks[0], b, t, cfg.DecoderDepth, src)...)
	// The patch embedding is its projection's work plus the positional
	// table add, so it is timed through PatchEmbed itself.
	embed := linearOp("nn.patch_embed", model.Embed.Proj, b*t, 1, src)
	patches := randSlice(src, b*t*pd)
	dEmb := randSlice(src, b*t*enc.Width)
	embed.fwd = func() { model.Embed.Forward(patches, b) }
	embed.bwd = func() { model.Embed.Backward(dEmb) }
	ops = append(ops, embed,
		linearOp("nn.dec_embed", model.DecEmbed, b*keep, 1, src),
		linearOp("nn.pred", model.Pred, b*t, 1, src))
	nMask := b * (t - keep) * pd
	pred, tgt, dpred := randSlice(src, nMask), randSlice(src, nMask), make([]float32, nMask)
	mse := ladderOp{name: "nn.mse", calls: 1, fwd: func() { nn.MSE(pred, tgt, dpred) },
		byteF: 4 * 3 * float64(nMask)}

	const lane = 2
	root := r.tr.begin("ladder", "ladder", 0, lane)
	var calls, perCall []float64
	var flops, bytes float64
	for _, op := range ops {
		for _, dir := range []struct {
			tag         string
			f           func()
			flop, bytes float64
		}{{"fwd", op.fwd, op.flopF, op.byteF}, {"bwd", op.bwd, op.flopB, op.byteB}} {
			start := time.Now()
			sec := timeCall(dir.f)
			r.tr.add(op.name+"."+dir.tag, "ladder", root, lane, start, time.Now(), map[string]any{
				"per_call_us": sec * 1e6, "calls_per_step": op.calls, "flop": dir.flop, "bytes": dir.bytes})
			r.set(op.name+"."+dir.tag+"_us", "us", sec*1e6)
			calls = append(calls, op.calls)
			perCall = append(perCall, sec)
			flops += op.calls * dir.flop
			bytes += op.calls * dir.bytes
		}
	}
	start := time.Now()
	mseSec := timeCall(mse.fwd)
	r.tr.add("nn.mse", "ladder", root, lane, start, time.Now(), map[string]any{"per_call_us": mseSec * 1e6, "bytes": mse.byteF})
	r.set("nn.mse_us", "us", mseSec*1e6)
	calls = append(calls, 1)
	perCall = append(perCall, mseSec)
	bytes += mse.byteF
	r.set("parallel.dispatch_us", "us", timeCall(func() { parallel.ForGrain(2, 1, func(int) {}) })*1e6)

	wl := geofm.MAEPerfWorkload(enc, b, cfg.MaskRatio)
	wl.DecWidth, wl.DecDepth = cfg.DecoderWidth, cfg.DecoderDepth
	r.set("attr.flops_ratio", "ratio", flops/wl.TotalStepFLOPs())
	r.set("attr.step_gflop", "GFLOP", flops/1e9)
	r.set("attr.step_mb", "MB", bytes/1e6)
	fb := (r.metrics["mae.forward_ms"].Value + r.metrics["mae.backward_ms"].Value) / 1e3
	r.set("attr.closure", "ratio", closure(calls, perCall, fb))
	r.tr.end(root)
	return inferLadder(r, lane)
}

// inferLadder times the serving path: one encoder block's Infer calls
// at batch 8 over all tokens, and Model.Fill over batches of 1 and 8
// mixed requests.
func inferLadder(r *run, lane int) error {
	sm, err := newServeModel(r.w, r.seed)
	if err != nil {
		return err
	}
	enc := sm.MAE.Cfg.Encoder
	const batch = 8
	t := enc.Tokens()
	rows := batch * t
	blk := sm.MAE.Encoder.Blocks[0]
	src := rng.New(r.seed ^ 0x1f3e)
	x := randSlice(src, rows*enc.Width)
	h := randSlice(src, rows*blk.MLP.FC1.Out)
	ctx := nn.NewInferCtx()
	defer ctx.Release()
	root := r.tr.begin("infer_ladder", "ladder", 0, lane)
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"ln", func() { blk.LN1.Infer(ctx, x, rows) }},
		{"attn", func() { blk.Attn.Infer(ctx, x, batch, t) }},
		{"fc1", func() { blk.MLP.FC1.Infer(ctx, x, rows) }},
		{"gelu", func() { blk.MLP.Act.Infer(ctx, h, rows) }},
		{"fc2", func() { blk.MLP.FC2.Infer(ctx, h, rows) }},
	} {
		start := time.Now()
		sec := timeCall(func() { ctx.Reset(); op.f() })
		r.tr.add("nn.infer."+op.name, "ladder", root, lane, start, time.Now(), map[string]any{"per_call_us": sec * 1e6, "batch": batch})
		r.set(fmt.Sprintf("nn.infer.%s_us.b%d", op.name, batch), "us", sec*1e6)
	}
	imgs := serveImages(sm, r.seed, 8)
	for _, n := range []int{1, 8} {
		reqs := make([]*serve.Request, n)
		resps := make([]*serve.Response, n)
		for i := range reqs {
			reqs[i] = &serve.Request{ID: uint64(i), Kind: serveMix[i%len(serveMix)], Img: imgs[i]}
			resps[i] = &serve.Response{ID: uint64(i), Kind: reqs[i].Kind}
		}
		start := time.Now()
		sec := timeCall(func() { sm.Fill(ctx, reqs, resps) })
		r.tr.add(fmt.Sprintf("serve.fill.b%d", n), "ladder", root, lane, start, time.Now(), map[string]any{"per_call_us": sec * 1e6})
		r.set(fmt.Sprintf("serve.fill_ms.b%d", n), "ms", sec*1e3)
	}
	r.tr.end(root)
	return nil
}
