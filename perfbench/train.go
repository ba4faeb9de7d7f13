package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/geofm"
	"repro/internal/dataload"
	"repro/internal/nn"
	"repro/internal/opt"
)

// dataScale divides the Table II corpus sizes: ~5k pretraining samples,
// far more than one call's epochs draw, while each epoch's shuffle of
// the index space stays cheap.
const dataScale = 200

// trainInputs is everything one training call needs; the seed decides
// the scene archetypes, the sample order, the initial weights and the
// masks.
type trainInputs struct {
	ds  *geofm.Dataset
	cfg geofm.PretrainConfig
	// digest fingerprints the first global batch's pixels, so two runs
	// can show they drew the same inputs.
	digest uint64
}

// newTrainInputs builds the dataset and the training configuration at
// the given global batch and renders the first batch for the digest.
func newTrainInputs(w workload, seed uint64, batch int) (*trainInputs, error) {
	enc, err := geofm.Analog(w.model, w.image, w.patch, 3)
	if err != nil {
		return nil, err
	}
	ds := geofm.NewSuite(dataScale, w.image, 3, seed).Pretrain
	cfg := geofm.DefaultPretrain(geofm.DefaultMAE(enc))
	cfg.BatchSize = batch
	cfg.Epochs = w.epochs
	cfg.MaxStepsPerEpoch = w.stepsPerEpoch
	cfg.Workers = w.workers
	cfg.Seed = seed
	cfg.WarmupEpochs = 1
	if err := cfg.MAE.Validate(); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	img := make([]float32, ds.Gen.ImageLen())
	var buf [4]byte
	for i := 0; i < batch; i++ {
		ds.TrainSample(i, img)
		for _, v := range img {
			b := math.Float32bits(v)
			buf[0], buf[1], buf[2], buf[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
			h.Write(buf[:])
		}
	}
	return &trainInputs{ds: ds, cfg: cfg, digest: h.Sum64()}, nil
}

// distConfig is the paper's configuration in miniature: FULL_SHARD over
// the workload's ranks, bf16 compute and wire, collectives overlapped
// with backward.
func distConfig(cfg geofm.PretrainConfig, ranks int) geofm.DistPretrainConfig {
	return geofm.DistPretrainConfig{
		PretrainConfig: cfg,
		Ranks:          ranks,
		Plan:           geofm.BestPractice(geofm.FullShard, 0),
		Precision:      geofm.BF16,
		Overlap:        true,
	}
}

// epochClock is the Log writer handed to a training call: the loop
// writes one line per finished epoch, so the write times delimit the
// epochs without touching the training code.
type epochClock struct {
	mu   sync.Mutex
	ends []time.Time
}

func (c *epochClock) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.ends = append(c.ends, time.Now())
	c.mu.Unlock()
	return len(p), nil
}

// walls returns the wall time of every epoch after the first; the first
// pays for model construction and buffer growth.
func (c *epochClock) walls() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	for i := 1; i < len(c.ends); i++ {
		out = append(out, c.ends[i].Sub(c.ends[i-1]).Seconds())
	}
	return out
}

// trainCall is one training call's outcome.
type trainCall struct {
	losses []float64
	steps  int
	walls  []float64 // timed epochs' wall seconds
}

// callTrain runs one training call through the public entry point —
// Pretrain on one rank, PretrainDistributed on several — and checks
// what the call itself guarantees.
func callTrain(r *run, in *trainInputs, ranks int) (*trainCall, error) {
	clock := &epochClock{}
	cfg := in.cfg
	cfg.Log = clock
	var curve []float64
	var steps int
	if ranks == 1 {
		res, err := geofm.Pretrain(cfg, in.ds)
		if err != nil {
			return nil, err
		}
		curve, steps = res.LossCurve.Y, res.Steps
	} else {
		res, err := geofm.PretrainDistributed(distConfig(cfg, ranks), in.ds)
		if err != nil {
			return nil, err
		}
		curve, steps = res.LossCurve.Y, res.Steps
		checkWireBytes(r, res)
	}
	return &trainCall{losses: curve, steps: steps, walls: clock.walls()}, nil
}

// checkWireBytes holds the executed collectives to the simulator's
// closed-form traffic: bytes sent equal Traffic × steps exactly.
func checkWireBytes(r *run, res *geofm.DistPretrainResult) {
	steps := float64(res.Steps)
	ok := sameBits(res.Comm.ReduceScatter.MeasuredWireBytes, res.Traffic.ReduceScatterBytes*steps) &&
		sameBits(res.Comm.AllGather.MeasuredWireBytes, res.Traffic.AllGatherBytes*steps) &&
		sameBits(res.Comm.AllReduce.MeasuredWireBytes, res.Traffic.AllReduceBytes*steps)
	r.check("dist_wire_bytes", ok, "rs %.0f ag %.0f ar %.0f bytes over %d steps (traffic/step %.0f)",
		res.Comm.ReduceScatter.MeasuredWireBytes, res.Comm.AllGather.MeasuredWireBytes,
		res.Comm.AllReduce.MeasuredWireBytes, res.Steps, res.Traffic.Total())
}

// trainUntraced measures a training workload end to end: identical
// training calls back to back until the time is up, each epoch after a
// call's first timed from the loop's own per-epoch log line.
func trainUntraced(r *run) error {
	w := r.w
	in, setup, err := timeSetup(5, func() (*trainInputs, error) { return newTrainInputs(w, r.seed, w.batch) })
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup)
	r.stamp["inputs_digest"] = fmt.Sprintf("%016x", in.digest)

	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	var first *trainCall
	var stepMs, ips []float64
	calls, repeatBad := 0, 0
	for calls < 2 || time.Now().Before(deadline) {
		c, err := callTrain(r, in, w.ranks)
		if err != nil {
			return err
		}
		calls++
		r.attempted += c.steps
		for _, l := range c.losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				r.failed++
			}
		}
		if first == nil {
			first = c
		} else if !sameCurve(first.losses, c.losses) {
			repeatBad++
		}
		for _, wall := range c.walls {
			stepMs = append(stepMs, wall/float64(w.stepsPerEpoch)*1e3)
			ips = append(ips, float64(w.stepsPerEpoch*w.batch)/wall)
		}
	}
	r.check("loss_finite", r.failed == 0, "%d of %d steps non-finite", r.failed, r.attempted)
	r.check("calls_repeat_bitwise", repeatBad == 0, "%d of %d calls diverged from the first call's loss curve", repeatBad, calls)
	checkReferenceLoss(r, first.losses[len(first.losses)-1])
	r.stamp["timed_epochs"] = len(ips)
	r.stamp["calls"] = calls

	r.set("images_per_s", "1/s", median(ips))
	r.set("p50_ms", "ms", median(stepMs))
	return nil
}

// lossRef is a workload's recorded final loss of one training call:
// the mean over a set of seeds, a tolerance set from their spread, and
// the exact bits for each recorded seed.
type lossRef struct {
	mean, tol float64
	exact     map[uint64]uint64
}

// checkReferenceLoss holds a call's final loss to the recorded
// reference within tolerance. For a seed whose loss was recorded it
// also reports whether the bits match, as a count and not a verdict: a
// change that reorders the arithmetic on purpose moves the bits but not
// the tolerance.
func checkReferenceLoss(r *run, final float64) {
	ref, ok := referenceLoss[r.w.name]
	if !ok {
		r.check("loss_reference", false, "no reference recorded for %s", r.w.name)
		return
	}
	dev := math.Abs(final - ref.mean)
	r.check("loss_reference", dev <= ref.tol, "final loss %.6f, reference %.6f ± %.6f", final, ref.mean, ref.tol)
	if bits, ok := ref.exact[r.seed]; ok {
		matches := 0
		if math.Float64bits(final) == bits {
			matches = 1
		}
		r.stamp["loss_exact_matches"] = matches
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCurve(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// trainSection is the traced run's training part. It runs Pretrain
// untraced at the replica's batch as the reference, then drives the
// same step through the layers' public calls with a span around each,
// and requires the two loss curves to agree bit for bit — proof that
// the traced loop measures the program Pretrain runs.
func trainSection(r *run) error {
	w := r.w
	in, err := newTrainInputs(w, r.seed, w.localBatch)
	if err != nil {
		return err
	}
	// Pretrain runs before and after the replica: both loss curves must
	// match it, and the second, warm call is the untraced speed the
	// tracing overhead is taken against.
	var refs []*trainCall
	var rep *trainCall
	for _, traced := range []bool{false, true, false} {
		var c *trainCall
		var err error
		if traced {
			c, err = replica(r, in)
			rep = c
		} else {
			c, err = callTrain(r, in, 1)
			refs = append(refs, c)
		}
		if err != nil {
			return err
		}
		r.attempted += c.steps
	}
	ref := refs[1]
	r.check("replica_loss_bitwise", sameCurve(refs[0].losses, rep.losses) && sameCurve(ref.losses, rep.losses),
		"%d-step traced replica vs Pretrain loss curve", rep.steps)
	for _, l := range append(append(refs[0].losses, ref.losses...), rep.losses...) {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			r.failed++
		}
	}
	imgs := float64(w.stepsPerEpoch * w.localBatch)
	var untraced, traced []float64
	for _, s := range ref.walls {
		untraced = append(untraced, imgs/s)
	}
	for _, s := range rep.walls {
		traced = append(traced, imgs/s)
	}
	r.set("trace.overhead_frac", "ratio", 1-median(traced)/median(untraced))

	// Scene generation alone, per image, on the loader's source.
	img := make([]float32, in.ds.Gen.ImageLen())
	var per []float64
	for i := 0; i < 48; i++ {
		t0 := time.Now()
		in.ds.TrainSample(1000+i, img)
		per = append(per, time.Since(t0).Seconds()*1e6)
	}
	r.set("geodata.sample_us", "us", median(per))
	return nil
}

// replica is Pretrain's step loop rebuilt from the layers' public
// calls, with a span around each call. It must consume every random
// stream exactly as Pretrain does: the same model seed, the loader seed
// Pretrain derives (Seed ^ 0xDA7A), the masks drawn by DrawMasks (the
// same draws Step's internal sampler makes) and the same schedule.
func replica(r *run, in *trainInputs) (*trainCall, error) {
	cfg := in.cfg
	tr := r.tr
	const lane = 1
	model := geofm.NewMAE(cfg.MAE, cfg.Seed)
	params := model.Params()
	optim := opt.NewAdamW(params, cfg.WeightDecay)
	spe := in.ds.TrainCount / cfg.BatchSize
	if cfg.MaxStepsPerEpoch > 0 && spe > cfg.MaxStepsPerEpoch {
		spe = cfg.MaxStepsPerEpoch
	}
	sched := opt.CosineSchedule{
		Base:        opt.ScaledLR(cfg.BaseLR, cfg.BatchSize),
		WarmupSteps: cfg.WarmupEpochs * spe,
		TotalSteps:  cfg.Epochs * spe,
	}
	loader := dataload.New(
		dataload.TrainSplit{D: in.ds, Count: in.ds.TrainCount, ImgLen: in.ds.Gen.ImageLen()},
		dataload.Config{BatchSize: cfg.BatchSize, Workers: cfg.Workers, Shuffle: true, DropLast: true,
			Seed: cfg.Seed ^ 0xDA7A})

	out := &trainCall{}
	// phases collects per-step durations after the warm-up epoch.
	phases := map[string][]float64{}
	var lastEnd time.Time
	step := 0
	root := tr.begin("train.replica", "train", 0, lane)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		ep := tr.begin(fmt.Sprintf("train.epoch.%d", epoch), "train", root, lane)
		ch := loader.EpochN(spe)
		for {
			t0 := time.Now()
			batch, ok := <-ch
			t1 := time.Now()
			if !ok {
				break
			}
			st := tr.add("train.step", "train", ep, lane, t0, time.Time{}, map[string]any{"step": step})
			tr.add("dataload.wait", "dataload", st, lane, t0, t1, nil)
			children := t1.Sub(t0)
			record := func(name string, d time.Duration) {
				if epoch > 0 {
					phases[name] = append(phases[name], d.Seconds())
				}
			}
			record("dataload.wait", children)
			timed := func(name, cat string, f func()) {
				id := tr.begin(name, cat, st, lane)
				f()
				d := tr.end(id)
				children += d
				record(name, d)
			}
			var loss float64
			var keep [][]int
			timed("nn.zero_grads", "nn", func() { nn.ZeroGrads(params) })
			timed("mae.mask", "mae", func() { keep = model.DrawMasks(batch.Size) })
			timed("mae.forward", "mae", func() { loss = model.ForwardWithMask(batch.Images, batch.Size, keep) })
			timed("mae.backward", "mae", func() { model.BackwardStep() })
			if cfg.ClipNorm > 0 {
				timed("nn.clip", "nn", func() { nn.ClipGradNorm(params, cfg.ClipNorm) })
			}
			timed("opt.adamw", "opt", func() { optim.Step(sched.LR(step)) })
			timed("dataload.recycle", "dataload", func() { loader.Recycle(batch) })
			record("train.unattributed", tr.end(st)-children)
			out.losses = append(out.losses, loss)
			step++
		}
		tr.end(ep)
		end := tr.spans[ep-1].End
		if epoch > 0 {
			out.walls = append(out.walls, end.Sub(lastEnd).Seconds())
		}
		lastEnd = end
	}
	tr.end(root)
	out.steps = step

	ms := func(name string, q float64) float64 { return percentile(phases[name], q) * 1e3 }
	r.set("dataload.wait_ms.p50", "ms", ms("dataload.wait", 0.5))
	r.set("dataload.wait_ms.p99", "ms", ms("dataload.wait", 0.99))
	r.set("mae.mask_us", "us", ms("mae.mask", 0.5)*1e3)
	r.set("mae.forward_ms", "ms", ms("mae.forward", 0.5))
	r.set("mae.backward_ms", "ms", ms("mae.backward", 0.5))
	r.set("opt.adamw_ms", "ms", ms("opt.adamw", 0.5))
	r.set("nn.zero_grads_ms", "ms", ms("nn.zero_grads", 0.5))
	r.set("nn.clip_ms", "ms", ms("nn.clip", 0.5))
	r.set("train.unattributed_ms", "ms", ms("train.unattributed", 0.5))
	return out, nil
}
