package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/geofm"
	"repro/internal/geodata"
	"repro/internal/nn"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/serve"
)

// serveCfg is the batcher every serving measurement runs: batches of up
// to 8 closed after 2 ms, 64 admitted requests at most, one engine.
var serveCfg = geofm.ServeConfig{MaxBatch: 8, MaxWaitSec: 2e-3, QueueCap: 64, Workers: 1}

// serveMix is the request mix, assigned cyclically: embed, classify and
// segment 1:1:1.
var serveMix = []geofm.ServeKind{geofm.ServeEmbed, geofm.ServeClassify, geofm.ServeSegment}

const (
	// sloSec is the latency limit the SLO search holds p99 to.
	sloSec = 50e-3
	// fixedRate is the offered load (req/s) of the fixed-rate open-loop
	// phase, which takes fixedShare of the measured time; the SLO ladder
	// takes what it and the closed loop leave.
	fixedRate  = 100
	fixedShare = 0.2
	// closedClients keep requests in flight for closedShare of the
	// measured time: two full batches, one computing and one forming.
	closedClients = 16
	closedShare   = 0.4
	// probeWindows is how many windows each SLO probe's p99 is taken
	// over.
	probeWindows = 6
	// imagePool distinct request images are rendered at set-up and
	// reused cyclically by the arrival schedules.
	imagePool = 256
	// classifyClasses is the served classifier's class count (the UCM
	// analog's vocabulary).
	classifyClasses = 21
)

// synthHead draws a probe head from the seed; serving only needs a
// head of the right shape, and fitting one is not part of serving.
func synthHead(dim, classes int, seed uint64) *probe.Head {
	r := rng.New(seed)
	h := &probe.Head{Dim: dim, Classes: classes,
		W: make([]float32, dim*classes), B: make([]float32, classes),
		Mean: make([]float64, dim), InvStd: make([]float64, dim)}
	for i := range h.W {
		h.W[i] = 0.1 * r.NormFloat32()
	}
	for i := range h.B {
		h.B[i] = 0.01 * r.NormFloat32()
	}
	for i := range h.InvStd {
		h.InvStd[i] = 1
	}
	return h
}

// newServeModel builds the workload's served model: seed-derived
// encoder weights plus classification and segmentation heads.
func newServeModel(w workload, seed uint64) (*geofm.ServeModel, error) {
	enc, err := geofm.Analog(w.model, w.image, w.patch, 3)
	if err != nil {
		return nil, err
	}
	m := geofm.NewServeModel(geofm.DefaultMAE(enc), seed)
	m.AttachHeads(synthHead(enc.Width, classifyClasses, seed^0xc1a5), synthHead(enc.Width, geodata.SegClasses, seed^0x5e6))
	return m, nil
}

// serveImages renders n request images from the seed's scene generator.
func serveImages(m *geofm.ServeModel, seed uint64, n int) [][]float32 {
	enc := m.MAE.Cfg.Encoder
	gen := geofm.NewSuite(dataScale, enc.ImageSize, enc.Channels, seed).Probe[1].Gen
	imgs := make([][]float32, n)
	for i := range imgs {
		imgs[i] = make([]float32, gen.ImageLen())
		gen.Image(i%gen.Classes, 1<<21+i, imgs[i])
	}
	return imgs
}

// serveInputs is a serving workload's set-up: the model and the image
// pool.
type serveInputs struct {
	m    *geofm.ServeModel
	imgs [][]float32
}

func newServeInputs(w workload, seed uint64) (*serveInputs, error) {
	m, err := newServeModel(w, seed)
	if err != nil {
		return nil, err
	}
	return &serveInputs{m: m, imgs: serveImages(m, seed, imagePool)}, nil
}

// phase is one open-loop run at a fixed offered rate.
type phase struct {
	rate   float64
	sched  []geofm.ServeArrival
	origin time.Time // the server clock's zero, to within the NewServer call
	start  time.Time // the schedule's zero
	late   []float64 // generator lateness per request, s
	admit  []float64 // Submit call duration per request, s
	resps  []*geofm.ServeResponse
	stats  serve.Stats
	// lat is each request's latency from its due time; failed requests
	// (shed, rejected, errored or wrong) are +Inf.
	lat    []float64
	failed int
	// dupes counts requests that received more than one response.
	dupes int
}

// openLoop offers sched to a fresh server, each request submitted at
// its due time whatever the server's state, and collects every
// response.
func openLoop(m *geofm.ServeModel, sched []geofm.ServeArrival, rate float64) (*phase, error) {
	n := len(sched)
	p := &phase{rate: rate, sched: sched, late: make([]float64, n), admit: make([]float64, n),
		resps: make([]*geofm.ServeResponse, n)}
	p.origin = time.Now()
	s, err := geofm.NewInferenceServer(serveCfg, m)
	if err != nil {
		return nil, err
	}
	chans := make([]<-chan *geofm.ServeResponse, n)
	p.start = time.Now()
	for i, a := range sched {
		due := p.start.Add(time.Duration(a.AtSec * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		ch, err := s.Submit(a.Kind, a.Img)
		t1 := time.Now()
		if err != nil {
			s.Drain()
			return nil, fmt.Errorf("submit %d: %w", i, err)
		}
		chans[i] = ch
		p.late[i] = t0.Sub(due).Seconds()
		p.admit[i] = t1.Sub(t0).Seconds()
	}
	for i, ch := range chans {
		p.resps[i] = <-ch
	}
	p.stats = s.Drain()
	for _, ch := range chans {
		select {
		case <-ch:
			p.dupes++
		default:
		}
	}
	return p, nil
}

// verify checks the phase's responses and computes latencies. Every
// request must get exactly one response carrying a payload of the right
// shape; every admitted request must ride in exactly one batch; and a
// sample of batches, rebuilt from the batch log and run again through
// Model.Fill, must reproduce the served payloads bit for bit. It
// returns the number of wrong responses and the sampled batch count.
func (p *phase) verify(m *geofm.ServeModel, sampleSeed uint64) (wrong, sampled int) {
	n := len(p.sched)
	enc := m.MAE.Cfg.Encoder
	byID := make(map[uint64]int, n)
	bad := make([]bool, n)
	for i, resp := range p.resps {
		byID[resp.ID] = i
		if resp.Err != nil {
			continue
		}
		var ok bool
		switch p.sched[i].Kind {
		case geofm.ServeEmbed:
			ok = len(resp.Embedding) == enc.Width
		case geofm.ServeClassify:
			ok = len(resp.Logits) == m.Cls.Classes
		case geofm.ServeSegment:
			ok = len(resp.Labels) == enc.Tokens()
		}
		bad[i] = !ok || resp.Kind != p.sched[i].Kind
	}
	rides := make([]int, n)
	for _, b := range p.stats.Batches {
		for _, id := range b.IDs {
			if i, ok := byID[id]; ok {
				rides[i]++
			}
		}
	}
	for i, resp := range p.resps {
		want := 1 // a shed or rejected request rides in no batch
		if resp.Err != nil {
			want = 0
		}
		if rides[i] != want {
			bad[i] = true
		}
	}

	ctx := nn.NewInferCtx()
	defer ctx.Release()
	pick := rng.New(sampleSeed)
	nb := len(p.stats.Batches)
	seen := map[int]bool{}
	for k := 0; k < 6 && k < nb; k++ {
		bi := pick.Intn(nb)
		if k == 0 {
			bi = 0
		} else if k == 1 {
			bi = nb - 1
		}
		if seen[bi] {
			continue
		}
		seen[bi] = true
		rec := p.stats.Batches[bi]
		reqs := make([]*serve.Request, len(rec.IDs))
		fresh := make([]*serve.Response, len(rec.IDs))
		for j, id := range rec.IDs {
			i := byID[id]
			reqs[j] = &serve.Request{ID: id, Kind: p.sched[i].Kind, Img: p.sched[i].Img}
			fresh[j] = &serve.Response{ID: id, Kind: p.sched[i].Kind}
		}
		m.Fill(ctx, reqs, fresh)
		for j, id := range rec.IDs {
			if i := byID[id]; !samePayload(fresh[j], p.resps[i]) {
				bad[i] = true
			}
		}
		sampled++
	}

	p.lat = make([]float64, n)
	for i, resp := range p.resps {
		if resp.Err != nil || bad[i] {
			p.lat[i] = math.Inf(1)
			p.failed++
		} else {
			tr := resp.Trace
			p.lat[i] = dueLatency(0, p.late[i], tr.ArrivalSec, tr.DoneSec)
		}
		if bad[i] {
			wrong++
		}
	}
	return wrong, sampled
}

// samePayload reports whether two responses carry bit-identical
// payloads.
func samePayload(a, b *geofm.ServeResponse) bool {
	return string(a.Labels) == string(b.Labels) &&
		sameF32(a.Embedding, b.Embedding) && sameF32(a.Logits, b.Logits)
}

func sameF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// latencyMs returns the q-percentile of the phase's latencies in ms.
// When the percentile lands on a failed request the phase's whole
// schedule length stands in for its latency, so a failure reads as a
// miss of any limit without leaving the JSON number range.
func (p *phase) latencyMs(q float64) float64 {
	return p.capMs(percentile(p.lat, q))
}

func (p *phase) capMs(v float64) float64 {
	if math.IsInf(v, 1) {
		v = p.sched[len(p.sched)-1].AtSec
	}
	return v * 1e3
}

// windowP99Ms splits the phase into consecutive windows of winSec by
// due time and returns the median over windows of each window's p99, in
// ms. A stall of the shared host that spoils one window moves the
// median of the windows far less than it moves one p99 over the whole
// phase, while a slower program raises every window's p99.
func (p *phase) windowP99Ms(winSec float64) float64 {
	var windows [][]float64
	for i, a := range p.sched {
		k := int(a.AtSec / winSec)
		for len(windows) <= k {
			windows = append(windows, nil)
		}
		windows[k] = append(windows[k], p.lat[i])
	}
	var p99s []float64
	for _, w := range windows {
		if len(w) > 0 {
			p99s = append(p99s, percentile(w, 0.99))
		}
	}
	return p.capMs(median(p99s))
}

// runPhase builds a Poisson schedule for rate over about sec seconds,
// offers it, and verifies the result, recording the verdicts.
func runPhase(r *run, in *serveInputs, label string, rate, sec float64, seed uint64) (*phase, error) {
	n := int(rate * sec)
	if n < 50 {
		n = 50
	}
	img := func(i int) []float32 { return in.imgs[i%len(in.imgs)] }
	sched := geofm.ServePoissonArrivals(rate, n, serveMix, img, seed)
	p, err := openLoop(in.m, sched, rate)
	if err != nil {
		return nil, err
	}
	wrong, sampled := p.verify(in.m, seed^0xba7c)
	r.check("serve_one_response."+label, p.dupes == 0 && p.stats.Served+p.stats.Shed == n,
		"%d requests, %d served, %d shed, %d extra responses", n, p.stats.Served, p.stats.Shed, p.dupes)
	r.check("serve_payloads."+label, wrong == 0, "%d wrong responses; %d sampled batches rebuilt through Model.Fill", wrong, sampled)
	return p, nil
}

// closedLoop keeps clients requests in flight for about sec seconds:
// each client submits its next request the moment the previous one
// returns, so the engine never idles and the batcher fills its batches.
// With clients below QueueCap nothing is shed, so the served rate is
// the server's capacity. The returned phase lists the requests in each
// client's order; its due times are the submit times.
func closedLoop(m *geofm.ServeModel, imgs [][]float32, clients int, sec float64) (*phase, float64, error) {
	type sent struct {
		a     geofm.ServeArrival
		admit float64
		ch    <-chan *geofm.ServeResponse
		resp  *geofm.ServeResponse
	}
	p := &phase{origin: time.Now()}
	s, err := geofm.NewInferenceServer(serveCfg, m)
	if err != nil {
		return nil, 0, err
	}
	p.start = time.Now()
	end := p.start.Add(time.Duration(sec * float64(time.Second)))
	out := make([][]sent, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(end); k++ {
				i := c + k*clients
				a := geofm.ServeArrival{Kind: serveMix[i%len(serveMix)], Img: imgs[i%len(imgs)]}
				t0 := time.Now()
				ch, err := s.Submit(a.Kind, a.Img)
				if err != nil {
					errs[c] = fmt.Errorf("client %d: %w", c, err)
					return
				}
				a.AtSec = t0.Sub(p.start).Seconds()
				out[c] = append(out[c], sent{a: a, admit: time.Since(t0).Seconds(), ch: ch, resp: <-ch})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(p.start).Seconds()
	p.stats = s.Drain()
	for _, reqs := range out {
		for _, q := range reqs {
			p.sched = append(p.sched, q.a)
			p.resps = append(p.resps, q.resp)
			p.late = append(p.late, 0)
			p.admit = append(p.admit, q.admit)
			select {
			case <-q.ch:
				p.dupes++
			default:
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return p, wall, nil
}

// serveUntraced measures the serving workload end to end. The gated
// metrics come from a closed loop at capacity: served images/s and the
// p50 latency of a request among closedClients in flight. The open-loop
// numbers — p50/p99 at a fixed rate and the highest rung of a fixed
// rate ladder whose phase keeps p99 within the SLO — are reported but
// not gated: on a 2-vCPU host their run-to-run spread exceeds any
// usable bound (a lightly loaded server's latency rides on the host's
// idle wake-ups, a loaded one's on its queueing knee).
func serveUntraced(r *run) error {
	w := r.w
	in, setup, err := timeSetup(3, func() (*serveInputs, error) { return newServeInputs(w, r.seed) })
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup)

	closedSec := closedShare * r.seconds
	c, wall, err := closedLoop(in.m, in.imgs, closedClients, closedSec)
	if err != nil {
		return err
	}
	n := len(c.sched)
	wrong, sampled := c.verify(in.m, r.seed^0xc105)
	r.check("serve_one_response.closed", c.dupes == 0 && c.stats.Served == n && c.stats.Shed == 0,
		"%d requests, %d served, %d shed, %d extra responses", n, c.stats.Served, c.stats.Shed, c.dupes)
	r.check("serve_payloads.closed", wrong == 0, "%d wrong responses; %d sampled batches rebuilt through Model.Fill", wrong, sampled)
	r.attempted += n
	r.failed += c.failed
	r.set("images_per_s", "1/s", float64(n-c.failed)/wall)
	r.set("p50_ms", "ms", c.latencyMs(0.5))
	r.stamp["closed_phase"] = map[string]any{"clients": closedClients, "requests": n, "p99_ms": c.latencyMs(0.99)}

	fixedSec := fixedShare * r.seconds
	p, err := runPhase(r, in, "fixed", fixedRate, fixedSec, r.seed^0x100)
	if err != nil {
		return err
	}
	r.attempted += len(p.sched)
	r.failed += p.failed
	r.stamp["fixed_phase"] = map[string]any{"rate": fixedRate, "requests": len(p.sched),
		"p50_ms": p.latencyMs(0.5), "p99_ms": p.latencyMs(0.99), "failed": p.failed}

	slo, trail, err := sloSearch(r, in, r.seconds-fixedSec-closedSec)
	if err != nil {
		return err
	}
	r.stamp["slo_rps"] = slo
	r.stamp["slo_probes"] = trail
	return nil
}

// sloSearch bisects the fixed rate ladder for the highest rate whose
// open-loop phase keeps p99 within sloSec, spending about sec seconds.
func sloSearch(r *run, in *serveInputs, sec float64) (float64, []map[string]any, error) {
	rungs := rateLadder(64, 1024, 1.08)
	weights := probeWeights(int(math.Ceil(math.Log2(float64(len(rungs) + 1)))))
	var sum float64
	for _, wt := range weights {
		sum += wt
	}
	var trail []map[string]any
	var probeErr error
	best, _ := bisectLadder(len(rungs), func(i int) bool {
		if probeErr != nil {
			return false
		}
		probeSec := sec * weights[len(trail)] / sum
		q, err := runPhase(r, in, "ladder", rungs[i], probeSec, r.seed^uint64(i+1)<<8)
		if err != nil {
			probeErr = err
			return false
		}
		p99 := q.windowP99Ms(probeSec / probeWindows)
		pass := p99 <= sloSec*1e3
		trail = append(trail, map[string]any{"rate": rungs[i], "requests": len(q.sched),
			"window_p99_ms": p99, "p99_ms": q.latencyMs(0.99), "failed": q.failed, "pass": pass})
		return pass
	})
	if probeErr != nil {
		return 0, nil, probeErr
	}
	if best < 0 {
		return 0, trail, nil
	}
	return rungs[best], trail, nil
}

// probeWeights shares the ladder's time among n bisection probes in the
// order they run: 1, 1, 2, 3, … The first probes land far from the
// knee, where a short phase already gives a clear verdict; the last
// ones land next to it, where the verdict needs the most requests.
func probeWeights(n int) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Max(1, float64(k))
	}
	return w
}

// serveSection is the traced run's serving part: an open-loop phase
// bound by the batching window (lowRate) and one bound by compute
// (highRate), each request's trace points turned into spans.
func serveSection(r *run) error {
	w := r.w
	in, err := newServeInputs(w, r.seed)
	if err != nil {
		return err
	}
	sec := 0.2 * r.seconds
	low, err := runPhase(r, in, "low", w.lowRate, sec, r.seed^0x100)
	if err != nil {
		return err
	}
	high, err := runPhase(r, in, "high", w.highRate, sec, r.seed^0x200)
	if err != nil {
		return err
	}
	for _, p := range []*phase{low, high} {
		r.attempted += len(p.sched)
		r.failed += p.failed
		traceServe(r, p)
	}

	var admit, form, dispatch, compute, late []float64
	for i, resp := range low.resps {
		admit = append(admit, low.admit[i]*1e6)
		if resp.Err == nil {
			form = append(form, resp.Trace.FormWaitSec()*1e3)
		}
	}
	deadline := 0
	for _, b := range low.stats.Batches {
		if b.Reason == "deadline" {
			deadline++
		}
	}
	r.set("serve.admit_us.p50", "us", percentile(admit, 0.5))
	r.set("serve.admit_us.p99", "us", percentile(admit, 0.99))
	r.set("serve.batch_wait_ms.p50", "ms", percentile(form, 0.5))
	r.set("serve.batch_wait_ms.p99", "ms", percentile(form, 0.99))
	r.set("serve.deadline_close_frac", "ratio", float64(deadline)/float64(len(low.stats.Batches)))

	for i, resp := range high.resps {
		late = append(late, high.late[i]*1e3)
		if resp.Err == nil {
			dispatch = append(dispatch, resp.Trace.DispatchWaitSec()*1e3)
			compute = append(compute, resp.Trace.ComputeSec()*1e3)
		}
	}
	var busy, members float64
	first, last := math.Inf(1), 0.0
	for _, b := range high.stats.Batches {
		busy += b.DoneSec - b.StartSec
		members += float64(len(b.IDs))
		first = math.Min(first, b.CloseSec)
		last = math.Max(last, b.DoneSec)
	}
	r.set("serve.dispatch_wait_ms.p50", "ms", percentile(dispatch, 0.5))
	r.set("serve.dispatch_wait_ms.p99", "ms", percentile(dispatch, 0.99))
	r.set("serve.compute_ms.p50", "ms", percentile(compute, 0.5))
	r.set("serve.compute_ms.p99", "ms", percentile(compute, 0.99))
	r.set("serve.batch_occ", "ratio", members/float64(len(high.stats.Batches))/float64(serveCfg.MaxBatch))
	r.set("serve.util", "ratio", busy/(last-first))
	for _, ph := range []struct {
		tag string
		p   *phase
	}{{"low", low}, {"high", high}} {
		r.set("serve.p50_ms."+ph.tag, "ms", ph.p.latencyMs(0.5))
		r.set("serve.p99_ms."+ph.tag, "ms", ph.p.latencyMs(0.99))
	}
	r.set("serve.gen_late_ms.p99", "ms", percentile(late, 0.99))
	return nil
}

// traceServe turns a phase's per-request trace points and batch log
// into spans: one per request from its due time to completion, with
// admission, batch-form wait, dispatch wait and compute as children,
// and one per batch.
func traceServe(r *run, p *phase) {
	tr := r.tr
	at := func(sec float64) time.Time { return p.origin.Add(time.Duration(sec * float64(time.Second))) }
	label := fmt.Sprintf("serve.r%.0f", p.rate)
	root := tr.add(label, "serve", 0, 4, p.start, at(p.stats.Batches[len(p.stats.Batches)-1].DoneSec), nil)
	for i, resp := range p.resps {
		due := p.start.Add(time.Duration(p.sched[i].AtSec * float64(time.Second)))
		t := resp.Trace
		req := tr.add("serve.request", "serve", root, 4, due, at(t.DoneSec),
			map[string]any{"request": resp.ID, "kind": resp.Kind.String(), "batch": resp.BatchSeq})
		sub := due.Add(time.Duration(p.late[i] * float64(time.Second)))
		tr.add("serve.admit", "serve", req, 4, sub, sub.Add(time.Duration(p.admit[i]*float64(time.Second))), nil)
		if resp.Err != nil {
			continue
		}
		tr.add("serve.batch_wait", "serve", req, 4, at(t.ArrivalSec), at(t.BatchFormSec), nil)
		tr.add("serve.dispatch_wait", "serve", req, 4, at(t.BatchFormSec), at(t.ComputeStartSec), nil)
		tr.add("serve.compute", "serve", req, 4, at(t.ComputeStartSec), at(t.DoneSec), nil)
	}
	for _, b := range p.stats.Batches {
		tr.add("serve.batch", "serve", root, 5, at(b.CloseSec), at(b.DoneSec),
			map[string]any{"size": len(b.IDs), "reason": b.Reason, "engine": b.Engine})
	}
}
