// Package mustwait is a statgate fixture: dist collective handles that
// are dropped, leaked, chained, waited (later or immediately, as a
// blocking call), and escaped.
package mustwait

import "repro/internal/dist"

func dropped(g *dist.Group, r *dist.Rank, buf []float32) {
	g.AllReduce(r, buf, nil, nil) // want `dropped`
}

func blanked(g *dist.Group, r *dist.Rank, buf []float32) {
	_ = g.AllReduce(r, buf, nil, nil) // want `assigned to _`
}

func leaked(g *dist.Group, r *dist.Rank, buf []float32) {
	h := g.AllReduce(r, buf, nil, nil) // want `function ends without Wait`
	_ = h
}

func earlyReturn(g *dist.Group, r *dist.Rank, buf []float32, cond bool) {
	h := g.AllReduce(r, buf, nil, nil) // want `this path returns without Wait`
	if cond {
		return
	}
	h.Wait()
}

func overwritten(g *dist.Group, r *dist.Rank, buf []float32) {
	h := g.AllReduce(r, buf, nil, nil) // want `overwrites`
	h = g.AllReduce(r, buf, nil, nil)
	h.Wait()
}

func waited(g *dist.Group, r *dist.Rank, buf []float32) {
	h := g.AllReduce(r, buf, nil, nil)
	h.Wait()
}

func chained(g *dist.Group, r *dist.Rank, buf, buf2 []float32) []float32 {
	h := g.ReduceScatter(r, buf, nil)
	h2 := g.AllReduce(r, buf2, nil, h)
	return h2.Wait()
}

func branchesBothWait(g *dist.Group, r *dist.Rank, buf []float32, bf16 bool, wire []uint16) {
	var h *dist.Handle
	if bf16 {
		h = g.AllReduce(r, buf, wire, nil)
	} else {
		h = g.AllReduce(r, buf, nil, nil)
	}
	h.Wait()
}

func blocking(g *dist.Group, r *dist.Rank, buf []float32) {
	g.AllReduce(r, buf, nil, nil).Wait()
}

func forgottenBlocking(g *dist.Group, r *dist.Rank, buf []float32) {
	g.AllGather(r, buf, nil, nil) // want `dropped`
}

func escapesReturn(g *dist.Group, r *dist.Rank, buf []float32) *dist.Handle {
	return g.AllReduce(r, buf, nil, nil)
}

func escapesVarReturn(g *dist.Group, r *dist.Rank, buf []float32) *dist.Handle {
	h := g.AllReduce(r, buf, nil, nil)
	return h
}

type carrier struct {
	h *dist.Handle
}

func escapesField(g *dist.Group, r *dist.Rank, buf []float32, c *carrier) {
	h := g.AllReduce(r, buf, nil, nil)
	c.h = h
}

func escapesClosure(g *dist.Group, r *dist.Rank, buf []float32, run func(func())) {
	h := g.AllReduce(r, buf, nil, nil)
	run(func() { h.Wait() })
}

func loopLeak(g *dist.Group, r *dist.Rank, buf []float32, n int) {
	for i := 0; i < n; i++ {
		h := g.AllReduce(r, buf, nil, nil) // want `this continue ends the iteration`
		if i == 0 {
			continue
		}
		h.Wait()
	}
}

func allowed(g *dist.Group, r *dist.Rank, buf []float32) {
	//statgate:allow mustwait — fixture: rank-exit backstop fails this handle deliberately
	g.AllReduce(r, buf, nil, nil)
}
