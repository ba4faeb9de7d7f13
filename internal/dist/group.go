package dist

import (
	"fmt"

	"repro/internal/comm"
)

// Group is a communicator scoped to a subset of a World's ranks: the
// same ring collectives as the World, running over the group's own
// per-edge channels, so collectives on disjoint groups proceed
// concurrently without interfering (the communicator structure behind
// HYBRID_SHARD's two-level scheme: FULL_SHARD collectives inside each
// shard group, gradient all-reduce across each replica group).
//
// A Group's accounting composes with the parent World's Stats: every
// byte a member puts on a group ring edge is counted against that
// member's world rank, and calls are priced by the same α–β model,
// recorded from world rank 0's perspective (see Stats).
//
// The World itself is the degenerate Group over all ranks (World.Group).
//
// The ring collectives (AllReduce, ReduceScatter, AllGather, Broadcast)
// all issue onto the calling rank's FIFO queue for the group and
// return a *Handle; a blocking call is the issue followed immediately
// by Wait. Buffers are validated on the issuing goroutine, so a
// malformed call panics at the call site. Barrier and AllReduceScalar
// are control plane: they run synchronously on the calling goroutine
// over the group's barrier and scalar slot table, not its ring.
type Group struct {
	w    *World
	n    int
	link comm.Params

	members []int       // world rank ids in ring order
	index   map[int]int // world rank id → group-local rank

	// data[i] carries views from member i to member (i+1)%n; ack[i]
	// carries the matching consumption acknowledgements back. Each
	// member runs the group's collectives one at a time, in issue order,
	// on its queue worker, so one edge pair serves every collective.
	data []chan payload
	ack  []chan struct{}

	bar     barrier
	scalars []float64
}

func newGroup(w *World, members []int, link comm.Params) *Group {
	g := &Group{
		w:       w,
		n:       len(members),
		link:    link,
		members: append([]int(nil), members...),
		index:   make(map[int]int, len(members)),
		data:    make([]chan payload, len(members)),
		ack:     make([]chan struct{}, len(members)),
		scalars: make([]float64, len(members)),
	}
	for i, id := range g.members {
		g.index[id] = i
	}
	g.bar.init(g.n)
	for i := range g.data {
		g.data[i] = make(chan payload, 1)
		g.ack[i] = make(chan struct{}, 1)
	}
	return g
}

// Subgroup returns the communicator over the given world ranks, in ring
// order. The slice must be non-empty, without duplicates, and every
// entry must be a valid world rank. Groups are memoized by their exact
// rank sequence — every member calling Subgroup with the same slice
// (the SPMD convention, like MPI_Comm_split) observes the same Group —
// so Subgroup is safe to call before Run or concurrently from inside
// it, and a group survives across steps and Runs.
func (w *World) Subgroup(ranks []int) *Group {
	if len(ranks) == 0 {
		panic("dist: empty subgroup")
	}
	seen := make(map[int]bool, len(ranks))
	for _, id := range ranks {
		if id < 0 || id >= w.n {
			panic(fmt.Sprintf("dist: subgroup rank %d outside world %d", id, w.n))
		}
		if seen[id] {
			panic(fmt.Sprintf("dist: duplicate rank %d in subgroup", id))
		}
		seen[id] = true
	}
	// The whole world in ring order IS the root group: reuse it rather
	// than allocating a second full-world communicator (ZeRO-1 and
	// FULL_SHARD request exactly this shape).
	if len(ranks) == w.n {
		identity := true
		for i, id := range ranks {
			if id != i {
				identity = false
				break
			}
		}
		if identity {
			return w.root
		}
	}
	key := fmt.Sprint(ranks)
	w.subMu.Lock()
	defer w.subMu.Unlock()
	if g, ok := w.subs[key]; ok {
		return g
	}
	g := newGroup(w, ranks, w.link)
	w.subs[key] = g
	w.groups = append(w.groups, g)
	// A world that already aborted poisons new groups immediately so a
	// straggler rank cannot park in a dead group's barrier.
	select {
	case <-w.abort:
		g.bar.doAbort()
	default:
	}
	return g
}

// Size returns the number of member ranks.
func (g *Group) Size() int { return g.n }

// Ranks returns the member world ranks in ring order.
func (g *Group) Ranks() []int { return append([]int(nil), g.members...) }

// RankOf returns r's group-local rank, or -1 if r is not a member.
func (g *Group) RankOf(r *Rank) int {
	if id, ok := g.index[r.ID()]; ok {
		return id
	}
	return -1
}

// on resolves the calling rank's member handle, panicking for
// non-members (a collective entered by a rank outside the group can
// only deadlock).
func (g *Group) on(r *Rank) member {
	id, ok := g.index[r.id]
	if !ok {
		panic(fmt.Sprintf("dist: rank %d is not a member of subgroup %v", r.id, g.members))
	}
	return member{g: g, r: r, id: id}
}

// AllReduce sums buf element-wise across the group's members, leaving
// every member with the identical full result; Wait returns nil.
// len(buf) must be a multiple of the group size. wire selects the wire
// format (nil: fp32; non-nil: bf16 scratch with len(wire) == len(buf),
// and the result is bf16-valued). A non-nil after orders the operation
// behind that handle, typically from another group's queue — how
// HYBRID_SHARD chains a bucket's replica-group all-reduce behind its
// shard-group reduce-scatter without serializing the two queues.
func (g *Group) AllReduce(r *Rank, buf []float32, wire []uint16, after *Handle) *Handle {
	m := g.on(r).enter(OpAllReduce)
	m.check(OpAllReduce, buf, wire)
	return m.issue(after, func() []float32 { m.allReduce(buf, wire); return nil })
}

// ReduceScatter sums buf element-wise across the group; Wait returns
// the calling member's fully reduced shard: chunk RankOf(r) of the
// Size() uniform chunks of buf, as a view into buf (accumulated in
// fp32 on either wire). The other chunks hold partial sums afterwards
// and must be treated as garbage. len(buf) must be a multiple of the
// group size; wire as for AllReduce.
func (g *Group) ReduceScatter(r *Rank, buf []float32, wire []uint16) *Handle {
	m := g.on(r).enter(OpReduceScatter)
	m.check(OpReduceScatter, buf, wire)
	return m.issue(nil, func() []float32 { return m.reduceScatter(buf, wire) })
}

// AllGather fills buf with every member's shard: member i contributes
// chunk i; Wait returns nil. If shard is non-nil it is copied into the
// caller's chunk first (shard may alias that chunk, and must be
// len(buf)/Size() long); if nil the chunk is assumed to already hold
// the contribution. len(buf) must be a multiple of the group size;
// wire as for AllReduce. On the bf16 wire every contribution is
// rounded before it travels — the caller's own chunk included, which
// is rewritten in place — so all members hold bit-identical buffers.
func (g *Group) AllGather(r *Rank, buf, shard []float32, wire []uint16) *Handle {
	m := g.on(r).enter(OpAllGather)
	m.check(OpAllGather, buf, wire)
	if shard != nil && len(shard) != len(buf)/g.n {
		panic(fmt.Sprintf("dist: all-gather shard length %d, want %d", len(shard), len(buf)/g.n))
	}
	return m.issue(nil, func() []float32 { m.allGather(buf, shard, wire); return nil })
}

// Broadcast copies the group-local root member's buf to every member
// via a pipelined fp32 ring; Wait returns nil. Any length is allowed.
func (g *Group) Broadcast(r *Rank, buf []float32, root int) *Handle {
	m := g.on(r).enter(OpBroadcast)
	if root < 0 || root >= g.n {
		panic(fmt.Sprintf("dist: broadcast root %d outside group of %d", root, g.n))
	}
	return m.issue(nil, func() []float32 { m.broadcast(buf, root); return nil })
}

// Barrier blocks until every member has entered it.
func (g *Group) Barrier(r *Rank) { g.on(r); g.bar.wait() }

// AllReduceScalar sums a float64 control value (loss averaging, global
// gradient norms) across the group's members in group-rank order and
// returns the deterministic, bit-identical total on every member.
// Counted under OpScalar in Stats; scalar control traffic is excluded
// from the wire-byte comparisons against the fsdp simulator, which
// does not model it.
func (g *Group) AllReduceScalar(r *Rank, v float64) float64 {
	return g.on(r).enter(OpScalar).allReduceScalar(v)
}
