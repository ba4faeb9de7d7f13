package dist

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// Rank is one participant's handle into the World. A Rank must only be
// used from the goroutine World.Run assigned it to. It carries no
// collectives itself: every collective is a Group method taking the
// calling Rank, and World.Group is the communicator over all ranks.
type Rank struct {
	w  *World
	id int

	// sentBytes counts what this rank physically sent to a ring
	// successor — in the world ring or any subgroup ring — per
	// collective kind: the measured side of Stats. Atomic because the
	// rank's queue workers (one per group, running concurrently) and
	// its own goroutine (scalar reductions) all add to it.
	sentBytes [numOps]atomic.Int64

	// queues are the rank's per-group issue queues (lazily started
	// worker goroutines; see async.go). Touched only from the rank's
	// own goroutine.
	queues map[*Group]*asyncQueue

	// collectives counts collective entries on this rank — the
	// deterministic sequence a FaultPlan indexes; see fault.go.
	// Touched only from the rank's goroutine.
	collectives int64
}

// ID returns the rank index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.n }

// abortable channel operations: every blocking ring edge also watches
// the world's abort channel, so a peer's death surfaces as an
// ErrAborted panic (recovered by World.Run) instead of a deadlock.
func (r *Rank) sendView(ch chan payload, v payload) {
	select {
	case ch <- v:
	case <-r.w.abort:
		panic(ErrAborted)
	}
}

func (r *Rank) recvView(ch chan payload) payload {
	select {
	case v := <-ch:
		return v
	case <-r.w.abort:
		panic(ErrAborted)
	}
}

func (r *Rank) sendSig(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	case <-r.w.abort:
		panic(ErrAborted)
	}
}

func (r *Rank) recvSig(ch chan struct{}) {
	select {
	case <-ch:
	case <-r.w.abort:
		panic(ErrAborted)
	}
}

// member is a rank's position inside one communicator's ring: the ring
// algorithms below are written against it, so the world group and every
// subgroup execute identical code over their own per-edge channels.
type member struct {
	g  *Group
	r  *Rank
	id int // group-local ring position
}

// ring-edge channels for this member.
func (m member) sendCh() chan payload   { return m.g.data[m.id] }
func (m member) recvCh() chan payload   { return m.g.data[(m.id-1+m.g.n)%m.g.n] }
func (m member) ackSend() chan struct{} { return m.g.ack[(m.id-1+m.g.n)%m.g.n] }
func (m member) ackRecv() chan struct{} { return m.g.ack[m.id] }

// exchange performs one synchronized ring step: publish a read-only
// view to the successor, receive the predecessor's view, let process
// consume it, acknowledge, and wait for the successor's acknowledgement
// so the published view may be rewritten afterwards. The send channels
// have capacity 1 and the acknowledgement gates the next step, so no
// edge ever holds more than one in-flight view and a view is never read
// after its step completes.
func (m member) exchange(op Op, view payload, process func(recv payload)) {
	m.r.sentBytes[op].Add(view.bytes())
	m.r.sendView(m.sendCh(), view)
	recv := m.r.recvView(m.recvCh())
	process(recv)
	m.r.sendSig(m.ackSend())
	m.r.recvSig(m.ackRecv())
}

// chunkOf returns the c-th of n uniform chunks of s.
func chunkOf[T float32 | uint16](s []T, c, n int) []T {
	cs := len(s) / n
	return s[c*cs : (c+1)*cs]
}

// check validates a ring collective's buffers on the issuing
// goroutine, so a malformed call panics at the call site instead of
// inside a queue worker where it would abort every peer.
func (m member) check(op Op, buf []float32, wire []uint16) {
	if len(buf)%m.g.n != 0 {
		panic(fmt.Sprintf("dist: %v buffer length %d not divisible by group size %d (pad the buffer)",
			op, len(buf), m.g.n))
	}
	if wire != nil && len(wire) != len(buf) {
		panic(fmt.Sprintf("dist: %v bf16 wire scratch length %d, want %d", op, len(wire), len(buf)))
	}
}

// begin starts model/wall accounting for one call. Stats keeps world
// rank 0's view of the SPMD schedule, so only calls entered by world
// rank 0 are recorded (see Stats).
func (m member) begin() time.Time {
	if m.r.id == 0 {
		return time.Now()
	}
	return time.Time{}
}

func (m member) end(op Op, c comm.Cost, t0 time.Time) {
	if m.r.id == 0 {
		m.g.w.record(op, c, time.Since(t0))
	}
	// Congested-link mode: realize the modeled cost as wall time on
	// every rank, so executed step times carry the α–β collective cost
	// the simulator prices (Options.Throttle). A rank with a throttle
	// skew sleeps proportionally longer — the straggler whose delay the
	// lockstep collectives impose on every peer.
	if th := m.g.w.throttle; th > 0 && c.Time > 0 {
		if s, ok := m.g.w.skew[m.r.id]; ok && s > 0 {
			th *= s
		}
		time.Sleep(time.Duration(c.Time * th * float64(time.Second)))
	}
}

// reduceScatterRing: at step s member i sends chunk (i−1−s) mod n —
// the chunk it finished accumulating in the previous step, encoded for
// the wire — and accumulates the received chunk (i−2−s) mod n into its
// buffer. After n−1 steps chunk i on member i carries every member's
// contribution.
func (m member) reduceScatterRing(op Op, b wireBuf) {
	n := m.g.n
	for s := 0; s < n-1; s++ {
		m.exchange(op, b.encode(mod(m.id-1-s, n)), func(recv payload) {
			b.add(mod(m.id-2-s, n), recv)
		})
	}
}

// allGatherRing: the member's own chunk is rounded to its wire image
// once, then at step s member i forwards chunk (i−s) mod n (its own
// chunk first, then whatever it received last step) verbatim and
// stores the received chunk (i−1−s) mod n.
func (m member) allGatherRing(op Op, b wireBuf) {
	n := m.g.n
	b.round(m.id)
	for s := 0; s < n-1; s++ {
		m.exchange(op, b.view(mod(m.id-s, n)), func(recv payload) {
			b.store(mod(m.id-1-s, n), recv)
		})
	}
}

func (m member) reduceScatter(buf []float32, wire []uint16) []float32 {
	b := wireBuf{buf: buf, wire: wire, chunks: m.g.n}
	t0 := m.begin()
	m.reduceScatterRing(OpReduceScatter, b)
	m.end(OpReduceScatter, comm.ReduceScatter(b.wireBytes(), m.g.n, m.g.link), t0)
	return chunkOf(buf, m.id, m.g.n)
}

func (m member) allGather(buf, shard []float32, wire []uint16) {
	if shard != nil {
		copy(chunkOf(buf, m.id, m.g.n), shard)
	}
	b := wireBuf{buf: buf, wire: wire, chunks: m.g.n}
	t0 := m.begin()
	m.allGatherRing(OpAllGather, b)
	m.end(OpAllGather, comm.AllGather(b.wireBytes(), m.g.n, m.g.link), t0)
}

// allReduce is ring reduce-scatter followed by ring all-gather, the
// same algorithm RCCL runs.
func (m member) allReduce(buf []float32, wire []uint16) {
	b := wireBuf{buf: buf, wire: wire, chunks: m.g.n}
	t0 := m.begin()
	m.reduceScatterRing(OpAllReduce, b)
	m.allGatherRing(OpAllReduce, b)
	m.end(OpAllReduce, comm.AllReduce(b.wireBytes(), m.g.n, m.g.link), t0)
}

// broadcast pipelines the root's whole buffer around the ring: each
// member forwards the payload to its successor, so every member but
// the last puts the full buffer on the wire once.
func (m member) broadcast(buf []float32, root int) {
	n := m.g.n
	b := wireBuf{buf: buf, chunks: 1}
	t0 := m.begin()
	if n > 1 {
		pos := mod(m.id-root, n) // distance from root along the ring
		if pos > 0 {
			b.store(0, m.r.recvView(m.recvCh()))
			m.r.sendSig(m.ackSend())
		}
		if pos < n-1 {
			v := b.view(0)
			m.r.sentBytes[OpBroadcast].Add(v.bytes())
			m.r.sendView(m.sendCh(), v)
			m.r.recvSig(m.ackRecv())
		}
	}
	m.end(OpBroadcast, comm.Broadcast(b.wireBytes(), n, m.g.link), t0)
}

func (m member) allReduceScalar(v float64) float64 {
	g := m.g
	if g.n == 1 {
		if m.r.id == 0 {
			g.w.record(OpScalar, comm.Cost{}, 0)
		}
		return v
	}
	t0 := m.begin()
	g.scalars[m.id] = v
	g.bar.wait()
	var total float64
	for _, x := range g.scalars {
		total += x
	}
	g.bar.wait() // the slot table may be reused after every member has read it
	m.r.sentBytes[OpScalar].Add(8)
	m.end(OpScalar, comm.AllReduce(8, g.n, g.link), t0)
	return total
}

func mod(a, n int) int { return ((a % n) + n) % n }
