package dist

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Issue queues and handles: the executed analog of launching a
// collective on a side communication stream and synchronizing on its
// completion event later. Every ring collective is issued: the calling
// rank's goroutine validates the buffers, counts the entry against the
// fault plan and enqueues the operation on its per-(rank, group) FIFO
// queue, whose worker goroutine runs the ring machinery. Wait blocks
// until the operation — and every operation issued before it on the
// same group — has completed. A blocking collective is the issue
// followed immediately by Wait; the overlapped training path
// (train.PretrainDistributed with Overlap) instead keeps computing and
// Waits later, hiding gradient reductions behind the remaining
// backward compute, exactly as FSDP overlaps per-unit reduce-scatters
// on Frontier.
//
// # Protocol
//
//	h := grp.ReduceScatter(rank, bucket, wire)
//	... keep computing on other buffers ...
//	shard := h.Wait()
//
//	grp.AllGather(rank, params, nil, wire).Wait() // blocking
//
// Rules, mirroring a CUDA/RCCL side stream:
//
//   - Issue order is execution order. Operations issued by one rank on
//     one group run strictly FIFO — blocking and overlapped calls
//     alike, since both go through the one queue; every member of the
//     group must issue the same operations in the same order (the
//     usual SPMD collective contract, now per queue).
//   - The buffers handed to a collective (buf, shard, wire) are owned
//     by it until Wait returns. Reading or writing them earlier is a
//     data race.
//   - Queues of different groups run concurrently. AllReduce's after
//     argument orders an operation behind a handle from a *different*
//     group's queue — how HYBRID_SHARD chains each gradient bucket's
//     replica-group all-reduce behind its shard-group reduce-scatter
//     without serializing the two queues.
//   - Barrier and AllReduceScalar do not use the queue: they run on
//     the calling goroutine over a separate slot table, unaffected by
//     ring work in flight.
//
// Determinism: the worker executes the ring algorithms in issue order
// regardless of when the caller Waits, so an overlapped schedule
// produces bit-for-bit the same buffers and the same measured/modeled
// byte accounting as its blocking twin.
//
// A rank that returns from World.Run with operations still queued —
// a protocol violation, since Wait-ing every handle implies an empty
// queue — abandons them: the worker fails their handles with
// ErrAborted instead of executing a collective on behalf of an exited
// rank (an operation already mid-ring cannot be stopped). A peer
// rank failing while an operation is parked in the ring unblocks it
// with ErrAborted, re-raised by Wait.

// Handle is one issued ring collective.
type Handle struct {
	done  chan struct{}
	shard []float32 // result view (reduce-scatter), nil otherwise
	err   error
}

// Wait blocks until the collective completes and returns its result
// view: the caller's fully reduced shard for ReduceScatter, nil
// otherwise. If the world aborted (a peer rank died) Wait re-raises
// ErrAborted, which World.Run recovers like any collective abort.
func (h *Handle) Wait() []float32 {
	<-h.done
	if h.err != nil {
		panic(h.err)
	}
	return h.shard
}

// asyncOp is one queued collective: run executes the ring machinery on
// the worker goroutine once dep (if any) has completed.
type asyncOp struct {
	h   *Handle
	dep *Handle
	run func() []float32
}

// asyncQueue is the issue queue of one (rank, group) pair plus its
// worker goroutine — the rank's private lane into the group's comm
// "stream".
type asyncQueue struct {
	ops chan asyncOp
	// closing is set before the queue closes so the worker abandons
	// still-queued operations (failing their handles with ErrAborted)
	// instead of executing them against a rank that already exited.
	closing atomic.Bool
}

// asyncQueueDepth bounds how many collectives a rank can have issued
// but not yet executed; beyond it the issuing rank blocks (backpressure
// like a full hardware launch queue).
const asyncQueueDepth = 64

// queue resolves (and lazily starts) the rank's worker for g. Called
// from the rank's own goroutine only.
func (r *Rank) queue(g *Group) *asyncQueue {
	if r.queues == nil {
		r.queues = make(map[*Group]*asyncQueue)
	}
	q, ok := r.queues[g]
	if !ok {
		q = &asyncQueue{ops: make(chan asyncOp, asyncQueueDepth)}
		r.queues[g] = q
		go q.loop(r.w)
	}
	return q
}

// closeAsync shuts down the rank's workers when its Run function
// returns; a fresh Run lazily restarts them. In a correct program the
// queues are empty here — every issued operation was Waited, so it
// completed before the rank returned; anything still queued is a
// protocol violation and is abandoned rather than executed.
func (r *Rank) closeAsync() {
	for _, q := range r.queues {
		q.closing.Store(true)
		close(q.ops)
	}
	r.queues = nil
}

func (q *asyncQueue) loop(w *World) {
	for op := range q.ops {
		q.exec(w, op)
	}
}

// abandoned reports whether the op must not run: the world died, or
// the issuing rank exited with the op still queued.
func (q *asyncQueue) abandoned(w *World) bool {
	if q.closing.Load() {
		return true
	}
	select {
	case <-w.abort:
		return true
	default:
		return false
	}
}

// exec runs one queued collective, converting panics (ErrAborted from
// a dying peer, or a genuine bug) into the handle's error so Wait can
// re-raise them on the issuing rank's goroutine.
func (q *asyncQueue) exec(w *World, op asyncOp) {
	defer func() {
		if p := recover(); p != nil {
			if err, ok := p.(error); ok && errors.Is(err, ErrAborted) {
				op.h.err = ErrAborted
			} else if err, ok := p.(error); ok {
				// %w keeps the chain intact so Wait re-raises an error
				// callers can still match sentinels against.
				op.h.err = fmt.Errorf("dist: async collective panicked: %w", err)
				w.doAbort()
			} else {
				op.h.err = fmt.Errorf("dist: async collective panicked: %v", p)
				w.doAbort()
			}
		}
		close(op.h.done)
	}()
	if op.dep != nil {
		select {
		case <-op.dep.done:
			if op.dep.err != nil {
				panic(ErrAborted)
			}
		case <-w.abort:
			panic(ErrAborted)
		}
	}
	if q.abandoned(w) {
		panic(ErrAborted)
	}
	op.h.shard = op.run()
}

// issue enqueues one collective on the member's queue for its group.
// The caller has already counted the entry (enter) and validated the
// buffers on the issuing goroutine.
func (m member) issue(after *Handle, run func() []float32) *Handle {
	h := &Handle{done: make(chan struct{})}
	m.r.queue(m.g).ops <- asyncOp{h: h, dep: after, run: run}
	return h
}
