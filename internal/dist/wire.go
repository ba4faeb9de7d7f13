package dist

import "repro/internal/tensor"

// Wire formats. Every ring collective takes a wire argument: nil runs
// the fp32 wire, where ranks exchange read-only views of the caller's
// buffer with no copy and no scratch; non-nil is caller-provided
// uint16 scratch with len(wire) == len(buf) and runs the bf16 wire,
// where every view that crosses a ring edge is a []uint16 of bf16
// payloads — exactly half the bytes — while reduction arithmetic stays
// in the caller's float32 buffer. The bf16 wire reproduces how RCCL
// moves bf16 gradients on Frontier: the wire dtype is bf16, each
// rank's accumulation happens at higher effective precision, and the
// chunk a rank forwards is the round-nearest-even bf16 image of its
// current fp32 partial sum.
//
// Determinism: the ring fixes the accumulation order, and bf16
// rounding is a pure function, so for a given group size every member
// computes bit-identical results — all-reduce and all-gather leave all
// members with the same bf16-valued float32s.
//
// Accounting: both the measured counters and the α–β model price bf16
// calls at 2 bytes per element, so `measured == modeled` and
// `measured == fsdp.TrafficPerStep(..., 2)` hold exactly, mirroring
// the fp32 wire's invariants at half the volume.

// payload is one view crossing a ring edge: a chunk of the caller's
// fp32 buffer, or its bf16 image in the wire scratch. Exactly one of
// the two slices is set.
type payload struct {
	f32  []float32
	bf16 []uint16
}

// bytes is the payload's wire size.
func (p payload) bytes() int64 { return int64(len(p.f32))*4 + int64(len(p.bf16))*2 }

// wireBuf is a collective's buffer split into uniform chunks, together
// with its wire format. The ring schedules are written against its
// whole-chunk steps, so each schedule exists once for both wires.
type wireBuf struct {
	buf    []float32
	wire   []uint16 // nil: fp32 wire
	chunks int
}

// wireBytes is the buffer's size on the wire.
func (b wireBuf) wireBytes() float64 {
	if b.wire == nil {
		return float64(len(b.buf) * 4)
	}
	return float64(len(b.buf) * 2)
}

// encode converts chunk c of buf to its wire format and returns the
// view to send: the chunk itself on the fp32 wire, its bf16 rounding
// (written into the wire scratch) on the bf16 wire.
func (b wireBuf) encode(c int) payload {
	if b.wire == nil {
		return payload{f32: chunkOf(b.buf, c, b.chunks)}
	}
	w := chunkOf(b.wire, c, b.chunks)
	tensor.ToBF16(w, chunkOf(b.buf, c, b.chunks))
	return payload{bf16: w}
}

// view returns chunk c's current wire image without re-encoding it —
// the chunk a ring step forwards verbatim.
func (b wireBuf) view(c int) payload {
	if b.wire == nil {
		return payload{f32: chunkOf(b.buf, c, b.chunks)}
	}
	return payload{bf16: chunkOf(b.wire, c, b.chunks)}
}

// add accumulates a received chunk into chunk c of buf in fp32.
func (b wireBuf) add(c int, p payload) {
	acc := chunkOf(b.buf, c, b.chunks)
	if b.wire == nil {
		for j := range acc {
			acc[j] += p.f32[j]
		}
		return
	}
	// Widen through the vector kernel in stack-buffer blocks, then
	// accumulate — this loop is every ring hop of every bf16 gradient
	// reduction.
	var wide [512]float32
	for off := 0; off < len(p.bf16); off += len(wide) {
		end := min(off+len(wide), len(p.bf16))
		w := wide[:end-off]
		tensor.FromBF16(w, p.bf16[off:end])
		a := acc[off:end]
		for j := range a {
			a[j] += w[j]
		}
	}
}

// store lands a received chunk as chunk c: copied into buf on the fp32
// wire; on the bf16 wire kept in the scratch (so the next step can
// forward it without re-rounding) and widened into buf.
func (b wireBuf) store(c int, p payload) {
	dst := chunkOf(b.buf, c, b.chunks)
	if b.wire == nil {
		copy(dst, p.f32)
		return
	}
	w := chunkOf(b.wire, c, b.chunks)
	copy(w, p.bf16)
	tensor.FromBF16(dst, w)
}

// round replaces chunk c of buf with its wire image. A no-op on the
// fp32 wire; on the bf16 wire the owner's own contribution is rounded
// once, so every member — owner included — ends with the same bytes.
func (b wireBuf) round(c int) {
	if b.wire == nil {
		return
	}
	w := chunkOf(b.wire, c, b.chunks)
	own := chunkOf(b.buf, c, b.chunks)
	tensor.ToBF16(w, own)
	tensor.FromBF16(own, w)
}
