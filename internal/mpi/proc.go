package mpi

import "fmt"

// procTransport is the in-process Transport: one goroutine per rank
// sharing a world of per-pair FIFO mailboxes, one set for
// point-to-point data and a disjoint set for the collective lane.
// Point-to-point transfer copies are drawn from a shared buffer pool so
// the zero-copy recycling fast path spans sender and receiver.
// Collective payloads are lent, not copied: a collective returns only
// once its peers have read what it lent, which a reduction's result
// shows and an Allgatherv or Alltoallv reader acknowledges with an
// empty frame on the same FIFO. It is the transport Run/RunThreads
// build, and the reference the socket transport must match
// bit-for-bit.
type procTransport struct {
	w    *world
	rank int
	coll coll
}

// NewProcWorld builds an in-process world of n ranks and returns the
// per-rank transports. All transports share one address space; RunWorld
// (or Run, which wraps it) executes a rank function on each.
func NewProcWorld(n int) []Transport {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: NewProcWorld with %d ranks", n))
	}
	w := newWorld(n)
	ts := make([]Transport, n)
	for r := range ts {
		p := &procTransport{w: w, rank: r}
		lend := func(dst int, seq uint32, payload []int64) {
			w.boxes[(n+dst)*n+r].put(message{i64: payload, tag: seq})
		}
		p.coll = coll{rank: r, size: n, in: w.boxes[(n+r)*n : (n+r+1)*n], send: lend}
		ts[r] = p
	}
	return ts
}

func (p *procTransport) Rank() int { return p.rank }
func (p *procTransport) Size() int { return p.w.size }

// Send64 copies data into a pooled buffer and enqueues it on the
// (p.rank, dst) mailbox; completion is eager.
//
//repro:hotpath
func (p *procTransport) Send64(dst int, tag uint32, data []int64) {
	if dst < 0 || dst >= p.w.size {
		panic(fmt.Sprintf("mpi: Isend64 to rank %d outside [0,%d)", dst, p.w.size))
	}
	cp := p.w.pool.get(len(data))
	copy(cp, data)
	p.w.box(p.rank, dst).put(message{i64: cp, tag: tag})
}

// Recv64 dequeues the oldest message from src.
//
//repro:hotpath
func (p *procTransport) Recv64(src int) ([]int64, uint32) {
	if src < 0 || src >= p.w.size {
		panic(fmt.Sprintf("mpi: Recv64 from rank %d outside [0,%d)", src, p.w.size))
	}
	msg := p.w.box(src, p.rank).take()
	return msg.i64, msg.tag
}

//repro:hotpath
func (p *procTransport) Recycle64(buf []int64) {
	p.w.pool.put(buf)
}

// The collectives run the shared algorithms of coll.go over this
// transport's lane.

func (p *procTransport) Barrier() { p.coll.barrier() }
func (p *procTransport) AllreduceI64(vals []int64, op Op) []int64 {
	return allreduce(&p.coll, vals, op)
}
func (p *procTransport) AllreduceF64(vals []float64, op Op) []float64 {
	return allreduce(&p.coll, vals, op)
}
func (p *procTransport) BcastI64(root int, data []int64) []int64 { return p.coll.bcast(root, data) }
func (p *procTransport) AllgathervI64(data []int64) [][]int64    { return p.coll.allgatherv(data) }
func (p *procTransport) AlltoallvI64(send []int64, counts []int) ([]int64, []int) {
	return alltoallv(&p.coll, send, counts)
}
func (p *procTransport) AlltoallvF64(send []float64, counts []int) ([]float64, []int) {
	return alltoallv(&p.coll, send, counts)
}

// Abort poisons the shared world so every rank blocked in a collective
// or a point-to-point wait unwinds.
func (p *procTransport) Abort() { p.w.poisonAll() }

// Close is a no-op: the world is shared by all ranks and dies with the
// process; there are no per-rank resources to release.
func (p *procTransport) Close() error { return nil }
