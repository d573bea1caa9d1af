package mpi

import (
	"fmt"
	"slices"
	"time"
	"unsafe"
)

// The seven collectives, written once. Like MPICH's (Thakur,
// Rabenseifner and Gropp, IJHPCA 2005) they are built from
// point-to-point messages, here over a transport's collective lane: one
// FIFO per ordered rank pair, disjoint from the point-to-point data
// FIFOs so a helper goroutine can keep receiving data while the main
// goroutine is inside a collective. Every frame carries the
// collective's sequence number, which all ranks advance in step, so a
// skipped or reordered collective surfaces as a named panic.
//
// Reductions gather at rank 0 and fold in ascending rank order, so
// float64 results are bit-identical on every transport. Allreduce and
// Bcast give every rank its own copy of their small result. Barrier,
// Allgatherv and Alltoallv send straight between every pair of ranks;
// on a lending lane the (large) Allgatherv and Alltoallv chunks are
// lent and acknowledged, not copied. Every result belongs to its
// caller.

// coll is one rank's collective lane and state.
type coll struct {
	rank, size int
	seq        uint32     // collective sequence; main goroutine only
	in         []*mailbox // collective FIFOs into this rank, by source
	// send queues payload for dst, stamped with seq.
	send func(dst int, seq uint32, payload []int64)
	// pool is set when send copies (the socket's encode): received
	// payloads are recycled into it. Without it the lane lends: send
	// passes the slice itself, so a collective returns only once no
	// peer will read the caller's buffers again. Either the peer's
	// reply shows it is done, or it acknowledges the loan with an empty
	// frame.
	pool    *pool64
	timeout time.Duration // bounds every wait inside a collective; 0 disables
}

// next advances the collective sequence.
func (c *coll) next() uint32 {
	c.seq++
	return c.seq
}

// recv takes rank src's frame for collective seq. With a timeout set,
// a wait past it panics with a diagnostic naming the silent peer — the
// runtime complement to reprolint's static collectivesym check: a
// conditional collective (one rank skipped Barrier) or a dead peer
// becomes a named panic instead of a world-wide hang. The panic is
// deliberately not a TransportFailure: it is an original failure on
// this rank, so RunWorld-style supervisors report it rather than
// suppressing it as secondary poison.
func (c *coll) recv(src int, seq uint32) []int64 {
	msg, ok := c.in[src].takeTimeout(c.timeout)
	if !ok {
		panic(fmt.Sprintf("mpi: collective watchdog: rank %d received nothing from rank %d inside collective %d for %v — peer dead, skewed, or in a conditional collective",
			c.rank, src, seq, c.timeout))
	}
	if msg.tag != seq {
		panic(fmt.Sprintf("mpi: collective sequence skew with rank %d: frame %d arrived inside collective %d", src, msg.tag, seq))
	}
	return msg.i64
}

// give sends dst a payload it keeps: the receiver may return it as
// its own result. A lending lane sends a private copy.
func (c *coll) give(dst int, seq uint32, payload []int64) {
	if c.pool == nil {
		payload = slices.Clone(payload)
	}
	c.send(dst, seq, payload)
}

// exchange sends chunk(dst) to every other rank and returns what each
// rank sent this one, indexed by source; parts[c.rank] is
// chunk(c.rank). The other parts may be their senders' memory: the
// caller copies what it keeps, then calls settle with the same chunk.
func (c *coll) exchange(seq uint32, chunk func(dst int) []int64) (parts [][]int64) {
	for dst := range c.size {
		if dst != c.rank {
			c.send(dst, seq, chunk(dst))
		}
	}
	parts = make([][]int64, c.size)
	for src := range c.size {
		if src == c.rank {
			parts[src] = chunk(src)
		} else {
			parts[src] = c.recv(src, seq)
		}
	}
	return parts
}

// settle hands back the parts exchange received, then waits until
// every peer has read the chunk this rank sent it. On a lending lane a
// reader acknowledges each non-empty chunk with an empty frame.
func (c *coll) settle(seq uint32, parts [][]int64, chunk func(dst int) []int64) {
	for src, p := range parts {
		switch {
		case src == c.rank:
		case c.pool != nil:
			c.pool.put(p)
		case len(p) > 0:
			c.send(src, seq, nil)
		}
	}
	for dst := range c.size {
		if dst == c.rank || c.pool != nil || len(chunk(dst)) == 0 {
			continue
		}
		if ack := c.recv(dst, seq); len(ack) != 0 {
			panic(fmt.Sprintf("mpi: collective %d: rank %d sent %d words where an acknowledgement was due", seq, dst, len(ack)))
		}
	}
}

// barrier sends an empty frame to every other rank and waits for one
// from each.
func (c *coll) barrier() {
	seq := c.next()
	for r := range c.size {
		if r != c.rank {
			c.send(r, seq, nil)
		}
	}
	for r := range c.size {
		if r != c.rank {
			c.recv(r, seq)
		}
	}
}

// allreduce gathers every contribution at rank 0, folds them there in
// ascending rank order, and gives each rank its copy of the result.
// The result also tells a lender that rank 0 has read its
// contribution.
func allreduce[T Number](c *coll, vals []T, op Op) []T {
	seq := c.next()
	if c.rank != 0 {
		c.send(0, seq, words(vals))
		res := c.recv(0, seq)
		if len(res) != len(vals) {
			panic("mpi: Allreduce length mismatch across ranks")
		}
		return fromWords[T](res)
	}
	out := slices.Clone(vals)
	for r := 1; r < c.size; r++ {
		contrib := c.recv(r, seq)
		if len(contrib) != len(vals) {
			panic("mpi: Allreduce length mismatch across ranks")
		}
		foldVec(out, fromWords[T](contrib), op)
		if c.pool != nil {
			c.pool.put(contrib)
		}
	}
	for r := 1; r < c.size; r++ {
		c.give(r, seq, words(out))
	}
	return out
}

// foldVec folds contrib into acc element-wise with op; acc must be the
// lower ranks' running value so the fold order stays ascending.
func foldVec[T Number](acc, contrib []T, op Op) {
	switch op {
	case Sum:
		for i, v := range contrib {
			acc[i] += v
		}
	case Max:
		for i, v := range contrib {
			if v > acc[i] {
				acc[i] = v
			}
		}
	case Min:
		for i, v := range contrib {
			if v < acc[i] {
				acc[i] = v
			}
		}
	}
}

// bcast gives root's data to every other rank.
func (c *coll) bcast(root int, data []int64) []int64 {
	seq := c.next()
	if c.rank != root {
		return c.recv(root, seq)
	}
	for r := range c.size {
		if r != root {
			c.give(r, seq, data)
		}
	}
	return slices.Clone(data)
}

// allgatherv sends data to every other rank and copies out what each
// sent.
func (c *coll) allgatherv(data []int64) [][]int64 {
	seq := c.next()
	chunk := func(int) []int64 { return data }
	parts := c.exchange(seq, chunk)
	out := make([][]int64, c.size)
	for src, p := range parts {
		out[src] = slices.Clone(p)
	}
	c.settle(seq, parts, chunk)
	return out
}

// alltoallv sends each destination its chunk of send and packs what
// arrives in ascending source order; a chunk's length is its count, so
// no count exchange is needed.
func alltoallv[T Number](c *coll, send []T, counts []int) (recv []T, recvCounts []int) {
	seq := c.next()
	offsets := alltoallvOffsets(len(send), counts, c.size)
	w := words(send)
	chunk := func(dst int) []int64 { return w[offsets[dst]:offsets[dst+1]] }
	parts := c.exchange(seq, chunk)
	recvCounts = make([]int, c.size)
	total := 0
	for src, p := range parts {
		recvCounts[src] = len(p)
		total += len(p)
	}
	recv = make([]T, 0, total)
	for _, p := range parts {
		recv = append(recv, fromWords[T](p)...)
	}
	c.settle(seq, parts, chunk)
	return recv, recvCounts
}

// alltoallvOffsets validates an Alltoallv send layout and returns the
// exclusive prefix offsets.
func alltoallvOffsets(bufLen int, sendCounts []int, size int) []int {
	if len(sendCounts) != size {
		panic(fmt.Sprintf("mpi: Alltoallv counts length %d != world size %d", len(sendCounts), size))
	}
	offsets := make([]int, size+1)
	for r, n := range sendCounts {
		if n < 0 {
			panic("mpi: Alltoallv negative send count")
		}
		offsets[r+1] = offsets[r] + n
	}
	if offsets[size] != bufLen {
		panic(fmt.Sprintf("mpi: Alltoallv counts sum %d != buffer length %d", offsets[size], bufLen))
	}
	return offsets
}

// words views a vector as the int64 words the lanes carry, without
// copying. A float64 travels as its IEEE-754 bits — the same
// reinterpretation math.Float64bits performs — so every transport
// carries it bit-exactly.
func words[T Number](v []T) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

// fromWords is the inverse view of words.
func fromWords[T Number](w []int64) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
}
