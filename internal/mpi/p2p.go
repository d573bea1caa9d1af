package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Nonblocking point-to-point messaging over int64 words. Each ordered
// rank pair (src, dst) owns one FIFO channel — an in-process mailbox or
// a socket stream, depending on the transport — so messages between a
// pair are delivered in send order (MPI's non-overtaking guarantee)
// while messages from different sources are independent. Isend64
// copies its buffer at call time — the sender may reuse it
// immediately, and the receiver gets a slice no other rank aliases.
// Other element types travel as words: float64 values as
// math.Float64bits, which every transport carries bit-exactly.
//
// Unlike the collectives, the point-to-point operations are safe to
// complete from a goroutine other than the rank's main goroutine: all
// traffic counters are updated atomically and the transports keep
// their point-to-point and collective synchronization states disjoint.
// This is what lets a rank drain incoming boundary updates on a
// background goroutine while its main goroutine is still computing
// (communication/computation overlap) — or, on the pipelined exchange
// engine, while the main goroutine is inside a collective.
//
// Messages may carry a round tag (Isend64Tag/Recv64Tag). Tags never
// affect matching — delivery stays strict FIFO per pair — they only
// let a round-structured receiver assert that the frame it dequeued
// belongs to the round it is draining.

// message is one in-flight point-to-point transfer: a pooled private
// copy of the payload, so enqueueing allocates nothing, and the
// sender's round tag (Isend64Tag), zero for untagged sends.
type message struct {
	i64 []int64
	tag uint32
}

// mailbox is the unbounded FIFO for one ordered (src, dst) rank pair.
// Dequeuing advances head instead of reslicing so the backing array —
// and with it the steady-state zero-allocation property of put — is
// never lost to the front of the slice.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	msgs     []message
	head     int
	poisoned bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues a message; put never blocks (the simulator models an
// eager/buffered transport, so Isend64 completes immediately).
//
//repro:hotpath
func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.msgs = append(m.msgs, msg)
	m.cond.Signal()
	m.mu.Unlock()
}

// take dequeues the oldest message, blocking until one arrives. It
// panics with barrierPoisoned after a sibling rank's panic so blocked
// receivers unwind instead of hanging.
//
//repro:hotpath
func (m *mailbox) take() message {
	m.mu.Lock()
	for m.head >= len(m.msgs) && !m.poisoned {
		m.cond.Wait()
	}
	if m.poisoned {
		m.mu.Unlock()
		panic(barrierPoisoned{})
	}
	msg := m.msgs[m.head]
	m.msgs[m.head] = message{} // release the buffer reference
	m.head++
	if m.head == len(m.msgs) {
		m.msgs = m.msgs[:0]
		m.head = 0
	} else if m.head >= 16 && m.head*2 >= len(m.msgs) {
		// The dead prefix dominates a queue that never fully drains
		// (producer consistently one round ahead): compact in place so
		// the backing array stops growing.
		n := copy(m.msgs, m.msgs[m.head:])
		for i := n; i < len(m.msgs); i++ {
			m.msgs[i] = message{}
		}
		m.msgs = m.msgs[:n]
		m.head = 0
	}
	m.mu.Unlock()
	return msg
}

// poison wakes all blocked receivers and makes every subsequent take
// panic.
func (m *mailbox) poison() {
	m.mu.Lock()
	m.poisoned = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// box returns the mailbox for the ordered pair (src, dst).
func (w *world) box(src, dst int) *mailbox {
	return w.boxes[src*w.size+dst]
}

// Round-tag space. A 32-bit round tag is split into an 8-bit wave id
// (high bits) and a 24-bit round sequence (low bits), so callers that
// interleave several independent round streams over one pair FIFO —
// the multi-wave HC engine runs one BFS per wave slot — can stamp
// every frame with the stream it belongs to. Tags still never affect
// matching; the split only makes a skewed schedule panic with a
// message naming the wave AND the round instead of two bare numbers.
// Sequences wrap at 2^24 identically on both sides of a pair, so the
// equality assert survives the wrap.
const (
	// TagWaveBits is the width of the wave-id field.
	TagWaveBits = 8
	// TagSeqBits is the width of the round-sequence field.
	TagSeqBits = 32 - TagWaveBits
	// MaxTagWave is the largest encodable wave id.
	MaxTagWave = 1<<TagWaveBits - 1
)

// RoundTag composes a wave id and a round sequence into one round tag.
// wave must be in [0, MaxTagWave]; seq is truncated to TagSeqBits.
func RoundTag(wave int, seq uint32) uint32 {
	if wave < 0 || wave > MaxTagWave {
		panic(fmt.Sprintf("mpi: round-tag wave %d outside [0,%d]", wave, MaxTagWave))
	}
	return uint32(wave)<<TagSeqBits | seq&(1<<TagSeqBits-1)
}

// SplitRoundTag decomposes a round tag built by RoundTag.
func SplitRoundTag(tag uint32) (wave int, seq uint32) {
	return int(tag >> TagSeqBits), tag & (1<<TagSeqBits - 1)
}

// Isend64 starts a nonblocking send of data to rank dst. The transfer
// copy is drawn from the transport's buffer pool instead of the heap:
// together with Recv64/Recycle64 on the receive side, a steady-state
// exchange round allocates nothing. The buffer is copied before return
// and may be reused immediately; completion is eager, so there is no
// request to wait on.
func Isend64(c *Comm, dst int, data []int64) {
	Isend64Tag(c, dst, 0, data)
}

// Isend64Tag is Isend64 with an explicit round tag stamped on the
// message frame. Tags do not affect matching — delivery stays strict
// FIFO per ordered pair, like MPI_ANY_TAG — but a receiver that knows
// which round it is draining can assert the frame with Recv64Tag, so a
// protocol skew (one rank a round ahead on a pipelined exchange)
// surfaces as an immediate panic naming both rounds instead of as
// silently mis-decoded payloads.
//
//repro:hotpath
func Isend64Tag(c *Comm, dst int, tag uint32, data []int64) {
	atomic.AddInt64(&c.stats.SendOps, 1)
	atomic.AddInt64(&c.stats.ElemsSent, int64(len(data)))
	c.t.Send64(dst, tag, data)
}

// Recv64 blocks until the next int64 message from rank src arrives and
// returns its payload. The returned buffer is a private copy; when the
// caller has decoded it, passing it to Recycle64 returns it to the
// pool so subsequent sends reuse it. Recv64 ignores round tags; the
// delta exchanger's drainer receives through Recv64Tag, which asserts
// them.
func Recv64(c *Comm, src int) []int64 {
	data, _ := recv64(c, src)
	return data
}

// Recv64Tag is Recv64 asserting the message's round tag: it panics if
// the oldest undelivered frame from src does not carry want. Senders
// stamp tags with Isend64Tag; untagged sends carry tag 0.
func Recv64Tag(c *Comm, src int, want uint32) []int64 {
	data, tag := recv64(c, src)
	if tag != want {
		gw, gs := SplitRoundTag(tag)
		ww, ws := SplitRoundTag(want)
		panic(fmt.Sprintf("mpi: rank %d received wave %d round %d from rank %d, expected wave %d round %d (pipelined rounds skewed)",
			c.rank, gw, gs, src, ww, ws))
	}
	return data
}

//repro:hotpath
func recv64(c *Comm, src int) ([]int64, uint32) {
	data, tag := c.t.Recv64(src)
	atomic.AddInt64(&c.stats.RecvOps, 1)
	atomic.AddInt64(&c.stats.ElemsRecv, int64(len(data)))
	return data, tag
}

// Recycle64 returns a buffer obtained from Recv64 to the transport's
// pool. The caller must not touch buf afterwards. Recycling is
// optional — skipping it only costs allocations — and must happen at
// most once per received buffer.
//
//repro:hotpath
func (c *Comm) Recycle64(buf []int64) {
	c.t.Recycle64(buf)
}
