package mpi

import (
	"fmt"
	"sync"
)

// Transport is the rank-communication surface the exchange engine and
// the collectives actually use, extracted so a world can be backed by
// in-process goroutine mailboxes (NewProcWorld, the default) or by one
// OS process per rank over TCP/Unix sockets (DialSocket). A Transport
// is one rank's handle; Comm wraps it with traffic statistics and the
// word-typed MPI API. Every operation moves int64 or float64 words, so
// every Comm call runs unchanged on every implementation.
//
// Contract, shared by every implementation and enforced by the
// conformance suite in internal/mpitest:
//
//   - Point-to-point delivery is strict FIFO per ordered (src, dst)
//     pair, MPI's non-overtaking guarantee. Tags never affect matching;
//     they only let a round-structured receiver assert the frame it
//     dequeued (Comm's Recv64Tag panics on a mismatch).
//   - Send64 is eager: the payload is copied (or serialized) before it
//     returns and the caller may reuse its buffer immediately.
//   - Recv64 payloads are private to the receiver; passing one to
//     Recycle64 after decoding returns it to the transport's buffer
//     pool, making steady-state rounds allocation-free on the
//     in-process path.
//   - Collectives must be called from the rank's main goroutine, every
//     rank in the same order. Point-to-point operations may additionally
//     be completed from one helper goroutine concurrently with a
//     collective on the main goroutine (the exchange engine's drainer
//     relies on this).
//   - Reductions fold contributions in ascending rank order, so
//     floating-point results are bit-identical across transports.
//   - Abort poisons the transport: every blocked or future operation
//     panics (in-process: the shared world's poison; socket: connection
//     teardown surfaces as TransportFailure panics on every peer)
//     instead of hanging.
type Transport interface {
	// Rank returns this rank's id in [0, Size()).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int

	// Send64 starts an eager nonblocking send of data to rank dst with
	// the given round tag; the payload is copied before return.
	Send64(dst int, tag uint32, data []int64)
	// Recv64 blocks until the next int64 message from rank src arrives
	// and returns its payload (a private buffer) and round tag.
	Recv64(src int) (payload []int64, tag uint32)
	// Recycle64 returns a buffer obtained from Recv64 to the pool. The
	// caller must not touch buf afterwards.
	Recycle64(buf []int64)

	// Barrier blocks until every rank has entered it.
	Barrier()
	// AllreduceI64 reduces vals element-wise across ranks in ascending
	// rank order; all ranks must pass equal lengths.
	AllreduceI64(vals []int64, op Op) []int64
	// AllreduceF64 is AllreduceI64 for float64 vectors. The rank-ordered
	// fold makes results bit-identical on every transport.
	AllreduceF64(vals []float64, op Op) []float64
	// BcastI64 distributes root's data to every rank; every rank
	// (including the root) receives an independent copy.
	BcastI64(root int, data []int64) []int64
	// AllgathervI64 collects a variable-length vector from each rank;
	// out[r] is an independent copy of rank r's contribution.
	AllgathervI64(data []int64) [][]int64
	// AlltoallvI64 performs a variable-size personalized exchange: send
	// holds the data for all destinations packed in rank order,
	// counts[r] elements to rank r; it returns the received data packed
	// in source-rank order with per-source counts.
	AlltoallvI64(send []int64, counts []int) ([]int64, []int)
	// AlltoallvF64 is AlltoallvI64 for float64 payloads. No Comm
	// operation calls it; it stays for transport decorators that
	// forward it.
	AlltoallvF64(send []float64, counts []int) ([]float64, []int)

	// Abort poisons the transport after a local failure so peers blocked
	// on this rank unwind instead of hanging. It is idempotent and safe
	// to call concurrently with any operation.
	Abort()
	// Close releases the transport's resources (connections, helper
	// goroutines). In-process worlds share state across ranks and treat
	// Close as a no-op; socket worlds tear down their connections.
	Close() error
}

// TransportFailure is the panic payload raised by transport operations
// that were poisoned by a peer failure or teardown: the socket
// transport's equivalent of the in-process world's poison-on-panic.
// RunWorld treats it as a secondary victim when another rank panicked
// first; a standalone worker process sees it unwind with the underlying
// error.
type TransportFailure struct{ Err error }

func (f TransportFailure) Error() string { return "mpi: transport failure: " + f.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (f TransportFailure) Unwrap() error { return f.Err }

// AsTransportFailure reports whether a recovered panic payload is a
// transport poison (a peer failure/teardown, or the in-process world's
// poison-on-panic) and returns its error description.
func AsTransportFailure(p any) (error, bool) {
	switch v := p.(type) {
	case TransportFailure:
		return v, true
	case barrierPoisoned:
		return fmt.Errorf("mpi: world poisoned by a sibling rank's panic"), true
	}
	return nil, false
}

// isPoisonPanic reports whether a panic payload is a secondary-victim
// sentinel rather than an original failure.
func isPoisonPanic(p any) bool {
	_, ok := AsTransportFailure(p)
	return ok
}

// NewComm wraps a per-rank Transport in a Comm handle with fresh
// traffic statistics. threadsPerRank <= 0 defaults to 1. This is the
// entry point for externally formed worlds (one OS process per rank
// over DialSocket); in-process worlds get their Comms from Run.
func NewComm(t Transport, threadsPerRank int) *Comm {
	if threadsPerRank <= 0 {
		threadsPerRank = 1
	}
	return &Comm{t: t, rank: t.Rank(), size: t.Size(), threads: threadsPerRank}
}

// RunWorld executes fn on every rank of a pre-built world, one
// goroutine per transport, and returns when all ranks finish. Panics on
// any rank abort that rank's transport — releasing siblings blocked in
// a collective or a point-to-point wait — and the original panic is
// re-raised on the caller after all ranks have unwound. Secondary
// poison panics (barrier poison, TransportFailure) are suppressed when
// an original panic exists; if every panic is a poison (an external
// fault, not a rank's own bug), the first one is re-raised instead of
// being swallowed.
func RunWorld(ts []Transport, threadsPerRank int, fn func(c *Comm)) {
	if len(ts) == 0 {
		panic("mpi: RunWorld with empty world")
	}
	var wg sync.WaitGroup
	panics := make([]any, len(ts))
	for r := range ts {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
					// Poison the world so sibling ranks blocked in a
					// collective or a point-to-point wait wake up and
					// unwind instead of hanging.
					ts[rank].Abort()
				}
			}()
			fn(NewComm(ts[rank], threadsPerRank))
		}(r)
	}
	wg.Wait()
	var firstPoison any
	for _, p := range panics {
		if p == nil {
			continue
		}
		if isPoisonPanic(p) {
			if firstPoison == nil {
				firstPoison = p
			}
			continue // secondary victim of another rank's panic
		}
		panic(p)
	}
	if firstPoison != nil {
		panic(firstPoison)
	}
}
