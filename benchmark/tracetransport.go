package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// tracedTransport is a timing decorator over one rank's socket
// transport: it accumulates the wall time the rank spends blocked in
// receives, inside collectives, and handing frames to the writer. The
// counters are atomic because the exchange engine's drainer goroutine
// receives concurrently with the rank's main goroutine.
//
// It wraps socket transports only. The in-process transport carries an
// unexported fast path (generic payloads without serialization) that a
// decorator would hide from Comm, so a decorated in-process world runs
// a different program from the one the untraced pass measures.
type tracedTransport struct {
	mpi.Transport
	recvWait, collWait, send atomic.Int64 // nanoseconds
}

// traceWorld decorates every rank of a socket world.
func traceWorld(ts []mpi.Transport) ([]mpi.Transport, []*tracedTransport, error) {
	out := make([]mpi.Transport, len(ts))
	traced := make([]*tracedTransport, len(ts))
	for r, t := range ts {
		if _, ok := t.(*mpi.SocketTransport); !ok {
			return nil, nil, fmt.Errorf("tracetransport: rank %d is %T, not a socket transport: refusing to decorate", r, t)
		}
		traced[r] = &tracedTransport{Transport: t}
		out[r] = traced[r]
	}
	return out, traced, nil
}

func (t *tracedTransport) Send64(dst int, tag uint32, data []int64) {
	start := time.Now()
	t.Transport.Send64(dst, tag, data)
	t.send.Add(int64(time.Since(start)))
}

func (t *tracedTransport) Recv64(src int) ([]int64, uint32) {
	start := time.Now()
	payload, tag := t.Transport.Recv64(src)
	t.recvWait.Add(int64(time.Since(start)))
	//lint:ignore arenaescape the decorator forwards the transport's buffer under the transport's own contract: the receiver owns it until Recycle64
	return payload, tag
}

func (t *tracedTransport) collective(start time.Time) {
	t.collWait.Add(int64(time.Since(start)))
}

func (t *tracedTransport) Barrier() {
	defer t.collective(time.Now())
	t.Transport.Barrier()
}

func (t *tracedTransport) AllreduceI64(vals []int64, op mpi.Op) []int64 {
	defer t.collective(time.Now())
	return t.Transport.AllreduceI64(vals, op)
}

func (t *tracedTransport) AllreduceF64(vals []float64, op mpi.Op) []float64 {
	defer t.collective(time.Now())
	return t.Transport.AllreduceF64(vals, op)
}

func (t *tracedTransport) BcastI64(root int, data []int64) []int64 {
	defer t.collective(time.Now())
	return t.Transport.BcastI64(root, data)
}

func (t *tracedTransport) AllgathervI64(data []int64) [][]int64 {
	defer t.collective(time.Now())
	return t.Transport.AllgathervI64(data)
}

func (t *tracedTransport) AlltoallvI64(send []int64, counts []int) ([]int64, []int) {
	defer t.collective(time.Now())
	return t.Transport.AlltoallvI64(send, counts)
}

func (t *tracedTransport) AlltoallvF64(send []float64, counts []int) ([]float64, []int) {
	defer t.collective(time.Now())
	return t.Transport.AlltoallvF64(send, counts)
}
