package mpitest

import (
	"sync"
	"time"

	"repro/internal/mpi"
)

// FaultyTransport wraps a Transport and injects point-to-point faults:
// dropped frames, duplicated frames, delayed delivery, and a simulated
// peer death mid-round. Fault tests use it to pin down the failure
// contract — a lost or repeated round must surface as the tag-skew
// panic (never silent corruption), a dead peer as a TransportFailure
// (never a hang), and pure delays must not change any result.
//
// Only the Send64 path is perturbed; collectives and receives pass
// through.
type FaultyTransport struct {
	mpi.Transport

	// DropNth drops the Nth Send64 (1-based) on this rank; 0 disables.
	DropNth int
	// DupNth delivers the Nth Send64 twice; 0 disables.
	DupNth int
	// Delay pauses every send, perturbing timing without reordering.
	Delay time.Duration
	// KillAfter aborts the underlying transport after the Nth send,
	// simulating a peer dying mid-round; 0 disables.
	KillAfter int

	mu    sync.Mutex
	sends int
}

// Faulty wraps every transport of a world with the same fault plan.
func Faulty(ts []mpi.Transport, plan func(rank int, ft *FaultyTransport)) []mpi.Transport {
	out := make([]mpi.Transport, len(ts))
	for r, t := range ts {
		ft := &FaultyTransport{Transport: t}
		if plan != nil {
			plan(r, ft)
		}
		out[r] = ft
	}
	return out
}

// Send64 applies the fault plan, then forwards to the wrapped
// transport.
func (f *FaultyTransport) Send64(dst int, tag uint32, data []int64) {
	f.mu.Lock()
	f.sends++
	n := f.sends
	f.mu.Unlock()
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.KillAfter > 0 && n > f.KillAfter {
		f.Transport.Abort()
		return
	}
	if f.DropNth == n {
		return
	}
	f.Transport.Send64(dst, tag, data)
	if f.DupNth == n {
		f.Transport.Send64(dst, tag, data)
	}
}
