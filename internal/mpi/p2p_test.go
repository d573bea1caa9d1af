package mpi

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Every Stats counter must appear in the shared fields() enumeration,
// or Stats()/ResetStats() would silently miss it.
func TestStatsFieldsCoverStruct(t *testing.T) {
	var s Stats
	if got, want := len(s.fields()), reflect.TypeOf(s).NumField(); got != want {
		t.Fatalf("Stats.fields() enumerates %d counters, struct has %d", got, want)
	}
}

func TestIsendIrecvRoundTrip(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			Isend64(c, 1, []int64{7, 8, 9})
		} else {
			got := Recv64(c, 0)
			if len(got) != 3 || got[0] != 7 || got[1] != 8 || got[2] != 9 {
				t.Errorf("Recv64 got %v", got)
			}
			c.Recycle64(got)
		}
	})
}

// Messages between one rank pair must be delivered in send order
// (MPI's non-overtaking rule), regardless of how many are in flight.
func TestP2POrderingPerRankPair(t *testing.T) {
	const p = 4
	const msgs = 32
	Run(p, func(c *Comm) {
		// Every rank streams numbered messages to every other rank…
		for dst := 0; dst < p; dst++ {
			if dst == c.Rank() {
				continue
			}
			for k := 0; k < msgs; k++ {
				Isend64(c, dst, []int64{int64(c.Rank()), int64(k)})
			}
		}
		// …and must observe each source's stream strictly in order.
		for src := 0; src < p; src++ {
			if src == c.Rank() {
				continue
			}
			for k := 0; k < msgs; k++ {
				got := Recv64(c, src)
				if len(got) != 2 || got[0] != int64(src) || got[1] != int64(k) {
					t.Errorf("rank %d msg %d from %d: got %v", c.Rank(), k, src, got)
					return
				}
				c.Recycle64(got)
			}
		}
	})
}

// The receive buffer must be private: mutating the sender's buffer
// after Isend64, or the receiver's buffer after Recv64, must not be
// visible to the other side.
func TestP2PNoBufferAliasing(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []int64{1, 2, 3}
			Isend64(c, 1, buf)
			buf[0] = -99 // sender reuses its buffer immediately
			Isend64(c, 1, buf)
		} else {
			first := Recv64(c, 0)
			second := Recv64(c, 0)
			if first[0] != 1 {
				t.Errorf("first message saw sender's later write: %v", first)
			}
			if second[0] != -99 {
				t.Errorf("second message wrong: %v", second)
			}
			first[1] = 1000 // receiver-side writes stay private too
			if second[1] != 2 {
				t.Errorf("messages alias each other: %v", second)
			}
			c.Recycle64(first)
			c.Recycle64(second)
		}
	})
}

func TestP2PStatsAccounting(t *testing.T) {
	Run(2, func(c *Comm) {
		c.ResetStats()
		peer := 1 - c.Rank()
		Isend64(c, peer, []int64{1, 2, 3, 4, 5})
		Isend64(c, peer, []int64{})
		c.Recycle64(Recv64(c, peer))
		c.Recycle64(Recv64(c, peer))
		s := c.Stats()
		if s.SendOps != 2 || s.RecvOps != 2 {
			t.Errorf("SendOps=%d RecvOps=%d, want 2,2", s.SendOps, s.RecvOps)
		}
		if s.ElemsSent != 5 || s.ElemsRecv != 5 {
			t.Errorf("ElemsSent=%d ElemsRecv=%d, want 5,5", s.ElemsSent, s.ElemsRecv)
		}
		if s.Collectives != 0 {
			t.Errorf("point-to-point traffic counted as collective: %+v", s)
		}
	})
}

// A rank may drain incoming messages on a helper goroutine while its
// main goroutine keeps sending — the overlap pattern the partitioner's
// async exchange uses. Must be race-clean under -race.
func TestP2PConcurrentDrain(t *testing.T) {
	const p = 4
	const rounds = 20
	Run(p, func(c *Comm) {
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			wg.Add(1)
			total := 0
			go func() {
				defer wg.Done()
				for src := 0; src < p; src++ {
					if src == c.Rank() {
						continue
					}
					got := Recv64(c, src)
					total += len(got)
					c.Recycle64(got)
				}
			}()
			for dst := 0; dst < p; dst++ {
				if dst == c.Rank() {
					continue
				}
				Isend64(c, dst, []int64{int64(round), int64(c.Rank())})
			}
			wg.Wait()
			if total != 2*(p-1) {
				t.Errorf("rank %d round %d drained %d elements", c.Rank(), round, total)
				return
			}
			c.Barrier()
		}
	})
}

// A sibling panic must release ranks blocked in Recv64 instead of
// deadlocking them, and the original panic must surface.
func TestP2PPanicReleasesBlockedReceiver(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic to propagate")
		}
		if s, ok := p.(string); !ok || s != "p2p boom" {
			t.Fatalf("unexpected panic payload: %v", p)
		}
	}()
	Run(3, func(c *Comm) {
		if c.Rank() == 0 {
			panic("p2p boom")
		}
		// Ranks 1 and 2 park on a message that will never arrive.
		Recv64(c, 0)
	})
}

func TestIsendValidatesRank(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic for out-of-range destination")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "Isend") {
			t.Fatalf("unexpected panic payload: %v", p)
		}
	}()
	Run(1, func(c *Comm) {
		Isend64(c, 5, []int64{1})
	})
}
