package mpitest

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
)

// ChaosKind selects the fault a ChaosProxy injects into the stream it
// relays.
type ChaosKind int

const (
	// ChaosReset cuts both halves of the proxied pair abruptly at the
	// seeded byte point — a connection reset, the rendezvous-retry
	// fault.
	ChaosReset ChaosKind = iota
	// ChaosTruncate forwards exactly the seeded byte count and then
	// closes — the receiver sees a frame cut mid-payload.
	ChaosTruncate
	// ChaosStall stops forwarding at the seeded byte point but keeps
	// every connection open — a wedged peer, visible only to the
	// liveness watchdog.
	ChaosStall
	// ChaosKill tears down the whole proxy (listener and every relayed
	// connection) at the seeded byte point — a killed peer process.
	ChaosKill
)

func (k ChaosKind) String() string {
	switch k {
	case ChaosReset:
		return "reset"
	case ChaosTruncate:
		return "truncate"
	case ChaosStall:
		return "stall"
	case ChaosKill:
		return "kill"
	}
	return fmt.Sprintf("ChaosKind(%d)", int(k))
}

// ChaosPlan describes when and how a ChaosProxy misbehaves. The fault
// point is drawn per connection from [MinBytes, MaxBytes] with a
// seeded generator, so runs are randomized but reproducible.
type ChaosPlan struct {
	Kind ChaosKind
	// Seed feeds the fault-point generator; equal seeds give equal
	// fault points.
	Seed int64
	// MinBytes and MaxBytes bound the fault point, counted in bytes
	// forwarded client→target. The rendezvous hello is 22 bytes, so
	// points below that fault the handshake and points above it fault
	// the steady-state stream.
	MinBytes, MaxBytes int
	// Once limits injection to the first relayed connection; later
	// connections relay cleanly. This is what makes a rendezvous fault
	// transparent to a retrying dialer.
	Once bool
}

// ChaosProxy is a byte-level man-in-the-middle for one rank's listen
// address: it accepts connections meant for the target, relays them,
// and injects the planned fault at a seeded byte point. Tests route a
// world's dials through proxies to prove every fault class ends in a
// transparent retry or a clean per-peer poison — never a hang, never a
// wrong answer.
type ChaosProxy struct {
	tb      testing.TB
	network string
	target  string
	plan    ChaosPlan

	ln       net.Listener
	rngMu    sync.Mutex
	rng      *rand.Rand
	injected atomic.Bool
	done     chan struct{}
	closed   sync.Once

	mu    sync.Mutex
	conns []net.Conn
}

// NewChaosProxy starts a proxy in front of target on the same network
// ("unix" or "tcp") and registers its teardown on tb. Addr is where
// dialers should connect instead of the target.
func NewChaosProxy(tb testing.TB, network, target string, plan ChaosPlan) *ChaosProxy {
	tb.Helper()
	var laddr string
	switch network {
	case "unix":
		laddr = filepath.Join(tb.TempDir(), "chaos.sock")
	case "tcp":
		laddr = "127.0.0.1:0"
	default:
		tb.Fatalf("chaos proxy: unsupported network %q", network)
	}
	ln, err := net.Listen(network, laddr)
	if err != nil {
		tb.Fatalf("chaos proxy listen: %v", err)
	}
	p := &ChaosProxy{
		tb:      tb,
		network: network,
		target:  target,
		plan:    plan,
		ln:      ln,
		rng:     rand.New(rand.NewSource(plan.Seed)),
		done:    make(chan struct{}),
	}
	go p.acceptLoop()
	tb.Cleanup(p.Close)
	return p
}

// Addr returns the proxy's listen address, to be used in place of the
// target's in a rank's address list.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// Close tears the proxy down: listener, every relayed connection, and
// any stalled relay. Idempotent.
func (p *ChaosProxy) Close() {
	p.closed.Do(func() {
		close(p.done)
		p.ln.Close()
		p.killConns()
	})
}

// KillAll closes the listener and every relayed connection without
// marking the proxy closed — the ChaosKill fault.
func (p *ChaosProxy) KillAll() {
	p.ln.Close()
	p.killConns()
}

func (p *ChaosProxy) killConns() {
	p.mu.Lock()
	conns := append([]net.Conn(nil), p.conns...)
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *ChaosProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns = append(p.conns, c)
	p.mu.Unlock()
}

func (p *ChaosProxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		target, err := net.Dial(p.network, p.target)
		if err != nil {
			// The real listener is not up (or just died): dropping the
			// client is itself a transient fault the dialer must retry.
			client.Close()
			continue
		}
		p.track(client)
		p.track(target)
		faultAt := -1
		if !p.plan.Once || !p.injected.Swap(true) {
			p.rngMu.Lock()
			faultAt = p.plan.MinBytes + p.rng.Intn(p.plan.MaxBytes-p.plan.MinBytes+1)
			p.rngMu.Unlock()
		}
		go p.relay(target, client, faultAt) // client→target carries the fault
		go p.relay(client, target, -1)
	}
}

// relay copies src to dst; with faultAt >= 0 it forwards exactly
// faultAt bytes and then injects the planned fault.
func (p *ChaosProxy) relay(dst, src net.Conn, faultAt int) {
	buf := make([]byte, 4096)
	forwarded := 0
	for {
		limit := len(buf)
		if faultAt >= 0 {
			if remain := faultAt - forwarded; remain < limit {
				limit = remain
			}
			if limit == 0 {
				p.inject(dst, src)
				return
			}
		}
		n, err := src.Read(buf[:limit])
		if n > 0 {
			forwarded += n
			if _, werr := dst.Write(buf[:n]); werr != nil {
				src.Close()
				return
			}
		}
		if err != nil {
			dst.Close()
			src.Close()
			return
		}
	}
}

func (p *ChaosProxy) inject(dst, src net.Conn) {
	switch p.plan.Kind {
	case ChaosReset, ChaosTruncate:
		if tc, ok := src.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not FIN
		}
		src.Close()
		dst.Close()
	case ChaosStall:
		// Wedge: forward nothing more, keep every connection open so
		// only the liveness watchdog can notice.
		<-p.done
	case ChaosKill:
		p.KillAll()
	}
}

// sockAddrs allocates n Unix socket paths in a fresh temporary
// directory.
func sockAddrs(tb testing.TB, n int) []string {
	dir := tb.TempDir()
	addrs := make([]string, n)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("rank%d.sock", r))
	}
	return addrs
}

// chaosWorld builds an in-process Unix-socket world whose dials to rank
// j route through proxies[j] (when non-nil); rank j itself listens on
// the real address. base supplies the shared Timeout/Retry/Heartbeat/
// CollTimeout knobs.
func chaosWorld(tb testing.TB, real []string, proxies []*ChaosProxy, base mpi.SocketConfig) ([]mpi.Transport, error) {
	n := len(real)
	cfgs := make([]mpi.SocketConfig, n)
	for r := range cfgs {
		cfg := base
		cfg.Network, cfg.Rank, cfg.Size = "unix", r, n
		cfg.Addrs = make([]string, n)
		for j := range cfg.Addrs {
			if j != r && proxies != nil && proxies[j] != nil {
				cfg.Addrs[j] = proxies[j].Addr()
			} else {
				cfg.Addrs[j] = real[j]
			}
		}
		cfgs[r] = cfg
	}
	ts, err := mpi.DialSocketWorld(cfgs)
	if err != nil {
		return nil, err
	}
	tb.Cleanup(func() {
		for _, t := range ts {
			t.Close()
		}
	})
	return ts, nil
}

// runChaosTier is the chaos conformance tier: every injected fault
// class must end in bit-identical results (transparent retry) or a
// clean per-peer TransportFailure within the watchdog bound — no hang,
// no wrong answer. It builds socket worlds directly (the faults are
// wire-level), so it runs only when WithChaos is passed, from the
// socket transport's conformance test.
func runChaosTier(t *testing.T) {
	t.Run("RendezvousResetRetries", chaosRendezvousReset)
	t.Run("TruncatedFramePoisons", func(t *testing.T) { chaosMidStreamCut(t, ChaosTruncate) })
	t.Run("ResetMidStreamPoisons", func(t *testing.T) { chaosMidStreamCut(t, ChaosReset) })
	t.Run("KillCascades", func(t *testing.T) { chaosMidStreamCut(t, ChaosKill) })
	t.Run("StallTripsLivenessWatchdog", chaosStallWatchdog)
	t.Run("CollectiveWatchdog", chaosCollectiveWatchdog)
	t.Run("CloseIdempotentConcurrentRecv", chaosCloseConcurrent)
}

// chaosRendezvousReset resets the first connection through rank 0's
// address mid-handshake; the retrying dialer must rendezvous anyway
// and the world must produce results bit-identical to an undisturbed
// fold, and deliver float64 words bit-exact through the proxies — the
// fault is fully transparent.
func chaosRendezvousReset(t *testing.T) {
	const n = 3
	real := sockAddrs(t, n)
	// The hello frame is 22 bytes; a fault point inside [1, 20] cuts
	// the handshake itself.
	proxy := NewChaosProxy(t, "unix", real[0], ChaosPlan{Kind: ChaosReset, Seed: 11, MinBytes: 1, MaxBytes: 20, Once: true})
	ts, err := chaosWorld(t, real, []*ChaosProxy{proxy, nil, nil}, mpi.SocketConfig{
		Timeout: 30 * time.Second,
		Retry:   mpi.SocketRetry{BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("rendezvous did not survive a handshake reset: %v", err)
	}
	contrib := func(r int) []float64 {
		return []float64{0.1 * float64(r+1), 1e16, -1.0 / float64(r+3)}
	}
	want := append([]float64(nil), contrib(0)...)
	for r := 1; r < n; r++ {
		for i, v := range contrib(r) {
			want[i] += v
		}
	}
	mpi.RunWorld(ts, 1, func(c *mpi.Comm) {
		got := mpi.Allreduce(c, contrib(c.Rank()), mpi.Sum)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				panic(fmt.Sprintf("rank %d: fold after retried rendezvous diverges at %d: %x != %x",
					c.Rank(), i, math.Float64bits(got[i]), math.Float64bits(want[i])))
			}
		}
		floatBitsP2P(c)
	})
}

// chaosMidStreamCut cuts (truncate/reset) or kills the rank1→rank0
// stream after the handshake, mid data frame. Every rank must unwind
// with a clean TransportFailure — promptly, with no hang and no
// mis-decoded payload.
func chaosMidStreamCut(t *testing.T, kind ChaosKind) {
	const n = 2
	real := sockAddrs(t, n)
	// Past the 22-byte hello, inside the first data frames.
	proxy := NewChaosProxy(t, "unix", real[0], ChaosPlan{Kind: kind, Seed: 7, MinBytes: 40, MaxBytes: 300})
	ts, err := chaosWorld(t, real, []*ChaosProxy{proxy, nil}, mpi.SocketConfig{
		Timeout: 30 * time.Second,
		Retry:   mpi.SocketRetry{BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	start := time.Now()
	func() {
		defer wantPanic(t, "transport failure")()
		mpi.RunWorld(ts, 1, func(c *mpi.Comm) {
			payload := []int64{1, 2, 3, 4, 5, 6, 7, 8}
			if c.Rank() == 1 {
				for i := 0; ; i++ {
					mpi.Isend64Tag(c, 0, mpi.RoundTag(0, uint32(i)), payload)
					time.Sleep(time.Millisecond)
				}
			}
			for i := 0; ; i++ {
				buf := mpi.Recv64Tag(c, 1, mpi.RoundTag(0, uint32(i)))
				c.Recycle64(buf)
			}
		})
	}()
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("%v fault took %v to surface", kind, elapsed)
	}
}

// chaosStallWatchdog wedges the rank1→rank0 stream (connections stay
// open, bytes stop flowing): only the liveness watchdog can catch
// this, and it must, naming the silent rank and direction within the
// miss window — never a silent world-wide hang.
func chaosStallWatchdog(t *testing.T) {
	const n = 2
	const heartbeat = 50 * time.Millisecond
	real := sockAddrs(t, n)
	proxy := NewChaosProxy(t, "unix", real[0], ChaosPlan{Kind: ChaosStall, Seed: 3, MinBytes: 60, MaxBytes: 200})
	ts, err := chaosWorld(t, real, []*ChaosProxy{proxy, nil}, mpi.SocketConfig{
		Timeout:   30 * time.Second,
		Retry:     mpi.SocketRetry{BaseDelay: time.Millisecond},
		Heartbeat: heartbeat,
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	start := time.Now()
	func() {
		defer wantPanic(t, "liveness watchdog")()
		mpi.RunWorld(ts, 1, func(c *mpi.Comm) {
			payload := []int64{11, 22, 33}
			if c.Rank() == 1 {
				for i := 0; ; i++ {
					mpi.Isend64Tag(c, 0, mpi.RoundTag(0, uint32(i)), payload)
					time.Sleep(2 * time.Millisecond)
				}
			}
			for i := 0; ; i++ {
				buf := mpi.Recv64Tag(c, 1, mpi.RoundTag(0, uint32(i)))
				c.Recycle64(buf)
			}
		})
	}()
	// The watchdog bound is heartbeatMissFactor (4) heartbeats; allow
	// generous scheduler slack but reject anything near a hang.
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("stall took %v to trip the watchdog (miss window is %v)", elapsed, 4*heartbeat)
	}
}

// chaosCollectiveWatchdog checks SocketConfig.CollTimeout: a rank that
// is alive (heartbeats flowing) but late to a collective — the PR 4
// conditional-collective deadlock shape — must surface as a diagnostic
// panic naming the silent peer, not a hang.
func chaosCollectiveWatchdog(t *testing.T) {
	const n = 2
	real := sockAddrs(t, n)
	ts, err := chaosWorld(t, real, nil, mpi.SocketConfig{
		Timeout:     30 * time.Second,
		Heartbeat:   50 * time.Millisecond,
		CollTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer wantPanic(t, "collective watchdog")()
	mpi.RunWorld(ts, 1, func(c *mpi.Comm) {
		if c.Rank() == 1 {
			// Alive and pinging, but far past rank 0's collective bound.
			time.Sleep(1500 * time.Millisecond)
		}
		c.Barrier()
	})
}

// chaosCloseConcurrent checks that SocketTransport.Close is idempotent
// and safe concurrent with an in-flight Recv64: the blocked receiver
// must unwind with a "transport closed" TransportFailure, never hang.
func chaosCloseConcurrent(t *testing.T) {
	const n = 2
	real := sockAddrs(t, n)
	ts, err := chaosWorld(t, real, nil, mpi.SocketConfig{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		ts[0].Recv64(1) // nothing will ever arrive
		panic("Recv64 returned without a message")
	}()
	time.Sleep(50 * time.Millisecond) // let the receiver block
	for i := 0; i < 3; i++ {          // idempotent: repeated Close is safe
		if err := ts[0].Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	ts[1].Close()
	select {
	case p := <-recovered:
		err, ok := mpi.AsTransportFailure(p)
		if !ok {
			t.Fatalf("Recv64 across Close panicked with %v, want TransportFailure", p)
		}
		if got := err.Error(); !strings.Contains(got, "transport closed") && !strings.Contains(got, "closed the connection") {
			t.Fatalf("Recv64 across Close unwound with %q, want a transport-closed failure", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv64 hung across Close")
	}
}
