package mpi

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// SocketConfig describes one rank's place in a multi-process world
// connected over stream sockets. Every rank must be started with the
// same Size and Addrs; Addrs[r] is the address rank r listens on
// ("host:port" for tcp, a filesystem path for unix). The liveness
// knobs (Heartbeat, CollTimeout) must be identical on every rank — a
// rank without heartbeats looks dead to a rank expecting them.
type SocketConfig struct {
	// Network is the stream network to use: "tcp" or "unix".
	Network string
	// Rank is this process's rank in [0, Size).
	Rank int
	// Size is the number of ranks in the world.
	Size int
	// Addrs holds each rank's listen address, indexed by rank.
	Addrs []string
	// Timeout bounds the rendezvous (listen + dial + handshake);
	// zero means DefaultRendezvousTimeout. Negative is rejected by
	// SocketConfigFromEnv and treated as the default here.
	Timeout time.Duration
	// Retry shapes the per-peer rendezvous retry loop.
	Retry SocketRetry
	// Heartbeat enables the liveness watchdog: a connection idle on the
	// send side past this threshold carries a wire.KindPing frame, and a
	// peer silent past heartbeatMissFactor times this threshold is
	// declared dead with a per-peer TransportFailure naming the rank,
	// direction, and last-progress time. Zero disables the watchdog
	// (a dead peer then surfaces only when the kernel notices).
	Heartbeat time.Duration
	// CollTimeout bounds every single wait inside a collective; a rank
	// still waiting after it panics with a diagnostic naming the silent
	// peer — the runtime complement to reprolint's static collectivesym
	// check for conditional-collective deadlocks. Zero disables.
	CollTimeout time.Duration
}

// SocketRetry configures the rendezvous retry loop of DialSocket: a
// refused dial, a not-yet-listening peer, or a handshake cut mid-frame
// is retried with jittered exponential backoff until the rendezvous
// deadline (or Max attempts) is reached.
type SocketRetry struct {
	// Max caps connection attempts per peer; <= 0 means unbounded
	// (the rendezvous deadline is then the only bound).
	Max int
	// BaseDelay is the backoff before the second attempt; it doubles
	// per attempt (capped at retryMaxDelay) with ±50% jitter so peers
	// hammering one slow listener decorrelate. <= 0 means
	// defaultRetryBase.
	BaseDelay time.Duration
}

// DefaultRendezvousTimeout bounds the rendezvous when
// SocketConfig.Timeout is zero.
const DefaultRendezvousTimeout = 30 * time.Second

// Rendezvous retry tuning: the first backoff delay and the cap the
// exponential doubling saturates at.
const (
	defaultRetryBase = 2 * time.Millisecond
	retryMaxDelay    = 250 * time.Millisecond
)

// heartbeatMissFactor is the liveness miss window in heartbeat units: a
// peer that produced no traffic for heartbeatMissFactor*Heartbeat is
// declared dead. Pings flow after one idle Heartbeat, so a live but
// quiet peer refreshes the window several times before it closes.
const heartbeatMissFactor = 4

// Environment variables understood by SocketConfigFromEnv; cmd/reprorun
// sets them when launching worker processes.
const (
	EnvRank        = "REPRO_RANK"
	EnvSize        = "REPRO_SIZE"
	EnvNet         = "REPRO_NET"
	EnvAddrs       = "REPRO_ADDRS"
	EnvTimeout     = "REPRO_TIMEOUT"
	EnvRetryMax    = "REPRO_RETRY_MAX"
	EnvRetryBase   = "REPRO_RETRY_BASE"
	EnvHeartbeat   = "REPRO_HEARTBEAT"
	EnvCollTimeout = "REPRO_COLL_TIMEOUT"
)

// SocketConfigFromEnv builds a SocketConfig from the REPRO_* variables
// a launcher passes to worker processes: REPRO_RANK, REPRO_SIZE,
// REPRO_ADDRS (comma-separated, indexed by rank), REPRO_NET (default
// "unix") and optionally REPRO_TIMEOUT (a time.ParseDuration string,
// strictly positive — a zero or negative timeout would disable the
// rendezvous deadline entirely and is rejected), REPRO_RETRY_MAX,
// REPRO_RETRY_BASE, REPRO_HEARTBEAT, and REPRO_COLL_TIMEOUT.
func SocketConfigFromEnv() (SocketConfig, error) {
	var cfg SocketConfig
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return cfg, fmt.Errorf("mpi: bad or missing %s: %v", EnvRank, err)
	}
	size, err := strconv.Atoi(os.Getenv(EnvSize))
	if err != nil {
		return cfg, fmt.Errorf("mpi: bad or missing %s: %v", EnvSize, err)
	}
	addrs := strings.Split(os.Getenv(EnvAddrs), ",")
	network := os.Getenv(EnvNet)
	if network == "" {
		network = "unix"
	}
	cfg = SocketConfig{Network: network, Rank: rank, Size: size, Addrs: addrs}
	if s := os.Getenv(EnvTimeout); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			return cfg, fmt.Errorf("mpi: bad %s: %v", EnvTimeout, err)
		}
		if d <= 0 {
			return cfg, fmt.Errorf("mpi: %s %q must be positive (it bounds the rendezvous; the default is %v)", EnvTimeout, s, DefaultRendezvousTimeout)
		}
		cfg.Timeout = d
	}
	if s := os.Getenv(EnvRetryMax); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return cfg, fmt.Errorf("mpi: bad %s %q: want a non-negative attempt count", EnvRetryMax, s)
		}
		cfg.Retry.Max = n
	}
	if d, err := envDuration(EnvRetryBase); err != nil {
		return cfg, err
	} else {
		cfg.Retry.BaseDelay = d
	}
	if d, err := envDuration(EnvHeartbeat); err != nil {
		return cfg, err
	} else {
		cfg.Heartbeat = d
	}
	if d, err := envDuration(EnvCollTimeout); err != nil {
		return cfg, err
	} else {
		cfg.CollTimeout = d
	}
	return cfg, nil
}

// envDuration parses an optional non-negative duration variable (empty
// or "0" disables the corresponding mechanism).
func envDuration(name string) (time.Duration, error) {
	s := os.Getenv(name)
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("mpi: bad %s %q: want a non-negative duration", name, s)
	}
	return d, nil
}

// helloMagic is the first payload word of a KindHello frame; it guards
// against a connection from something that is not a peer rank speaking
// this protocol.
const helloMagic = 0x5245_5052_4f31 // "REPRO1"

// writerQueueDepth bounds each connection's writer channel: a sender
// that outruns the wire by this many frames blocks until the writer
// drains (backpressure). Receivers are never the bottleneck — readers
// drain frames into unbounded queues — so this cannot deadlock.
const writerQueueDepth = 256

// sockConn is one neighbor connection: the net.Conn, the buffered
// reader its reader goroutine decodes from (created at handshake so no
// buffered bytes are lost), and the bounded writer channel. dead marks
// a connection whose peer failed or disappeared; operations involving
// that peer panic, operations between the surviving ranks proceed —
// a rank that finished and closed in an orderly way must not take its
// still-working neighbors down with it.
type sockConn struct {
	peer int
	nc   net.Conn
	br   *bufio.Reader
	wch  chan []byte
	dead atomic.Bool
	// lastRecv and lastSend hold the UnixNano time of the last inbound
	// frame and the last flushed outbound byte; the liveness watchdog
	// reads them to decide when a connection is idle (ping it) or a
	// peer is silent past the miss window (declare it dead).
	lastRecv atomic.Int64
	lastSend atomic.Int64
}

// newSockConn builds a connection record with both progress clocks
// started at the handshake.
func newSockConn(peer int, nc net.Conn, br *bufio.Reader) *sockConn {
	sc := &sockConn{peer: peer, nc: nc, br: br, wch: make(chan []byte, writerQueueDepth)}
	now := time.Now().UnixNano()
	sc.lastRecv.Store(now)
	sc.lastSend.Store(now)
	return sc
}

// SocketTransport is the multi-process Transport: one OS process per
// rank, a stream connection per neighbor (rank i accepts from every
// j > i and dials every j < i), and the internal/wire frame codec on
// each connection. Data and collective frames demultiplex on arrival
// into disjoint per-source queues, mirroring the in-process transport's
// disjoint data and collective mailboxes, so the exchange engine's
// drainer goroutine and a main-goroutine collective can make progress
// concurrently. The collective queues are the lane the shared
// collective algorithms (coll.go) run over, so reduction results are
// bit-identical to the in-process transport.
type SocketTransport struct {
	rank, size int
	pool       pool64
	conns      []*sockConn // indexed by peer rank; nil at self
	dataQ      []*mailbox
	collQ      []*mailbox
	coll       coll

	heartbeat time.Duration // liveness watchdog threshold; 0 disables

	closing   atomic.Bool
	failed    atomic.Bool
	failMu    sync.Mutex
	failErr   error
	done      chan struct{}
	closeOnce sync.Once
	rwg, wwg  sync.WaitGroup
	hbwg      sync.WaitGroup
}

// DialSocket performs the rendezvous for one rank of a socket world:
// listen on Addrs[Rank], accept a connection from every higher rank,
// dial every lower rank, and exchange hello frames validating protocol
// magic, world size, and peer identity. Transient failures — a peer
// whose listener is not up yet, a refused or reset dial, a handshake
// cut mid-frame — are retried per peer with jittered exponential
// backoff (SocketConfig.Retry) until the rendezvous deadline; a
// connection announcing a malformed hello is rejected by itself
// without aborting the rest of the rendezvous. DialSocket blocks until
// the full neighbor set is connected or the timeout expires.
func DialSocket(cfg SocketConfig) (*SocketTransport, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("mpi: socket world size %d", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("mpi: socket rank %d outside [0,%d)", cfg.Rank, cfg.Size)
	}
	if len(cfg.Addrs) != cfg.Size {
		return nil, fmt.Errorf("mpi: %d addresses for %d ranks", len(cfg.Addrs), cfg.Size)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultRendezvousTimeout
	}
	deadline := time.Now().Add(timeout)

	t := &SocketTransport{
		rank:      cfg.Rank,
		size:      cfg.Size,
		conns:     make([]*sockConn, cfg.Size),
		dataQ:     make([]*mailbox, cfg.Size),
		collQ:     make([]*mailbox, cfg.Size),
		heartbeat: cfg.Heartbeat,
		done:      make(chan struct{}),
	}
	// The collective lane copies at encode, so it never lends.
	encode := func(dst int, seq uint32, payload []int64) {
		t.enqueueFrame(dst, wire.KindColl, seq, payload)
	}
	t.coll = coll{rank: cfg.Rank, size: cfg.Size, in: t.collQ, send: encode, pool: &t.pool, timeout: cfg.CollTimeout}
	for r := range t.dataQ {
		t.dataQ[r] = newMailbox()
		t.collQ[r] = newMailbox()
	}

	// Accept from higher ranks concurrently with dialing lower ranks:
	// with both directions in flight no ordering of peer startups can
	// deadlock the rendezvous.
	acceptErr := make(chan error, 1)
	if cfg.Rank < cfg.Size-1 {
		ln, err := net.Listen(cfg.Network, cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d listen: %w", cfg.Rank, err)
		}
		timer := time.AfterFunc(time.Until(deadline), func() { ln.Close() })
		go func() {
			defer ln.Close()
			defer timer.Stop()
			acceptErr <- t.acceptPeers(ln, cfg, deadline)
		}()
	} else {
		acceptErr <- nil
	}

	var dialErr error
	for j := 0; j < cfg.Rank; j++ {
		if err := t.dialPeer(j, cfg, deadline); err != nil {
			dialErr = err
			break
		}
	}
	if err := <-acceptErr; dialErr == nil {
		dialErr = err
	}
	if dialErr != nil {
		for _, sc := range t.conns {
			if sc != nil {
				sc.nc.Close()
			}
		}
		return nil, dialErr
	}

	for _, sc := range t.conns {
		if sc == nil {
			continue
		}
		sc.nc.SetDeadline(time.Time{})
		t.rwg.Add(1)
		go t.readLoop(sc)
		t.wwg.Add(1)
		go t.writeLoop(sc)
	}
	if t.heartbeat > 0 {
		t.hbwg.Add(1)
		go t.heartbeatLoop()
	}
	return t, nil
}

// acceptPeers accepts and handshakes inbound connections until every
// higher rank is connected. A connection whose hello is malformed or
// cut is rejected per-pair — closed and forgotten, while the loop keeps
// accepting — because the real peer retries on a fresh connection; only
// a listener failure (usually the rendezvous deadline closing it)
// aborts, and the abort names the last rejected peer so a
// misconfigured world does not hide behind a bare timeout.
func (t *SocketTransport) acceptPeers(ln net.Listener, cfg SocketConfig, deadline time.Time) error {
	var lastReject error
	remaining := cfg.Size - 1 - cfg.Rank
	for remaining > 0 {
		nc, err := ln.Accept()
		if err != nil {
			if lastReject != nil {
				return fmt.Errorf("mpi: rank %d accept (rendezvous timeout? last rejected peer: %v): %w", cfg.Rank, lastReject, err)
			}
			return fmt.Errorf("mpi: rank %d accept (rendezvous timeout?): %w", cfg.Rank, err)
		}
		replaced, err := t.handshakeAccept(nc, cfg, deadline)
		if err != nil {
			nc.Close()
			lastReject = err
			continue
		}
		if !replaced {
			remaining--
		}
	}
	return nil
}

// dialPeer connects to rank j with jittered exponential backoff:
// transient rendezvous failures (no listener yet, refused or reset
// dial, handshake short-read) retry until the deadline or the
// configured attempt cap, and the final error carries the attempt
// count. Protocol-fatal handshake errors (wrong world size, wrong rank
// answering, non-protocol peer) abort immediately.
func (t *SocketTransport) dialPeer(j int, cfg SocketConfig, deadline time.Time) error {
	base := cfg.Retry.BaseDelay
	if base <= 0 {
		base = defaultRetryBase
	}
	delay := base
	var lastErr error
	for attempt := 1; ; attempt++ {
		if cfg.Retry.Max > 0 && attempt > cfg.Retry.Max {
			return fmt.Errorf("mpi: rank %d dial rank %d: retry budget exhausted after %d attempts: %w", cfg.Rank, j, cfg.Retry.Max, lastErr)
		}
		nc, err := net.DialTimeout(cfg.Network, cfg.Addrs[j], time.Until(deadline))
		if err == nil {
			err = t.handshakeDial(nc, j, cfg, deadline)
			if err == nil {
				return nil
			}
			nc.Close()
			if !rendezvousRetryable(err) {
				return fmt.Errorf("mpi: rank %d dial rank %d (attempt %d): %w", cfg.Rank, j, attempt, err)
			}
		}
		lastErr = err
		if !time.Now().Before(deadline) {
			return fmt.Errorf("mpi: rank %d dial rank %d: rendezvous deadline after %d attempts: %w", cfg.Rank, j, attempt, lastErr)
		}
		sleepJittered(delay, deadline)
		if delay *= 2; delay > retryMaxDelay {
			delay = retryMaxDelay
		}
	}
}

// rendezvousRetryable classifies a handshake error: network-level
// failures and frames cut mid-read are transient (the peer may be slow,
// restarting, or behind a flaky link) and worth retrying; a well-formed
// hello announcing the wrong world or rank is a configuration error and
// fatal.
func rendezvousRetryable(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, wire.ErrTruncated) ||
		errors.Is(err, wire.ErrBadLength)
}

// sleepJittered sleeps for d with ±50% jitter, never past the
// rendezvous deadline.
func sleepJittered(d time.Duration, deadline time.Time) {
	jittered := d/2 + time.Duration(rand.Int63n(int64(d)+1))
	if until := time.Until(deadline); jittered > until {
		jittered = until
	}
	if jittered > 0 {
		time.Sleep(jittered)
	}
}

// NewSocketWorld builds an n-rank socket world inside one process by
// running every rank's DialSocket concurrently; tests use it to
// exercise the wire path without spawning processes. Addrs[r] is rank
// r's listen address.
func NewSocketWorld(network string, addrs []string, timeout time.Duration) ([]Transport, error) {
	cfgs := make([]SocketConfig, len(addrs))
	for r := range cfgs {
		cfgs[r] = SocketConfig{Network: network, Rank: r, Size: len(addrs), Addrs: addrs, Timeout: timeout}
	}
	return DialSocketWorld(cfgs)
}

// DialSocketWorld runs DialSocket for every config concurrently, one
// rank each, and returns the transports in config order. If any rank
// fails, the others are closed and the first failure is returned.
func DialSocketWorld(cfgs []SocketConfig) ([]Transport, error) {
	ts := make([]Transport, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for r, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, err := DialSocket(cfg)
			if err != nil {
				errs[r] = err
				return
			}
			ts[r] = t
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, t := range ts {
				if t != nil {
					t.Close()
				}
			}
			return nil, fmt.Errorf("mpi: socket world rank %d: %w", r, err)
		}
	}
	return ts, nil
}

// helloFrame encodes this rank's hello: tag carries the sender rank,
// payload the protocol magic and the expected world size.
func helloFrame(rank, size int) []byte {
	return wire.AppendFrame(nil, wire.KindHello, uint32(rank), []int64{helloMagic, int64(size)})
}

// readHello reads and validates one hello frame, returning the peer
// rank it announces.
func readHello(br *bufio.Reader, cfg SocketConfig) (int, error) {
	kind, tag, payload, err := wire.ReadFrame(br, func(n int) []int64 { return make([]int64, n) })
	if err != nil {
		return -1, fmt.Errorf("mpi: rank %d handshake read: %w", cfg.Rank, err)
	}
	if kind != wire.KindHello || len(payload) != 2 || payload[0] != helloMagic {
		return -1, fmt.Errorf("mpi: rank %d handshake: peer is not speaking the repro wire protocol", cfg.Rank)
	}
	if int(payload[1]) != cfg.Size {
		return -1, fmt.Errorf("mpi: rank %d handshake: peer world size %d != %d", cfg.Rank, payload[1], cfg.Size)
	}
	return int(tag), nil
}

// handshakeAccept validates an inbound connection (which must announce
// a higher rank than ours) and replies with our own hello. A second
// connection from an already-connected peer replaces the first
// (replaced == true): it means the dialer's handshake-reply read was
// cut and it retried on a fresh connection, so the newest connection is
// the one the peer will actually use.
func (t *SocketTransport) handshakeAccept(nc net.Conn, cfg SocketConfig, deadline time.Time) (replaced bool, err error) {
	nc.SetDeadline(deadline)
	br := bufio.NewReader(nc)
	peer, err := readHello(br, cfg)
	if err != nil {
		return false, err
	}
	if peer <= cfg.Rank || peer >= cfg.Size {
		return false, fmt.Errorf("mpi: rank %d handshake: unexpected dial from rank %d", cfg.Rank, peer)
	}
	if _, err := nc.Write(helloFrame(cfg.Rank, cfg.Size)); err != nil {
		return false, fmt.Errorf("mpi: rank %d handshake reply to rank %d: %w", cfg.Rank, peer, err)
	}
	if old := t.conns[peer]; old != nil {
		old.nc.Close()
		replaced = true
	}
	t.conns[peer] = newSockConn(peer, nc, br)
	return replaced, nil
}

// handshakeDial sends our hello on an outbound connection to rank j and
// validates the reply.
func (t *SocketTransport) handshakeDial(nc net.Conn, j int, cfg SocketConfig, deadline time.Time) error {
	nc.SetDeadline(deadline)
	if _, err := nc.Write(helloFrame(cfg.Rank, cfg.Size)); err != nil {
		return fmt.Errorf("mpi: rank %d hello to rank %d: %w", cfg.Rank, j, err)
	}
	br := bufio.NewReader(nc)
	peer, err := readHello(br, cfg)
	if err != nil {
		return err
	}
	if peer != j {
		return fmt.Errorf("mpi: rank %d dialed %s for rank %d but rank %d answered", cfg.Rank, cfg.Addrs[j], j, peer)
	}
	t.conns[j] = newSockConn(j, nc, br)
	return nil
}

func (t *SocketTransport) Rank() int { return t.rank }
func (t *SocketTransport) Size() int { return t.size }

// fail poisons the whole transport: every blocked or future operation
// panics with TransportFailure carrying the first error. Used by Abort
// (explicit local failure) — a single peer's disappearance uses
// failPeer instead.
func (t *SocketTransport) fail(err error) {
	t.failMu.Lock()
	if t.failErr == nil {
		t.failErr = err
	}
	err = t.failErr
	t.failMu.Unlock()
	t.failed.Store(true)
	for r := range t.dataQ {
		t.dataQ[r].fail(TransportFailure{Err: err})
		t.collQ[r].fail(TransportFailure{Err: err})
	}
}

// failPeer poisons only one peer's queues and connection: receives
// from and sends to that rank panic with TransportFailure, while
// traffic among the surviving ranks continues. An orderly world
// teardown is not rank-synchronous — a finished rank may close its
// connections while slower ranks still talk to each other.
func (t *SocketTransport) failPeer(peer int, err error) {
	t.conns[peer].dead.Store(true)
	t.dataQ[peer].fail(TransportFailure{Err: err})
	t.collQ[peer].fail(TransportFailure{Err: err})
}

func (t *SocketTransport) failure() TransportFailure {
	t.failMu.Lock()
	err := t.failErr
	t.failMu.Unlock()
	if err == nil {
		err = errors.New("transport failed")
	}
	return TransportFailure{Err: err}
}

// readLoop decodes frames off one connection and demultiplexes them
// into the peer's data or collective queue. Any decode error or peer
// disappearance poisons that peer (unless we are closing). With the
// liveness watchdog enabled the read carries a rolling deadline of
// heartbeatMissFactor heartbeats: every arriving frame — data,
// collective, or ping — refreshes it, so the deadline fires only when
// the peer produced nothing at all for the whole miss window, and the
// failure names the rank, direction, and last-progress time.
func (t *SocketTransport) readLoop(sc *sockConn) {
	defer t.rwg.Done()
	missWindow := heartbeatMissFactor * t.heartbeat
	for {
		if missWindow > 0 {
			sc.nc.SetReadDeadline(time.Now().Add(missWindow))
		}
		kind, tag, payload, err := wire.ReadFrame(sc.br, t.pool.get)
		if err != nil {
			if t.closing.Load() {
				return
			}
			last := time.Unix(0, sc.lastRecv.Load())
			if missWindow > 0 && time.Since(last) >= missWindow {
				err = fmt.Errorf("liveness watchdog: rank %d sent nothing for %v (direction recv, last progress %s): peer dead or wedged",
					sc.peer, time.Since(last).Round(time.Millisecond), last.Format(time.StampMilli))
			} else if err == io.EOF {
				err = fmt.Errorf("peer rank %d closed the connection", sc.peer)
			} else {
				err = fmt.Errorf("read from rank %d: %w", sc.peer, err)
			}
			t.failPeer(sc.peer, err)
			return
		}
		sc.lastRecv.Store(time.Now().UnixNano())
		switch kind {
		case wire.KindData:
			t.dataQ[sc.peer].put(message{i64: payload, tag: tag})
		case wire.KindColl:
			t.collQ[sc.peer].put(message{i64: payload, tag: tag})
		case wire.KindPing:
			t.pool.put(payload) // progress marker only; never queued
		default:
			t.failPeer(sc.peer, fmt.Errorf("read from rank %d: unexpected frame kind %d after handshake", sc.peer, kind))
			return
		}
	}
}

// writeLoop writes queued frames to one connection, flushing whenever
// the queue goes idle. After a write error it keeps draining the
// channel (senders must never block on a dead connection) until Close.
// With the liveness watchdog enabled each write carries a rolling
// deadline: a peer that stops reading (wedged, not merely quiet) turns
// into a per-peer failure naming the rank, direction, and last-progress
// time once its socket buffers fill and the deadline fires.
func (t *SocketTransport) writeLoop(sc *sockConn) {
	defer t.wwg.Done()
	bw := bufio.NewWriter(sc.nc)
	missWindow := heartbeatMissFactor * t.heartbeat
	dead := false
	fail := func(err error) {
		if !t.closing.Load() {
			last := time.Unix(0, sc.lastSend.Load())
			if missWindow > 0 && time.Since(last) >= missWindow {
				err = fmt.Errorf("liveness watchdog: rank %d accepted nothing for %v (direction send, last progress %s): peer dead or wedged",
					sc.peer, time.Since(last).Round(time.Millisecond), last.Format(time.StampMilli))
			} else {
				err = fmt.Errorf("write to rank %d: %w", sc.peer, err)
			}
			t.failPeer(sc.peer, err)
		}
		dead = true
	}
	write := func(buf []byte) {
		if dead {
			return
		}
		if missWindow > 0 {
			sc.nc.SetWriteDeadline(time.Now().Add(missWindow))
		}
		if _, err := bw.Write(buf); err != nil {
			fail(err)
		}
	}
	for {
		select {
		case buf := <-sc.wch:
			write(buf)
			if !dead && len(sc.wch) == 0 {
				if err := bw.Flush(); err != nil {
					fail(err)
				} else {
					sc.lastSend.Store(time.Now().UnixNano())
				}
			}
		case <-t.done:
			for {
				select {
				case buf := <-sc.wch:
					write(buf)
				default:
					if !dead {
						bw.Flush() //lint:ignore errcheck closing teardown: the peer may already be gone, and there is nobody left to hand the error to
					}
					return
				}
			}
		}
	}
}

// heartbeatLoop keeps idle connections visibly alive: every half
// heartbeat it scans the neighbor set and enqueues one wire.KindPing on
// each connection whose send side has been idle past the heartbeat
// threshold. The enqueue is non-blocking — a full writer queue means
// real traffic is in flight, which is better liveness evidence than a
// ping. Exits at Close (writers drain after it, so no ping is ever
// written to a closed connection's buffer mid-teardown).
func (t *SocketTransport) heartbeatLoop() {
	defer t.hbwg.Done()
	ping := wire.AppendFrame(nil, wire.KindPing, 0, nil)
	ticker := time.NewTicker(t.heartbeat / 2)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			return
		case now := <-ticker.C:
			for _, sc := range t.conns {
				if sc == nil || sc.dead.Load() {
					continue
				}
				if now.Sub(time.Unix(0, sc.lastSend.Load())) < t.heartbeat {
					continue
				}
				select {
				case sc.wch <- ping:
				default:
				}
			}
		}
	}
}

// enqueueFrame serializes one frame and hands it to dst's writer;
// blocks for backpressure when the writer queue is full.
func (t *SocketTransport) enqueueFrame(dst int, kind byte, tag uint32, payload []int64) {
	if t.failed.Load() {
		panic(t.failure())
	}
	if t.conns[dst].dead.Load() {
		panic(TransportFailure{Err: fmt.Errorf("send to failed rank %d", dst)})
	}
	buf := wire.AppendFrame(make([]byte, 0, wire.FrameSize(len(payload))), kind, tag, payload)
	select {
	case t.conns[dst].wch <- buf:
	case <-t.done:
		panic(t.failure())
	}
}

// Send64 serializes data into a frame for dst's connection; the
// payload is copied at encode time, so completion is eager. A self
// send short-circuits through the local queue and the buffer pool.
func (t *SocketTransport) Send64(dst int, tag uint32, data []int64) {
	if dst < 0 || dst >= t.size {
		panic(fmt.Sprintf("mpi: Isend64 to rank %d outside [0,%d)", dst, t.size))
	}
	if dst == t.rank {
		cp := t.pool.get(len(data))
		copy(cp, data)
		t.dataQ[dst].put(message{i64: cp, tag: tag})
		return
	}
	t.enqueueFrame(dst, wire.KindData, tag, data)
}

// Recv64 blocks until the next data frame from src and returns its
// pool-backed payload and tag; it panics with TransportFailure if the
// transport was poisoned by a peer failure.
func (t *SocketTransport) Recv64(src int) ([]int64, uint32) {
	if src < 0 || src >= t.size {
		panic(fmt.Sprintf("mpi: Recv64 from rank %d outside [0,%d)", src, t.size))
	}
	msg := t.dataQ[src].take()
	return msg.i64, msg.tag
}

func (t *SocketTransport) Recycle64(buf []int64) {
	t.pool.put(buf)
}

// The collectives run the shared algorithms of coll.go over this
// transport's lane.

func (t *SocketTransport) Barrier() { t.coll.barrier() }
func (t *SocketTransport) AllreduceI64(vals []int64, op Op) []int64 {
	return allreduce(&t.coll, vals, op)
}
func (t *SocketTransport) AllreduceF64(vals []float64, op Op) []float64 {
	return allreduce(&t.coll, vals, op)
}
func (t *SocketTransport) BcastI64(root int, data []int64) []int64 { return t.coll.bcast(root, data) }
func (t *SocketTransport) AllgathervI64(data []int64) [][]int64    { return t.coll.allgatherv(data) }
func (t *SocketTransport) AlltoallvI64(send []int64, counts []int) ([]int64, []int) {
	return alltoallv(&t.coll, send, counts)
}
func (t *SocketTransport) AlltoallvF64(send []float64, counts []int) ([]float64, []int) {
	return alltoallv(&t.coll, send, counts)
}

// Abort poisons the transport and tears down its connections so peers
// blocked on this rank unwind with TransportFailure instead of
// hanging; RunWorld calls it when a rank function panics.
func (t *SocketTransport) Abort() {
	t.fail(errors.New("transport aborted"))
	for _, sc := range t.conns {
		if sc != nil {
			sc.nc.Close()
		}
	}
}

// Close shuts the transport down in order: the heartbeat stops, writers
// flush everything already queued and exit, then connections close and
// readers exit, and finally every receive queue is poisoned with a
// "transport closed" failure. The poison makes Close safe concurrent
// with an in-flight Recv64 — the blocked receiver unwinds with a
// TransportFailure instead of hanging forever — while frames already
// queued are still delivered first (poison only surfaces on an empty
// queue). Close is idempotent: second and later calls redo only
// already-settled steps.
func (t *SocketTransport) Close() error {
	t.closing.Store(true)
	t.closeOnce.Do(func() { close(t.done) })
	t.hbwg.Wait()
	t.wwg.Wait()
	for _, sc := range t.conns {
		if sc != nil {
			sc.nc.Close()
		}
	}
	t.rwg.Wait()
	closedErr := errors.New("transport closed")
	for r := range t.dataQ {
		t.dataQ[r].fail(TransportFailure{Err: closedErr})
		t.collQ[r].fail(TransportFailure{Err: closedErr})
	}
	return nil
}
