package mpi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

func setSocketEnv(t *testing.T) {
	t.Helper()
	t.Setenv(EnvRank, "1")
	t.Setenv(EnvSize, "2")
	t.Setenv(EnvAddrs, "/tmp/a,/tmp/b")
	t.Setenv(EnvNet, "unix")
}

func TestSocketConfigFromEnvRejectsNonPositiveTimeout(t *testing.T) {
	for _, bad := range []string{"0", "0s", "-1s", "-250ms"} {
		t.Run(bad, func(t *testing.T) {
			setSocketEnv(t)
			t.Setenv(EnvTimeout, bad)
			if _, err := SocketConfigFromEnv(); err == nil {
				t.Fatalf("%s=%q accepted; a non-positive timeout would disable the rendezvous deadline", EnvTimeout, bad)
			}
		})
	}
	setSocketEnv(t)
	t.Setenv(EnvTimeout, "5s")
	cfg, err := SocketConfigFromEnv()
	if err != nil || cfg.Timeout != 5*time.Second {
		t.Fatalf("valid timeout: cfg.Timeout = %v, err = %v", cfg.Timeout, err)
	}
}

func TestSocketConfigFromEnvLivenessKnobs(t *testing.T) {
	setSocketEnv(t)
	t.Setenv(EnvRetryMax, "7")
	t.Setenv(EnvRetryBase, "3ms")
	t.Setenv(EnvHeartbeat, "2s")
	t.Setenv(EnvCollTimeout, "30s")
	cfg, err := SocketConfigFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Retry.Max != 7 || cfg.Retry.BaseDelay != 3*time.Millisecond {
		t.Fatalf("retry knobs = %+v", cfg.Retry)
	}
	if cfg.Heartbeat != 2*time.Second || cfg.CollTimeout != 30*time.Second {
		t.Fatalf("liveness knobs = (%v, %v)", cfg.Heartbeat, cfg.CollTimeout)
	}

	for name, bad := range map[string]string{
		EnvRetryMax:    "-1",
		EnvRetryBase:   "-2ms",
		EnvHeartbeat:   "fast",
		EnvCollTimeout: "-1s",
	} {
		t.Run(name, func(t *testing.T) {
			setSocketEnv(t)
			t.Setenv(name, bad)
			if _, err := SocketConfigFromEnv(); err == nil {
				t.Fatalf("%s=%q accepted", name, bad)
			}
		})
	}
}

// TestRendezvousRetryable pins the retry classifier: transient network
// and short-read failures retry; protocol-level rejections are fatal.
func TestRendezvousRetryable(t *testing.T) {
	retryable := []error{
		io.EOF,
		io.ErrUnexpectedEOF,
		fmt.Errorf("mpi: rank 1 handshake read: %w", fmt.Errorf("%w: input ends inside header", wire.ErrTruncated)),
		fmt.Errorf("%w: reading length", wire.ErrBadLength),
		&net.OpError{Op: "dial", Err: errors.New("connection refused")},
	}
	for _, err := range retryable {
		if !rendezvousRetryable(err) {
			t.Errorf("rendezvousRetryable(%v) = false, want true", err)
		}
	}
	fatal := []error{
		errors.New("mpi: rank 1 handshake: peer world size 3 != 2"),
		errors.New("mpi: rank 1 handshake: peer is not speaking the repro wire protocol"),
		fmt.Errorf("%w: 9", wire.ErrBadKind),
	}
	for _, err := range fatal {
		if rendezvousRetryable(err) {
			t.Errorf("rendezvousRetryable(%v) = true, want false", err)
		}
	}
}

// TestFrameQueueTakeTimeout pins the collective watchdog's hook: a
// bounded take on an empty queue reports ok == false after the bound, a
// queued frame always wins over the timer, and poison still panics.
func TestFrameQueueTakeTimeout(t *testing.T) {
	q := newMailbox()
	start := time.Now()
	if _, ok := q.takeTimeout(20 * time.Millisecond); ok {
		t.Fatal("empty queue returned a frame")
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("takeTimeout returned after %v, before the bound", elapsed)
	}

	q.put(message{i64: []int64{42}, tag: 7})
	msg, ok := q.takeTimeout(time.Nanosecond)
	if !ok || msg.tag != 7 || len(msg.i64) != 1 || msg.i64[0] != 42 {
		t.Fatalf("queued frame lost to the timer: (%v, %d, %v)", msg.i64, msg.tag, ok)
	}

	q.fail(TransportFailure{Err: errors.New("poisoned")})
	defer func() {
		if _, isTF := AsTransportFailure(recover()); !isTF {
			t.Fatal("take on a poisoned queue did not panic with TransportFailure")
		}
	}()
	q.takeTimeout(time.Millisecond)
	t.Fatal("unreachable")
}
