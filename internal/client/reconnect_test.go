package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"eleos/internal/chaos"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/server"
)

// Reconnect coverage: the client must absorb repeated mid-batch
// connection kills with bounded backoff, and a permanently-down server
// must surface ErrAttemptsExhausted promptly — a retryable signal the
// caller can act on, never a hang.

func reconnectOpts() client.Options {
	return client.Options{
		DialTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    6,
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		Seed:           1,
	}
}

func startBackend(t *testing.T) (*core.Controller, string) {
	t.Helper()
	dev := flash.MustNewDevice(flash.Geometry{
		Channels: 4, EBlocksPerChannel: 48,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}, flash.Latency{})
	ctl, err := core.Format(dev, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(ctl, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return ctl, ln.Addr().String()
}

// TestReconnectUnderRepeatedKills kills the connection after every other
// request frame — each kill lands after the batch reached the server and
// before its ack reached the client — and asserts every batch is acked
// exactly once with the client reconnecting through bounded retries.
func TestReconnectUnderRepeatedKills(t *testing.T) {
	ctl, backend := startBackend(t)
	px, err := chaos.NewProxy(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	cl, err := client.Dial(px.Addr(), reconnectOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sid, err := cl.OpenSession()
	if err != nil {
		t.Fatal(err)
	}

	const batches = 20
	for wsn := uint64(1); wsn <= batches; wsn++ {
		if wsn%2 == 0 {
			px.ArmKill()
		}
		if _, err := cl.Flush(sid, wsn, []core.LPage{{LPID: 100, Data: []byte("reconnect batch payload")}}); err != nil {
			t.Fatalf("wsn %d: %v", wsn, err)
		}
	}

	if px.Kills() != batches/2 {
		t.Errorf("proxy fired %d kills, want %d", px.Kills(), batches/2)
	}
	st := cl.Stats()
	if st.Retries < int64(batches/2) {
		t.Errorf("client retried %d times, expected at least one retry per kill (%d)", st.Retries, batches/2)
	}
	// Bounded: each kill costs a handful of attempts, never an unbounded
	// retry storm.
	if max := int64(batches/2) * int64(reconnectOpts().MaxAttempts); st.Retries > max {
		t.Errorf("client retried %d times, beyond the %d the backoff policy allows", st.Retries, max)
	}
	high, err := ctl.SessionHighestWSN(sid)
	if err != nil {
		t.Fatal(err)
	}
	if high != batches {
		t.Errorf("server applied WSN %d, want %d — a kill dropped or double-applied a batch", high, batches)
	}
	// Session stats must show the killed retries were absorbed by WSN
	// dedup, not re-applied.
	sf, err := cl.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if sf.Counter("core.write.stale") == 0 {
		t.Error("no stale writes recorded; retries were never deduplicated")
	}
}

// TestDialPermanentlyDownFailsFast: dialing an address nobody listens on
// exhausts MaxAttempts with bounded backoff and returns
// ErrAttemptsExhausted — quickly, and never a hang.
func TestDialPermanentlyDownFailsFast(t *testing.T) {
	// Grab a port and close it again: a definitely-dead address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	start := time.Now()
	_, err = client.Dial(dead, reconnectOpts())
	elapsed := time.Since(start)
	if !errors.Is(err, client.ErrAttemptsExhausted) {
		t.Fatalf("Dial to dead address: %v, want ErrAttemptsExhausted", err)
	}
	// 6 attempts with ≤20ms backoff must come back in well under the
	// request timeout; generous bound for loaded CI hosts.
	if elapsed > 3*time.Second {
		t.Fatalf("Dial took %v to fail; backoff is not bounded", elapsed)
	}
}

// TestFlushAfterServerDiesFailsFast: a client with a live session keeps
// retrying through a server that went down for good, then surfaces
// ErrAttemptsExhausted instead of hanging; the same client recovers once
// a server is back.
func TestFlushAfterServerDiesFailsFast(t *testing.T) {
	ctl, backend := startBackend(t)
	px, err := chaos.NewProxy(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	cl, err := client.Dial(px.Addr(), reconnectOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sid, err := cl.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Flush(sid, 1, []core.LPage{{LPID: 7, Data: []byte("before outage")}}); err != nil {
		t.Fatal(err)
	}

	// Point the proxy into the void: every reconnect now fails.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	_ = deadLn.Close()
	px.SetBackend(deadAddr)
	px.ArmKill() // cut the live connection at the next frame

	start := time.Now()
	_, err = cl.Flush(sid, 2, []core.LPage{{LPID: 8, Data: []byte("during outage")}})
	elapsed := time.Since(start)
	if !errors.Is(err, client.ErrAttemptsExhausted) {
		t.Fatalf("flush during outage: %v, want ErrAttemptsExhausted", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("flush took %v to fail; retry loop is unbounded", elapsed)
	}

	// The error was retryable in the operational sense: with the server
	// back, the same client and session resume where they left off.
	px.SetBackend(backend)
	if _, err := cl.Flush(sid, 2, []core.LPage{{LPID: 8, Data: []byte("during outage")}}); err != nil {
		t.Fatalf("flush after restore: %v", err)
	}
	high, err := ctl.SessionHighestWSN(sid)
	if err != nil {
		t.Fatal(err)
	}
	if high != 2 {
		t.Fatalf("session WSN %d after recovery, want 2", high)
	}
}
