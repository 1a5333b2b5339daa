package server_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/netproto"
	"eleos/internal/server"
)

// TestWatchStatsLifecycle is the acceptance test for the streaming
// telemetry path: subscribe, receive N periodic pushes, unsubscribe
// cleanly — and the connection must remain usable for ordinary requests
// afterwards.
func TestWatchStatsLifecycle(t *testing.T) {
	ctl, _, _, addrStr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Background traffic so successive pushes actually differ.
	sess, err := cl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	stopWrites := make(chan struct{})
	var wg sync.WaitGroup
	wcl, err := client.Dial(addrStr, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer wcl.Close()
	wsess, err := wcl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopWrites:
				return
			default:
			}
			_ = wsess.Flush([]core.LPage{{LPID: addr.LPID(uint64(i%9) + 1), Data: pageData(i, 900)}})
		}
	}()

	var got []netproto.StatsFull
	err = cl.WatchStats(context.Background(), 20*time.Millisecond, func(sf netproto.StatsFull) error {
		got = append(got, sf)
		if len(got) >= 5 {
			return errEnough
		}
		return nil
	})
	close(stopWrites)
	wg.Wait()
	if !errors.Is(err, errEnough) {
		t.Fatalf("WatchStats = %v, want errEnough", err)
	}
	if len(got) != 5 {
		t.Fatalf("received %d pushes, want 5", len(got))
	}
	for i, sf := range got {
		if sf.Health.EBlocksTotal == 0 {
			t.Fatalf("push %d carries an empty health census", i)
		}
		if sf.Snap.Label("gc.policy") == "" {
			t.Fatalf("push %d is missing the gc.policy label", i)
		}
	}
	// Counters are monotonic across pushes (same registry, same server).
	for i := 1; i < len(got); i++ {
		if got[i].Snap.Counter("server.requests") < got[i-1].Snap.Counter("server.requests") {
			t.Fatalf("push %d went backwards", i)
		}
	}

	// The stream's connection is still a request/reply connection.
	if err := sess.Flush([]core.LPage{{LPID: 1, Data: pageData(0, 600)}}); err != nil {
		t.Fatalf("flush after unsubscribe: %v", err)
	}
	sf, err := cl.StatsFull()
	if err != nil {
		t.Fatalf("stats_full after unsubscribe: %v", err)
	}
	if sf.Snap.Counter("server.watch_pushes") < 5 {
		t.Fatalf("server.watch_pushes = %d, want >= 5", sf.Snap.Counter("server.watch_pushes"))
	}
	_ = ctl
}

var errEnough = errors.New("test: enough pushes")

// TestWatchStatsCtxCancel verifies ctx cancellation ends the stream with
// the clean unsubscribe handshake even when no push is imminent (long
// interval), without tearing the connection down.
func TestWatchStatsCtxCancel(t *testing.T) {
	_, _, _, addrStr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cl.WatchStats(ctx, 30*time.Second, func(netproto.StatsFull) error { return nil })
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("WatchStats = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WatchStats did not return after ctx cancel")
	}
	// Clean handshake: the same client keeps working.
	if _, err := cl.StatsFull(); err != nil {
		t.Fatalf("stats_full after cancel: %v", err)
	}
}

// TestWatchStatsDrainAborts verifies Drain ends an active stream: the
// blocked subscriber is poked loose, the watcher goroutine is reaped,
// and Drain completes within its deadline.
func TestWatchStatsDrainAborts(t *testing.T) {
	_, _, srv, addrStr, done := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	streamErr := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		first := true
		streamErr <- cl.WatchStats(context.Background(), 20*time.Millisecond, func(netproto.StatsFull) error {
			if first {
				first = false
				close(started)
			}
			return nil
		})
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("stream never delivered a push")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case err := <-streamErr:
		if err == nil {
			t.Fatal("stream survived drain")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after drain")
	}
	select {
	case err := <-done:
		if !errors.Is(err, server.ErrDraining) {
			t.Fatalf("Serve = %v, want ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestWatchStatsSlowConsumer verifies a subscriber that never drains its
// pushes cannot stall the server: once the socket buffers fill, the push
// write deadline fires and the server closes that connection, while
// other connections keep flowing.
func TestWatchStatsSlowConsumer(t *testing.T) {
	_, _, _, addrStr, _ := startServer(t, server.Config{IOTimeout: 300 * time.Millisecond})

	// A raw subscriber that sends watch_stats and then never reads again.
	conn, err := net.Dial("tcp", addrStr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A tiny receive buffer keeps the kernel from absorbing pushes on the
	// peer's behalf, so the server's write deadline fires quickly.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	if err := netproto.NewFrameWriter(conn).WriteFrame(netproto.MsgWatchStats, netproto.WatchStatsBody(netproto.MinWatchIntervalMS)); err != nil {
		t.Fatal(err)
	}
	typ, _, err := netproto.ReadFrame(conn, 0)
	if err != nil || typ != netproto.MsgRespWatchStats {
		t.Fatalf("subscribe reply: type 0x%02x err %v", typ, err)
	}
	// From here the peer is comatose: no reads, ever.

	// A healthy client on another connection must stay responsive the
	// whole time the slow consumer is wedging its own socket.
	cl, err := client.Dial(addrStr, fastOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	killed := false
	for time.Now().Before(deadline) {
		if err := sess.Flush([]core.LPage{{LPID: 1, Data: pageData(1, 800)}}); err != nil {
			t.Fatalf("healthy client stalled: %v", err)
		}
		sf, err := cl.StatsFull()
		if err != nil {
			t.Fatalf("healthy client stats: %v", err)
		}
		// The wedged subscriber eventually loses its connection; active
		// conns settle back to just the healthy client's.
		if sf.Snap.Gauge("server.active_conns") <= 1 {
			killed = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !killed {
		t.Fatal("slow consumer was never disconnected")
	}
}
