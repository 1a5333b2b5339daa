package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/metrics"
	"eleos/internal/netproto"
	"eleos/internal/server"
)

// serverInstruments lists every server.* counter and gauge.
// TestServerInstrumentsComplete fails an instrument the registry holds
// that is missing here, and one the scenario never moves.
var serverInstruments = []string{
	"server.accepted", "server.rejected", "server.requests", "server.batches",
	"server.bad_frames", "server.errors", "server.bytes_in", "server.bytes_out",
	"server.peak_inflight_bytes", "server.drained_conns", "server.active_conns",
	"server.inflight_bytes",
}

// TestServerInstrumentsComplete makes every front-end event happen — a
// flush held in flight behind its predecessor WSN, an error reply, a bad
// frame, a connection refused at the limit, connections closed by drain —
// and requires every server.* counter and gauge in the snapshot to be
// listed in serverInstruments. Live connections and drained ones exclude
// each other, so "no instrument stays zero" is judged over three quiet
// points.
func TestServerInstrumentsComplete(t *testing.T) {
	ctl, _, srv, addrStr, _ := startServer(t, server.Config{MaxConns: 3})
	nonZero := make(map[string]bool)
	check := func(when string) {
		t.Helper()
		snap := quiesce(t, ctl)
		inSnap := make(map[string]int64)
		for _, c := range snap.Counters {
			inSnap[c.Name] = c.Value
		}
		for _, g := range snap.Gauges {
			inSnap[g.Name] = g.Value
		}
		for name := range inSnap {
			if strings.HasPrefix(name, "server.") && !slices.Contains(serverInstruments, name) {
				t.Fatalf("%s: instrument %s is not in serverInstruments", when, name)
			}
		}
		for _, name := range serverInstruments {
			v, ok := inSnap[name]
			if !ok {
				t.Errorf("%s: instrument %s is not in the registry", when, name)
			}
			nonZero[name] = nonZero[name] || v != 0
		}
	}
	waitFor := func(what string, cond func(metrics.Snapshot) bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(ctl.MetricsSnapshot()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// WSN 2 ahead of WSN 1: admitted, then parked in the controller's
	// claim, so its bytes stay in flight until the predecessor lands.
	// Both clients stay open to the end: the drain must find their
	// connections, which a finalizer would close once a client is
	// unreachable.
	early, err := client.Dial(addrStr, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = early.Close() })
	sid, err := early.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	earlyDone := make(chan error, 1)
	go func() {
		_, err := early.Flush(sid, 2, []core.LPage{{LPID: 8, Data: []byte("second")}})
		earlyDone <- err
	}()
	waitFor("the early flush to be admitted", func(s metrics.Snapshot) bool { return s.Gauge("server.inflight_bytes") > 0 })
	check("flush in flight")

	cl, err := client.Dial(addrStr, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	if _, err := cl.Flush(sid, 1, []core.LPage{{LPID: 8, Data: []byte("first")}}); err != nil {
		t.Fatal(err)
	}
	if err := <-earlyDone; err != nil {
		t.Fatalf("early flush: %v", err)
	}
	if _, err := cl.Read(999_999); !errors.Is(err, core.ErrNotFound) { // an error reply
		t.Fatalf("missing LPID error = %v, want core.ErrNotFound", err)
	}
	// The third slot: a peer whose length prefix is over the cap loses its
	// connection (a bad frame); an idle one takes the slot again, and the
	// next connection is refused at the limit.
	var hostile [8]byte
	binary.LittleEndian.PutUint32(hostile[:4], 0xFFFFFFFF)
	raw := dialRaw(t, addrStr)
	if _, err := raw.Write(hostile[:]); err != nil {
		t.Fatal(err)
	}
	waitFor("the bad frame to cost its connection", func(s metrics.Snapshot) bool {
		return s.Counter("server.bad_frames") == 1 && s.Gauge("server.active_conns") == 2
	})
	dialRaw(t, addrStr)
	waitFor("the idle connection to be accepted", func(s metrics.Snapshot) bool { return s.Gauge("server.active_conns") == 3 })
	refused := dialRaw(t, addrStr)
	if typ, body, err := netproto.ReadFrame(refused); err != nil || typ != netproto.MsgRespError {
		t.Fatalf("connection over the limit got type 0x%02x, %v; want an error frame", typ, err)
	} else if re, _ := netproto.ParseError(body); re == nil || re.Code != netproto.CodeBusy {
		t.Fatalf("connection over the limit got %v, want CodeBusy", re)
	}
	check("three connections, one refused")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	check("drained")
	if s := ctl.MetricsSnapshot(); s.Gauge("server.active_conns") != 0 || s.Gauge("server.inflight_bytes") != 0 || s.Counter("server.drained_conns") != 3 {
		t.Errorf("after drain: active_conns %d, inflight_bytes %d, drained_conns %d; want 0, 0, 3",
			s.Gauge("server.active_conns"), s.Gauge("server.inflight_bytes"), s.Counter("server.drained_conns"))
	}
	for _, name := range serverInstruments {
		if !nonZero[name] {
			t.Errorf("%s was zero at every point of a scenario that triggers its event", name)
		}
	}
}

// dialRaw opens a bare TCP connection the test closes at its end.
func dialRaw(t *testing.T, addrStr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addrStr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}
