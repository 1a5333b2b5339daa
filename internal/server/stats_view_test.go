package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/netproto"
	"eleos/internal/server"
)

// serverStatsInstrument names, for every server.Stats field, the counter
// or gauge the view reads. TestServerStatsViewComplete walks the struct
// by reflection, so a field added without a line here — or without its
// line in Stats() — fails.
var serverStatsInstrument = map[string]string{
	"Accepted":      "server.accepted",
	"Rejected":      "server.rejected",
	"Requests":      "server.requests",
	"Batches":       "server.batches",
	"BadFrames":     "server.bad_frames",
	"Errors":        "server.errors",
	"BytesIn":       "server.bytes_in",
	"BytesOut":      "server.bytes_out",
	"PeakInflight":  "server.peak_inflight_bytes",
	"DrainedConns":  "server.drained_conns",
	"ActiveConns":   "server.active_conns",
	"InflightBytes": "server.inflight_bytes",
}

// TestServerStatsViewComplete makes every front-end event happen — a
// flush held in flight behind its predecessor WSN, an error reply, a bad
// frame, a connection refused at the limit, connections closed by drain —
// and at three quiet points requires every Stats field to equal its
// instrument in the registry. Live connections and drained ones exclude
// each other, so "no field stays zero" is judged over the three points.
func TestServerStatsViewComplete(t *testing.T) {
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
		v := reflect.ValueOf(srv.Stats())
		for i := 0; i < v.NumField(); i++ {
			name, val := v.Type().Field(i).Name, v.Field(i).Int()
			inst, ok := serverStatsInstrument[name]
			if !ok {
				t.Fatalf("Stats.%s has no instrument in serverStatsInstrument", name)
			}
			if got, ok := inSnap[inst]; !ok {
				t.Errorf("%s: Stats.%s: instrument %s is not in the registry", when, name, inst)
			} else if got != val {
				t.Errorf("%s: Stats.%s = %d, %s = %d", when, name, val, inst, got)
			}
			nonZero[name] = nonZero[name] || val != 0
		}
	}
	waitFor := func(what string, cond func(server.Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(srv.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, srv.Stats())
			}
		}
	}

	// WSN 2 ahead of WSN 1: admitted, then parked in the controller's
	// claim, so its bytes stay in flight until the predecessor lands.
	early, err := client.Dial(addrStr, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	sid, err := early.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	earlyDone := make(chan error, 1)
	go func() {
		_, err := early.Flush(sid, 2, []core.LPage{{LPID: 8, Data: []byte("second")}})
		earlyDone <- err
	}()
	waitFor("the early flush to be admitted", func(st server.Stats) bool { return st.InflightBytes > 0 })
	check("flush in flight")

	cl, err := client.Dial(addrStr, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
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
	waitFor("the bad frame to cost its connection", func(st server.Stats) bool { return st.BadFrames == 1 && st.ActiveConns == 2 })
	dialRaw(t, addrStr)
	waitFor("the idle connection to be accepted", func(st server.Stats) bool { return st.ActiveConns == 3 })
	refused := dialRaw(t, addrStr)
	if typ, body, err := netproto.ReadFrame(refused, 0); err != nil || typ != netproto.MsgRespError {
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
	if st := srv.Stats(); st.ActiveConns != 0 || st.InflightBytes != 0 || st.DrainedConns != 3 {
		t.Errorf("after drain: %+v, want no active connection, nothing in flight, 3 drained", st)
	}
	for name := range serverStatsInstrument {
		if !nonZero[name] {
			t.Errorf("Stats.%s was zero at every point of a scenario that triggers its event", name)
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
