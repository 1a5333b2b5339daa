package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/netproto"
	"eleos/internal/server"
	"eleos/internal/trace"
)

func testGeometry() flash.Geometry {
	return flash.Geometry{
		Channels: 4, EBlocksPerChannel: 48,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
}

// startServer formats a fresh controller and serves it on loopback.
func startServer(t *testing.T, scfg server.Config) (*core.Controller, *flash.Device, *server.Server, string, chan error) {
	t.Helper()
	dev := flash.MustNewDevice(testGeometry(), flash.Latency{})
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = 8 << 20
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(ctl, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return ctl, dev, srv, ln.Addr().String(), done
}

func fastOpts(seed int64) client.Options {
	return client.Options{
		DialTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    12,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     40 * time.Millisecond,
		Seed:           seed,
	}
}

// --- killer proxy -----------------------------------------------------------

// killerProxy sits between a client and the server, forwarding netproto
// frames. Arming it kills the next request's connection AFTER the full
// request frame reached the server but BEFORE any reply byte reaches the
// client — the mid-reply connection kill the retry protocol must absorb.
// The kill waits for the reply's first byte, so the server has read and
// claimed the request; that byte is dropped and the client cut off.
type killerProxy struct {
	ln      net.Listener
	backend string

	mu       sync.Mutex
	killNext bool
	kills    int
}

func newKillerProxy(t *testing.T, backend string) *killerProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killerProxy{ln: ln, backend: backend}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.pipe(conn)
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return p
}

func (p *killerProxy) addr() string { return p.ln.Addr().String() }

func (p *killerProxy) armKill() {
	p.mu.Lock()
	p.killNext = true
	p.mu.Unlock()
}

func (p *killerProxy) killCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kills
}

func (p *killerProxy) takeKill() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.killNext {
		return false
	}
	p.killNext = false
	p.kills++
	return true
}

func (p *killerProxy) pipe(cl net.Conn) {
	be, err := net.Dial("tcp", p.backend)
	if err != nil {
		_ = cl.Close()
		return
	}
	var kill atomic.Bool // the request in flight is the armed one
	replies := make(chan struct{})
	go func() { // reply direction
		defer close(replies)
		buf := make([]byte, 32<<10)
		for {
			n, err := be.Read(buf)
			if n > 0 && kill.Load() {
				_ = cl.Close() // drop the reply's first byte and the client with it
				return
			}
			if n > 0 {
				if _, werr := cl.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	finish := func() {
		_ = cl.Close()
		if tc, ok := be.(*net.TCPConn); ok {
			_ = tc.CloseWrite() // let the server finish reading, then see EOF
		}
		<-replies
		_ = be.Close()
	}
	defer finish()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(cl, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > 64<<20 {
			return
		}
		frame := make([]byte, 4+int(n))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(cl, frame[4:]); err != nil {
			return
		}
		if p.takeKill() {
			kill.Store(true) // before the request can draw a reply
		}
		if _, err := be.Write(frame); err != nil {
			return
		}
	}
}

// --- the acceptance scenario ------------------------------------------------

// TestLoopbackIntegration is the end-to-end durability + idempotence
// proof: N concurrent clients write over real TCP, one connection dies
// mid-reply and its client retries the same (sid, wsn) without the batch
// being double-applied, the server drains gracefully, and a controller
// reopened from the same flash recovers every acknowledged batch.
func TestLoopbackIntegration(t *testing.T) {
	ctl, dev, srv, addrStr, serveDone := startServer(t, server.Config{})
	proxy := newKillerProxy(t, addrStr)

	const (
		nClients      = 4
		batches       = 24
		pagesPerBatch = 3
	)
	type ack struct {
		lpid addr.LPID
		data []byte
	}
	var (
		mu    sync.Mutex
		acked []ack
		sids  []uint64
	)
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	var killedClient *client.Client
	for w := 0; w < nClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			target := addrStr
			if w == 0 {
				target = proxy.addr()
			}
			cl, err := client.Dial(target, fastOpts(int64(w+1)))
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", w, err)
				return
			}
			if w == 0 {
				killedClient = cl
			}
			sess, err := cl.NewSession()
			if err != nil {
				errs <- fmt.Errorf("client %d session: %w", w, err)
				return
			}
			mu.Lock()
			sids = append(sids, sess.SID())
			mu.Unlock()
			for i := 0; i < batches; i++ {
				if w == 0 && i == batches/2 {
					proxy.armKill()
				}
				pages := make([]core.LPage, pagesPerBatch)
				local := make([]ack, pagesPerBatch)
				for j := range pages {
					lpid := addr.LPID(uint64(w+1)*1_000_000 + uint64(i*pagesPerBatch+j))
					data := []byte(fmt.Sprintf("client=%d batch=%d page=%d payload", w, i, j))
					pages[j] = core.LPage{LPID: lpid, Data: data}
					local[j] = ack{lpid: lpid, data: data}
				}
				if err := sess.Flush(pages); err != nil {
					errs <- fmt.Errorf("client %d batch %d: %w", w, i, err)
					return
				}
				mu.Lock()
				acked = append(acked, local...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The kill really happened, the killed client really retried, and the
	// server really deduplicated the resent WSN instead of re-applying.
	if proxy.killCount() == 0 {
		t.Fatal("proxy never killed a connection")
	}
	cs := killedClient.Stats()
	if cs.Retries == 0 || cs.Dials < 2 {
		t.Fatalf("killed client did not retry/reconnect: %+v", cs)
	}
	st := ctl.Stats()
	if st.StaleWrites == 0 {
		t.Fatal("retry was not deduplicated by the session WSN protocol")
	}
	if got, want := st.BatchesWritten, int64(nClients*batches); got != want {
		t.Fatalf("BatchesWritten = %d, want %d (double-apply or loss)", got, want)
	}

	// Every acknowledged page is readable over the network.
	verifier, err := client.Dial(addrStr, fastOpts(99))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acked {
		got, err := verifier.Read(a.lpid)
		if err != nil {
			t.Fatalf("read %d: %v", a.lpid, err)
		}
		if !bytes.HasPrefix(got, a.data) {
			t.Fatalf("lpid %d: got %q, want prefix %q", a.lpid, got, a.data)
		}
	}

	// Graceful drain: Serve returns ErrDraining, and the drain checkpoint
	// lands.
	ckptsBefore := ctl.Stats().Checkpoints
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-serveDone:
		if !errors.Is(err, server.ErrDraining) {
			t.Fatalf("Serve returned %v, want ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if ctl.Stats().Checkpoints <= ckptsBefore {
		t.Fatal("drain did not checkpoint")
	}
	if _, err := client.Dial(addrStr, client.Options{MaxAttempts: 1, DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial succeeded after drain closed the listener")
	}

	// Power-cycle: recover a fresh controller from the same flash and
	// verify every acknowledged batch and every session WSN survived.
	ctl.Crash()
	ctl2, err := core.Open(dev, core.DefaultConfig())
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	for _, a := range acked {
		got, err := ctl2.Read(a.lpid)
		if err != nil {
			t.Fatalf("recovered read %d: %v", a.lpid, err)
		}
		if !bytes.HasPrefix(got, a.data) {
			t.Fatalf("recovered lpid %d: got %q, want prefix %q", a.lpid, got, a.data)
		}
	}
	for _, sid := range sids {
		high, err := ctl2.SessionHighestWSN(sid)
		if err != nil {
			t.Fatalf("recovered session %d: %v", sid, err)
		}
		if high != batches {
			t.Fatalf("recovered session %d: highest WSN %d, want %d", sid, high, batches)
		}
	}
}

// --- focused behaviours -----------------------------------------------------

// TestStaleDuplicateNotReapplied resends an already-applied WSN carrying
// DIFFERENT content over a real socket: the server must re-acknowledge
// the highest WSN and must not overwrite the original data.
func TestStaleDuplicateNotReapplied(t *testing.T) {
	ctl, _, _, addrStr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	sid, err := cl.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	orig := []core.LPage{{LPID: 42, Data: []byte("original content")}}
	if _, err := cl.Flush(sid, 1, orig); err != nil {
		t.Fatal(err)
	}
	dup := []core.LPage{{LPID: 42, Data: []byte("SPOOFED REPLAY!!")}}
	high, err := cl.Flush(sid, 1, dup)
	if err != nil {
		t.Fatalf("stale duplicate errored: %v", err)
	}
	if high != 1 {
		t.Fatalf("re-ACK WSN = %d, want 1", high)
	}
	got, err := cl.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("original content")) {
		t.Fatalf("duplicate WSN overwrote data: %q", got)
	}
	if ctl.Stats().StaleWrites != 1 {
		t.Fatalf("StaleWrites = %d, want 1", ctl.Stats().StaleWrites)
	}
}

// TestCrossConnectionWSNOrdering sends WSN 2 on one connection before
// WSN 1 on another: the early batch must wait and both must apply in
// order.
func TestCrossConnectionWSNOrdering(t *testing.T) {
	ctl, _, _, addrStr, _ := startServer(t, server.Config{})
	cl1, err := client.Dial(addrStr, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := client.Dial(addrStr, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	sid, err := cl1.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() {
		_, err := cl2.Flush(sid, 2, []core.LPage{{LPID: 8, Data: []byte("second")}})
		done2 <- err
	}()
	time.Sleep(50 * time.Millisecond) // let WSN 2 arrive first and block
	if _, err := cl1.Flush(sid, 1, []core.LPage{{LPID: 8, Data: []byte("first")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("wsn 2: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("early WSN never unblocked")
	}
	got, err := cl1.Read(8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("second")) {
		t.Fatalf("final content %q, want the WSN-2 write", got)
	}
	if high, _ := ctl.SessionHighestWSN(sid); high != 2 {
		t.Fatalf("highest WSN %d, want 2", high)
	}
}

// TestConnLimit: past MaxConns, new connections are refused with a
// retryable busy error and succeed once a slot frees.
func TestConnLimit(t *testing.T) {
	ctl, _, _, addrStr, _ := startServer(t, server.Config{MaxConns: 1})
	cl1, err := client.Dial(addrStr, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl1.Flush(0, 0, []core.LPage{{LPID: 1, Data: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	// Free the slot while client 2 is retrying against the limit.
	go func() {
		time.Sleep(100 * time.Millisecond)
		_ = cl1.Close()
	}()
	cl2, err := client.Dial(addrStr, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Read(1); err != nil {
		t.Fatalf("client 2 never got a slot: %v", err)
	}
	if ctl.MetricsSnapshot().Counter("server.rejected") == 0 {
		t.Fatal("no connection was rejected at the limit")
	}
}

// TestBackpressureBounded: concurrent flushes never hold more admitted
// batch bytes than MaxInflightBytes.
func TestBackpressureBounded(t *testing.T) {
	const bound = 4096
	ctl, _, _, addrStr, _ := startServer(t, server.Config{MaxInflightBytes: bound})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addrStr, fastOpts(int64(w+1)))
			if err != nil {
				errs <- err
				return
			}
			sess, err := cl.NewSession()
			if err != nil {
				errs <- err
				return
			}
			data := make([]byte, 1500)
			for i := 0; i < 10; i++ {
				lpid := addr.LPID(uint64(w+1)*10_000 + uint64(i))
				if err := sess.Flush([]core.LPage{{LPID: lpid, Data: data}}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := ctl.MetricsSnapshot()
	if peak := snap.Gauge("server.peak_inflight_bytes"); peak > bound {
		t.Fatalf("peak inflight %d exceeded bound %d", peak, bound)
	}
	if n := snap.Gauge("server.inflight_bytes"); n != 0 {
		t.Fatalf("inflight bytes leaked: %d", n)
	}
	if n := snap.Counter("server.batches"); n != 40 {
		t.Fatalf("server.batches = %d, want 40", n)
	}
}

// TestHostileFrames: a peer sending garbage loses its connection; the
// server keeps serving others.
func TestHostileFrames(t *testing.T) {
	ctl, _, _, addrStr, _ := startServer(t, server.Config{})
	raw, err := net.Dial("tcp", addrStr)
	if err != nil {
		t.Fatal(err)
	}
	// A forged 4 GB length prefix must not be allocated or tolerated.
	var hostile [8]byte
	binary.LittleEndian.PutUint32(hostile[:4], 0xFFFFFFFF)
	if _, err := raw.Write(hostile[:]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server answered a hostile frame instead of closing")
	}
	_ = raw.Close()
	// The server survived and still serves well-formed clients.
	cl, err := client.Dial(addrStr, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Flush(0, 0, []core.LPage{{LPID: 2, Data: []byte("fine")}}); err != nil {
		t.Fatal(err)
	}
	if ctl.MetricsSnapshot().Counter("server.bad_frames") == 0 {
		t.Fatal("hostile frame not counted")
	}
}

// TestLegacyFlushAndRetiredStats drives raw frames down one connection.
// A flush_batch with trace ID 0 applies and gets a server-assigned trace
// ID, and its replay is a stale re-ACK. A body short of the header, the
// retired 0x03 flush (no trace ID), the retired 0x05 stats and the
// 0x0A/0x0B watch requests are answered CodeBadRequest like any request
// the server cannot act on, and none of it costs the connection.
func TestLegacyFlushAndRetiredStats(t *testing.T) {
	ctl, _, _, addrStr, _ := startServer(t, server.Config{})
	sid, err := ctl.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, addrStr)
	fw := netproto.NewFrameWriter(conn)
	flushBody := func(wsn uint64, lpid addr.LPID) []byte {
		wire := core.EncodeBatch([]core.LPage{{LPID: lpid, Data: []byte(fmt.Sprintf("page %d", lpid))}})
		return append(netproto.AppendFlushHead(nil, 0, sid, wsn), wire...)
	}
	for _, tc := range []struct {
		name    string
		typ     byte
		body    []byte
		wantAck uint64 // highest applied WSN acknowledged; 0 = want CodeBadRequest
	}{
		{"flush_batch, trace ID 0", netproto.MsgFlushBatch, flushBody(1, 50), 1},
		{"retired flush 0x03", 0x03, flushBody(2, 51)[8:], 0},
		{"retired watch_stats 0x0A", 0x0A, []byte{0xe8, 0x03, 0, 0}, 0},
		{"retired watch_stats_stop 0x0B", 0x0B, nil, 0},
		{"flush_batch replayed", netproto.MsgFlushBatch, flushBody(1, 50), 1},
		{"flush_batch one byte short of its header", netproto.MsgFlushBatch, flushBody(3, 52)[:23], 0},
		{"retired stats 0x05", 0x05, nil, 0},
	} {
		if err := fw.WriteFrame(tc.typ, tc.body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		typ, body, err := netproto.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.wantAck == 0 {
			if re, _ := netproto.ParseError(body); typ != netproto.MsgRespError || re == nil || re.Code != netproto.CodeBadRequest {
				t.Fatalf("%s: reply type 0x%02x %v, want CodeBadRequest", tc.name, typ, re)
			}
			continue
		}
		if ack, err := netproto.ParseU64(body); typ != netproto.MsgRespFlushBatch || err != nil || ack != tc.wantAck {
			t.Fatalf("%s: reply type 0x%02x ack %d (%v), want flush ack %d", tc.name, typ, ack, err, tc.wantAck)
		}
	}
	if got, err := ctl.Read(50); err != nil || !bytes.HasPrefix(got, []byte("page 50")) {
		t.Fatalf("lpid 50 = %q, %v; want %q", got, err, "page 50")
	}
	for _, lpid := range []addr.LPID{51, 52} {
		if _, err := ctl.Read(lpid); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("lpid %d: %v, want core.ErrNotFound: a retired or short flush was applied", lpid, err)
		}
	}
	if st := ctl.Stats(); st.BatchesWritten != 1 || st.StaleWrites != 1 {
		t.Fatalf("controller wrote %d batches and re-ACKed %d, want 1 and 1", st.BatchesWritten, st.StaleWrites)
	}
	// The applied flush got a server-assigned trace ID.
	traced := make(map[uint64]bool)
	for _, ev := range ctl.TraceDump().Events {
		if ev.Kind == trace.KInstall {
			traced[ev.TraceID] = true
		}
	}
	if len(traced) != 1 || traced[0] {
		t.Fatalf("install spans carry trace IDs %v, want one server-assigned one", traced)
	}
	snap := ctl.MetricsSnapshot()
	if bad, errs, conns := snap.Counter("server.bad_frames"), snap.Counter("server.errors"), snap.Gauge("server.active_conns"); bad != 0 || errs != 5 || conns != 1 {
		t.Fatalf("bad_frames %d, errors %d, active_conns %d: want 5 error replies on a connection still open", bad, errs, conns)
	}
}

// TestReadErrorsMapToSentinels: a missing LPID crosses the wire as
// core.ErrNotFound and is not retried.
func TestReadErrorsMapToSentinels(t *testing.T) {
	_, _, _, addrStr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Requests
	if _, err := cl.Read(999_999); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("missing LPID error = %v, want core.ErrNotFound", err)
	}
	if got := cl.Stats().Requests - before; got != 1 {
		t.Fatalf("not-found was retried: %d round trips", got)
	}
}

// TestDrainIdle: draining with only idle connections returns promptly,
// checkpoints, and refuses later requests.
func TestDrainIdle(t *testing.T) {
	ctl, _, srv, addrStr, serveDone := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Flush(0, 0, []core.LPage{{LPID: 3, Data: []byte("pre-drain")}}); err != nil {
		t.Fatal(err)
	}
	ckpts := ctl.Stats().Checkpoints
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain with idle conns: %v", err)
	}
	if ctl.Stats().Checkpoints <= ckpts {
		t.Fatal("drain did not checkpoint")
	}
	if err := <-serveDone; !errors.Is(err, server.ErrDraining) {
		t.Fatalf("Serve returned %v", err)
	}
	if _, err := cl.Read(3); err == nil {
		t.Fatal("request succeeded after drain")
	}
	// Drain is idempotent.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestStatsOverWire reads the controller's counters over stats_full.
func TestStatsOverWire(t *testing.T) {
	_, _, _, addrStr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Flush(0, 0, []core.LPage{{LPID: 9, Data: []byte("counted")}}); err != nil {
		t.Fatal(err)
	}
	sf, err := cl.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if b, p := sf.Counter("core.write.batches"), sf.Counter("core.write.pages"); b != 1 || p != 1 {
		t.Fatalf("stats over wire: %d batches, %d pages, want 1 and 1", b, p)
	}
}
