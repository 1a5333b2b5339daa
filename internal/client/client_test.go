package client

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"eleos/internal/core"
	"eleos/internal/netproto"
)

// fakeServer runs a scripted netproto endpoint: each script entry
// handles one accepted connection.
type connScript func(t *testing.T, conn net.Conn)

func fakeServer(t *testing.T, scripts ...connScript) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, script := range scripts {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			script(t, conn)
			_ = conn.Close()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String()
}

// readOne consumes one request frame.
func readOne(t *testing.T, conn net.Conn) (byte, []byte) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, body, err := netproto.ReadFrame(conn)
	if err != nil {
		t.Errorf("fake server read: %v", err)
	}
	return typ, body
}

func reply(t *testing.T, conn net.Conn, typ byte, body []byte) {
	t.Helper()
	if err := netproto.NewFrameWriter(conn).WriteFrame(typ, body); err != nil {
		t.Errorf("fake server write: %v", err)
	}
}

func testOpts(seed int64) Options {
	return Options{
		DialTimeout:    time.Second,
		RequestTimeout: 2 * time.Second,
		MaxAttempts:    6,
		BackoffBase:    time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
		Seed:           seed,
	}
}

// TestRetryAfterMidReplyKill: the server applies the flush but the
// connection dies before the reply; the client must reconnect and resend
// the same (sid, wsn), and succeed on the second connection's re-ACK.
func TestRetryAfterMidReplyKill(t *testing.T) {
	var firstSID, firstWSN, secondSID, secondWSN uint64
	addr := fakeServer(t,
		func(t *testing.T, conn net.Conn) {
			typ, body := readOne(t, conn)
			if typ != netproto.MsgFlushBatch {
				t.Errorf("first request type 0x%02x", typ)
			}
			_, firstSID, firstWSN, _, _ = netproto.ParseFlush(body)
			// Kill without replying: the "applied but un-ACKed" case.
		},
		func(t *testing.T, conn net.Conn) {
			typ, body := readOne(t, conn)
			if typ != netproto.MsgFlushBatch {
				t.Errorf("retry request type 0x%02x", typ)
			}
			_, secondSID, secondWSN, _, _ = netproto.ParseFlush(body)
			reply(t, conn, netproto.MsgRespFlushBatch, netproto.AppendU64(nil, secondWSN))
		},
	)
	cl, err := Dial(addr, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	high, err := cl.Flush(77, 5, []core.LPage{{LPID: 1, Data: []byte("x")}})
	if err != nil {
		t.Fatalf("flush across kill: %v", err)
	}
	if high != 5 {
		t.Fatalf("acked WSN %d, want 5", high)
	}
	if firstSID != secondSID || firstWSN != secondWSN {
		t.Fatalf("retry changed identity: (%d,%d) then (%d,%d)", firstSID, firstWSN, secondSID, secondWSN)
	}
	st := cl.Stats()
	if st.Retries != 1 || st.Dials != 2 {
		t.Fatalf("stats after kill: %+v", st)
	}
}

// TestOpenSessionNotResentAfterSend: a reply lost after the request was
// sent must NOT be retried for the non-idempotent open.
func TestOpenSessionNotResentAfterSend(t *testing.T) {
	addr := fakeServer(t,
		func(t *testing.T, conn net.Conn) {
			readOne(t, conn) // swallow the open, kill the conn
		},
		func(t *testing.T, conn net.Conn) {
			t.Error("open_session was resent after a post-send failure")
		},
	)
	cl, err := Dial(addr, testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.OpenSession(); err == nil {
		t.Fatal("lost open_session reply reported success")
	}
	if errors.Is(err, ErrAttemptsExhausted) {
		t.Fatal("open_session burned the retry budget")
	}
}

// TestBusyRetriedTransparently: retryable server rejections (busy,
// draining) are absorbed by the retry loop even for non-idempotent
// requests, since the server did not execute them.
func TestBusyRetriedTransparently(t *testing.T) {
	addr := fakeServer(t,
		func(t *testing.T, conn net.Conn) {
			readOne(t, conn)
			reply(t, conn, netproto.MsgRespError, netproto.AppendErrorBody(nil, netproto.CodeBusy, "full"))
		},
		func(t *testing.T, conn net.Conn) {
			readOne(t, conn)
			reply(t, conn, netproto.MsgRespOpenSession, netproto.AppendU64(nil, 1234))
		},
	)
	cl, err := Dial(addr, testOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	sid, err := cl.OpenSession()
	if err != nil {
		t.Fatalf("busy not retried: %v", err)
	}
	if sid != 1234 {
		t.Fatalf("sid = %d", sid)
	}
}

// TestNonRetryableFailsFast: a bad-batch rejection returns immediately
// with the mapped sentinel.
func TestNonRetryableFailsFast(t *testing.T) {
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		readOne(t, conn)
		reply(t, conn, netproto.MsgRespError, netproto.AppendErrorBody(nil, netproto.CodeBadBatch, "magic"))
	})
	cl, err := Dial(addr, testOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Requests
	_, err = cl.Flush(1, 1, []core.LPage{{LPID: 1, Data: []byte("x")}})
	if !errors.Is(err, core.ErrBadBatch) {
		t.Fatalf("error = %v, want core.ErrBadBatch", err)
	}
	if cl.Stats().Requests-before != 1 {
		t.Fatal("non-retryable error was retried")
	}
}

// TestUnexpectedReplyTypeDropsConn: framing desync is fatal for the
// connection but the (idempotent) request recovers on a fresh one.
func TestUnexpectedReplyTypeDropsConn(t *testing.T) {
	addr := fakeServer(t,
		func(t *testing.T, conn net.Conn) {
			readOne(t, conn)
			reply(t, conn, netproto.MsgRespTraceDump, nil) // wrong type for a read
		},
		func(t *testing.T, conn net.Conn) {
			readOne(t, conn)
			reply(t, conn, netproto.MsgRespRead, []byte("recovered"))
		},
	)
	cl, err := Dial(addr, testOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	data, err := cl.Read(1)
	if err != nil {
		t.Fatalf("read across desync: %v", err)
	}
	if string(data) != "recovered" {
		t.Fatalf("data %q", data)
	}
	if cl.Stats().Dials != 2 {
		t.Fatalf("desync did not force a reconnect: %+v", cl.Stats())
	}
}

// TestDialExhaustsAttempts: a dead address fails with
// ErrAttemptsExhausted after MaxAttempts dials.
func TestDialExhaustsAttempts(t *testing.T) {
	// Reserve then release a port so nothing listens on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()
	opts := testOpts(6)
	opts.MaxAttempts = 3
	if _, err := Dial(dead, opts); !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("dial to dead addr: %v", err)
	}
}

// TestSessionCloseToleratesAppliedRetry: ErrUnknownSession on close
// means an earlier attempt already applied.
func TestSessionCloseToleratesAppliedRetry(t *testing.T) {
	addr := fakeServer(t,
		func(t *testing.T, conn net.Conn) {
			typ, _ := readOne(t, conn)
			if typ != netproto.MsgOpenSession {
				t.Errorf("want open, got 0x%02x", typ)
			}
			reply(t, conn, netproto.MsgRespOpenSession, netproto.AppendU64(nil, 50))
			readOne(t, conn) // the close
			reply(t, conn, netproto.MsgRespError, netproto.AppendErrorBody(nil, netproto.CodeUnknownSession, "gone"))
		},
	)
	cl, err := Dial(addr, testOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("close after applied retry: %v", err)
	}
}

// TestBackoffBounds: the jittered exponential backoff stays within
// [base/2, max] and is monotone in expectation up to the cap.
func TestBackoffBounds(t *testing.T) {
	c := &Client{opts: testOpts(8).withDefaults()}
	c.rng = rand.New(rand.NewSource(42))
	base, max := c.opts.BackoffBase, c.opts.BackoffMax
	for attempt := 1; attempt <= 20; attempt++ {
		for i := 0; i < 100; i++ {
			d := c.backoffLocked(attempt)
			if d < base/2 || d > max {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base/2, max)
			}
		}
	}
	// Deep attempts saturate at the cap's jitter window, not overflow.
	if d := c.backoffLocked(62); d < max/2 || d > max {
		t.Fatalf("saturated backoff %v outside [%v, %v]", d, max/2, max)
	}
}
