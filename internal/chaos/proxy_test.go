package chaos_test

import (
	"io"
	"net"
	"testing"
	"time"

	"eleos/internal/chaos"
	"eleos/internal/client"
)

// TestProxyHangsUpWhenBackendDoes: a backend that hangs up in the middle of
// a request — a server crashing or draining — makes the proxied call fail
// at once. The proxy closes the client's side as soon as the server's side
// ends, so the client does not wait out its request timeout.
func TestProxyHangsUpWhenBackendDoes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				var hdr [4]byte
				_, _ = io.ReadFull(conn, hdr[:]) // the request starts arriving
				_ = conn.Close()
			}()
		}
	}()
	px, err := chaos.NewProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	const timeout = 5 * time.Second
	cl, err := client.Dial(px.Addr(), client.Options{RequestTimeout: timeout, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.OpenSession()
	if took := time.Since(start); err == nil || took > 100*time.Millisecond {
		t.Fatalf("OpenSession through a backend that hung up returned %v after %v, want an error within 100ms (request timeout %v)", err, took, timeout)
	}
}
