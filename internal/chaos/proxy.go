package chaos

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
)

// Proxy sits between one chaos writer and the server, forwarding netproto
// frames. It supports the two interventions the harness needs:
//
//   - ArmKill cuts the writer's connection AFTER the next full request
//     frame has reached the server but BEFORE any reply byte reaches the
//     client — the ack-lost window the retry protocol must absorb.
//   - SetBackend repoints the proxy at a new server address; the writer's
//     client reconnects through the stable proxy address after a
//     crash→recover loop restarts the server elsewhere.
//
// It is exported within the module so the client reconnect tests can
// reuse it against a plain server.
type Proxy struct {
	ln net.Listener

	mu       sync.Mutex
	backend  string
	killNext bool
	kills    int
}

// NewProxy listens on loopback and forwards to backend.
func NewProxy(backend string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, backend: backend}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.pipe(conn)
		}
	}()
	return p, nil
}

// Addr returns the stable address writers dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting. In-flight pipes die with their connections.
func (p *Proxy) Close() { _ = p.ln.Close() }

// SetBackend repoints future connections at a new server address.
func (p *Proxy) SetBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	p.mu.Unlock()
}

// ArmKill makes the proxy kill the connection after the next request
// frame is forwarded. One-shot.
func (p *Proxy) ArmKill() {
	p.mu.Lock()
	p.killNext = true
	p.mu.Unlock()
}

// Kills returns how many armed kills have fired.
func (p *Proxy) Kills() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kills
}

func (p *Proxy) takeKill() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.killNext {
		return false
	}
	p.killNext = false
	p.kills++
	return true
}

func (p *Proxy) currentBackend() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backend
}

func (p *Proxy) pipe(cl net.Conn) {
	be, err := net.Dial("tcp", p.currentBackend())
	if err != nil {
		_ = cl.Close()
		return
	}
	replies := make(chan struct{})
	go func() {
		_, _ = io.Copy(cl, be) // reply direction
		// The server hung up (a crash, a drain): hang up on the client too,
		// or it waits out its request timeout for a reply that never comes.
		_ = cl.Close()
		close(replies)
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
		if _, err := be.Write(frame); err != nil {
			return
		}
		if p.takeKill() {
			// The request is on its way to the server; cut the client off
			// before the reply can cross back.
			return
		}
	}
}
