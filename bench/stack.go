package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/metrics"
	"eleos/internal/server"
)

// target is the boundary a workload drives: the loopback client in the
// measured passes, the controller itself in churn_gc and in the traced
// in-process replay. The span kinds name which one a call crossed.
type target interface {
	flush(pages []core.LPage) error
	read(lpid addr.LPID) ([]byte, error)
	readBatch(lpids []addr.LPID) ([][]byte, error)
	spanKinds() (flush, read, readBatch spanKind)
}

// wireTarget is one host: one connection and one session on it.
type wireTarget struct {
	cl   *client.Client
	sess *client.Session
}

func (t *wireTarget) flush(pages []core.LPage) error            { return t.sess.Flush(pages) }
func (t *wireTarget) read(lpid addr.LPID) ([]byte, error)       { return t.cl.Read(lpid) }
func (t *wireTarget) readBatch(l []addr.LPID) ([][]byte, error) { return t.cl.ReadBatch(l) }
func (t *wireTarget) spanKinds() (spanKind, spanKind, spanKind) {
	return kClientFlush, kClientRead, kClientReadBatch
}

// directTarget is one in-process session: what the server does for a
// connection, without the connection.
type directTarget struct {
	ctl *core.Controller
	sid uint64
	wsn uint64
}

func (t *directTarget) flush(pages []core.LPage) error {
	if err := t.ctl.WriteBatch(t.sid, t.wsn, pages); err != nil {
		return err
	}
	t.wsn++
	return nil
}
func (t *directTarget) read(lpid addr.LPID) ([]byte, error)       { return t.ctl.Read(lpid) }
func (t *directTarget) readBatch(l []addr.LPID) ([][]byte, error) { return t.ctl.ReadBatch(l) }
func (t *directTarget) spanKinds() (spanKind, spanKind, spanKind) {
	return kCoreWriteBatch, kCoreRead, kCoreReadBatch
}

// stack is one formatted device with its controller and, unless direct,
// the server and clients in front of it — all in this process, over
// loopback TCP, as the issue fixes it.
type stack struct {
	dev     *flash.Device
	ctl     *core.Controller
	srv     *server.Server
	served  chan error
	clients []*client.Client
	targets []target
}

// controllerConfig is what eleosd runs with when given no flags, plus the
// workload's read-cache size.
func controllerConfig(p params) core.Config {
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = p.ckptBytes
	cfg.ReadCacheBytes = p.cacheBytes
	return cfg
}

func newStack(p params, direct bool) (*stack, error) {
	dev, err := flash.NewDevice(p.geo, flash.TypicalNANDLatency())
	if err != nil {
		return nil, err
	}
	ctl, err := core.Format(dev, controllerConfig(p))
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	s := &stack{dev: dev, ctl: ctl}
	if direct {
		for i := 0; i < p.clients; i++ {
			sid, err := ctl.OpenSession()
			if err != nil {
				return nil, fmt.Errorf("open session: %w", err)
			}
			s.targets = append(s.targets, &directTarget{ctl: ctl, sid: sid, wsn: 1})
		}
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = server.New(ctl, server.Config{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := 0; i < p.clients; i++ {
		cl, err := client.Dial(ln.Addr().String(), client.Options{Seed: int64(i + 1)})
		if err != nil {
			_ = s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, cl)
		sess, err := cl.NewSession()
		if err != nil {
			_ = s.close()
			return nil, fmt.Errorf("new session: %w", err)
		}
		s.targets = append(s.targets, &wireTarget{cl: cl, sess: sess})
	}
	return s, nil
}

// close stops everything the stack started and waits for it: client
// connections, the server's accept loop and handlers, the flash workers.
func (s *stack) close() error {
	var err error
	for _, cl := range s.clients {
		err = errors.Join(err, cl.Close())
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = errors.Join(err, s.srv.Drain(ctx))
		cancel()
		if serr := <-s.served; !errors.Is(serr, server.ErrDraining) {
			err = errors.Join(err, serr)
		}
	}
	s.dev.Close()
	return err
}

// counters is one reading of every public counter the per-layer metrics
// difference. The program exports all of them already; nothing here
// reaches into a layer.
type counters struct {
	at       time.Time
	reg      metrics.Snapshot
	core     core.Stats
	dev      flash.Stats
	chanBusy []time.Duration
	client   client.Stats
	mem      runtime.MemStats
	cpu      time.Duration
}

func (s *stack) counters() counters {
	c := counters{
		at:   time.Now(),
		reg:  s.ctl.MetricsSnapshot(),
		core: s.ctl.Stats(),
		dev:  s.dev.Stats(),
		cpu:  processCPU(),
	}
	for ch := 0; ch < s.dev.Geometry().Channels; ch++ {
		c.chanBusy = append(c.chanBusy, s.dev.ChannelTime(ch))
	}
	for _, cl := range s.clients {
		st := cl.Stats()
		c.client.Requests += st.Requests
		c.client.Retries += st.Retries
		c.client.Timeouts += st.Timeouts
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// processCPU is the user+system CPU time of the whole process: client and
// server share it, so it is a cost per operation, not a layer's share.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set so far (Linux reports
// KB). It never falls, so it compares only between processes that ran the
// same single workload: under -workload all, each workload also reports
// what the ones before it reached.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
