// Package server is the network front-end of the controller: eleosd's
// TCP listener. Hosts speak the netproto framing over stream sockets —
// the deployment shape of the paper's testbed (§IX-A1), where writers
// reach the controller over NVMe-oF/TCP rather than linking it
// in-process.
//
// Each accepted connection gets one goroutine running the one request
// loop: read a frame into a pooled buffer, dispatch, reply through the
// connection's FrameWriter. Every flush_batch takes the one flush path —
// decode zero-copy page views, then Controller.WriteBatchGroup, directly
// or through the coalescer — so concurrent connections drive the
// parallel write pipeline exactly like in-process writers (DESIGN.md
// §4.1): their flash programs overlap across channels and their commit
// records share forced log pages. The front-end adds the service
// concerns the library cannot: a connection limit, backpressure by
// bounded in-flight batch bytes, per-request read/write deadlines, and a
// graceful drain (stop accepting, finish in-flight requests, checkpoint,
// close).
//
// Idempotence across reconnects is the session table's job: a client
// that retries flush_batch with the same (sid, wsn) after a dropped
// connection gets the Stale verdict server-side and is re-acknowledged
// with the session's highest applied WSN — the batch is not re-applied.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eleos/internal/addr"
	"eleos/internal/core"
	"eleos/internal/metrics"
	"eleos/internal/netproto"
	"eleos/internal/qos"
	"eleos/internal/trace"
)

// Config tunes the front-end.
type Config struct {
	// MaxConns caps concurrently served connections; further accepts are
	// answered with CodeBusy and closed. Default 256.
	MaxConns int
	// MaxInflightBytes bounds the batch bytes admitted into the
	// controller across all connections; flush requests beyond it block
	// on the socket (TCP backpressure) until space frees. Default 64 MB.
	MaxInflightBytes int64
	// IdleTimeout closes a connection that sends no request for this
	// long. Default 2 minutes.
	IdleTimeout time.Duration
	// IOTimeout bounds reading one request body and writing one reply.
	// Default 30 seconds.
	IOTimeout time.Duration
	// SlowBatchThreshold, when positive, logs one structured line for
	// every flush_batch that takes longer than this end to end, with the
	// batch's trace ID and its per-stage breakdown pulled from the flight
	// recorder. Zero (the default) disables the log.
	SlowBatchThreshold time.Duration
	// CoalesceWindow, when positive, turns on server-side batch
	// coalescing: small flushes from different connections merge into
	// one controller batch, a round's leader waiting up to this long for
	// companions (coalesce.go). Zero (the default) leaves it off.
	CoalesceWindow time.Duration
	// QoS opts into per-tenant admission control: token-bucket rate
	// limits and inflight-byte budgets keyed by the session's tenant
	// tag, charged before the global inflight semaphore and before the
	// coalescer (so merged batches never share budgets). Off by
	// default.
	QoS qos.Config
}

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = 256
	}
	if c.MaxInflightBytes == 0 {
		c.MaxInflightBytes = 64 << 20
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 30 * time.Second
	}
	return c
}

// ErrDraining is returned by Serve when the listener was closed by Drain,
// and to requests that arrive while the server is draining.
var ErrDraining = errors.New("server: draining")

// srvMetrics holds the front-end's instrument handles, resolved from the
// controller's registry in New, so one stats_full snapshot covers every
// layer.
// The three gauges move only under s.mu — admission decides on
// inflightBytes and the connection limit on len(s.conns), which
// activeConns mirrors. request_ns times frame-read completion to reply
// written, per request.
type srvMetrics struct {
	accepted  *metrics.Counter
	rejected  *metrics.Counter
	requests  *metrics.Counter
	batches   *metrics.Counter
	errors    *metrics.Counter
	badFrames *metrics.Counter
	bytesIn   *metrics.Counter
	bytesOut  *metrics.Counter
	drained   *metrics.Counter

	activeConns   *metrics.Gauge
	inflightBytes *metrics.Gauge
	peakInflight  *metrics.Gauge

	requestNS *metrics.Histogram
}

func newSrvMetrics(reg *metrics.Registry) srvMetrics {
	return srvMetrics{
		accepted:  reg.Counter("server.accepted"),
		rejected:  reg.Counter("server.rejected"),
		requests:  reg.Counter("server.requests"),
		batches:   reg.Counter("server.batches"),
		errors:    reg.Counter("server.errors"),
		badFrames: reg.Counter("server.bad_frames"),
		bytesIn:   reg.Counter("server.bytes_in"),
		bytesOut:  reg.Counter("server.bytes_out"),
		drained:   reg.Counter("server.drained_conns"),

		activeConns:   reg.Gauge("server.active_conns"),
		inflightBytes: reg.Gauge("server.inflight_bytes"),
		peakInflight:  reg.Gauge("server.peak_inflight_bytes"),

		requestNS: reg.Histogram("server.request_ns", metrics.DurationBounds()),
	}
}

// Server serves one controller over TCP.
type Server struct {
	ctl *core.Controller
	cfg Config
	met srvMetrics
	trc *trace.Recorder // the controller's flight recorder (nil-safe)
	co  *coalescer      // nil unless Config.CoalesceWindow > 0
	qos *qos.Controller // nil-safe; disabled unless Config.QoS.Enabled

	connSeq atomic.Uint64 // connection serials for trace attribution

	// slowLogf sinks slow-batch lines; tests override it to capture them.
	slowLogf func(format string, args ...any)

	mu       sync.Mutex
	cond     *sync.Cond // waiters on inflight-byte capacity
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
}

// New wraps a controller in a network front-end. The server registers
// its instruments into the controller's metrics registry, so the
// stats_full command exports one snapshot spanning server, core, wal and
// flash.
func New(ctl *core.Controller, cfg Config) *Server {
	s := &Server{ctl: ctl, cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.met = newSrvMetrics(ctl.Metrics())
	s.trc = ctl.Tracer()
	s.slowLogf = log.Printf
	if s.cfg.CoalesceWindow > 0 {
		s.co = newCoalescer(ctl, s.cfg.CoalesceWindow)
	}
	if s.cfg.QoS.Enabled {
		s.qos = qos.New(s.cfg.QoS, ctl.Metrics())
	}
	return s
}

// Serve accepts connections on ln until Drain closes it. It returns
// ErrDraining after a drain, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrDraining
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrDraining
			}
			return err
		}
		s.mu.Lock()
		switch {
		case s.draining:
			s.mu.Unlock()
			s.refuse(conn, netproto.CodeShuttingDown, "server draining")
		case len(s.conns) >= s.cfg.MaxConns:
			s.mu.Unlock()
			s.met.rejected.Inc()
			s.refuse(conn, netproto.CodeBusy, "connection limit reached")
		default:
			s.conns[conn] = struct{}{}
			s.met.activeConns.Add(1)
			s.mu.Unlock()
			s.met.accepted.Inc()
			go s.handle(conn)
		}
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// QoSStats snapshots per-tenant admission accounting (nil when QoS is
// disabled). The chaos harness checks it balances exactly after kills.
func (s *Server) QoSStats() map[string]qos.TenantStats { return s.qos.Stats() }

// refuse answers an over-limit connection with one error frame and
// closes it; the deadline keeps a stalled peer from pinning the
// goroutine.
func (s *Server) refuse(conn net.Conn, code uint16, msg string) {
	_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	_ = netproto.NewFrameWriter(conn).WriteFrame(netproto.MsgRespError, netproto.AppendErrorBody(nil, code, msg))
	_ = conn.Close()
}

// Drain gracefully shuts the server down: stop accepting, unblock idle
// connections, let requests already being processed finish and be
// answered, then checkpoint the controller so a subsequent Open replays
// (almost) nothing. If ctx expires first the remaining connections are
// closed hard; the checkpoint still runs. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	// Nudge connections parked in their idle read; a handler mid-request
	// is unaffected (its deadline is managed per phase) and finishes.
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.cond.Broadcast() // release backpressure waiters into ErrDraining
	s.mu.Unlock()
	s.qos.Drain() // abort per-tenant admission waiters too
	if ln != nil {
		_ = ln.Close()
	}
	if already {
		return nil
	}

	idle := make(chan struct{})
	go func() {
		s.mu.Lock()
		for len(s.conns) > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
		<-idle
	}
	if err := s.ctl.Checkpoint(); err != nil && !errors.Is(err, core.ErrCrashed) {
		return fmt.Errorf("server: drain checkpoint: %w", err)
	}
	return ctx.Err()
}

// --- connection handling ---------------------------------------------------

// connState is one connection's reusable hot-path machinery: the frame
// writer with its scratch, the reply-body scratch the dispatch cases
// append into, the zero-copy page views of the flush path, and the
// connection's flush seat. One goroutine owns all of it, the socket
// included.
type connState struct {
	fw      *netproto.FrameWriter
	scratch []byte       // reply bodies are appended here
	views   []core.LPage // batch views of the flush being written
	pf      pendingFlush // reusable flush seat (coalescing or direct)
}

// u64 builds a one-u64 reply body in the connection's scratch.
func (cn *connState) u64(v uint64) []byte {
	cn.scratch = netproto.AppendU64(cn.scratch[:0], v)
	return cn.scratch
}

func (s *Server) handle(conn net.Conn) {
	// The connection serial is the span root: every request event on this
	// connection carries it in SID, bracketed by conn_open/conn_close
	// instants, so a flight-recorder dump groups per connection even for
	// requests that never name a session.
	cid := s.connSeq.Add(1)
	s.trc.Emit(trace.KConnOpen, 0, cid, 0, 0, 0)
	cn := &connState{fw: netproto.NewFrameWriter(conn), pf: pendingFlush{done: make(chan struct{}, 1)}}
	defer func() {
		s.trc.Emit(trace.KConnClose, 0, cid, 0, 0, 0)
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.met.activeConns.Add(-1)
		if s.draining {
			s.met.drained.Inc()
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		typ, body, fbuf, err := netproto.ReadFrameBuf(conn)
		if err != nil {
			// EOF and deadline pokes are routine; anything else malformed
			// costs the peer its connection.
			if !isExpectedReadErr(err) {
				s.met.badFrames.Inc()
			}
			return
		}
		// Request and inbound-byte accounting happen before dispatch, the
		// reply latency and outbound bytes after the reply is written: a
		// stats_full snapshot therefore includes the request that fetched
		// it in requests/bytes_in but not in bytes_out/request_ns.
		t0 := time.Now()
		s.met.requests.Inc()
		s.met.bytesIn.Add(int64(5 + len(body)))
		rtyp, rhead, rtail := s.dispatch(cn, typ, body)
		// Every borrower of the request's bytes (batch decode, the group
		// write's page views, the flash programs) finished inside
		// dispatch; the frame goes back to the pool before the reply I/O.
		fbuf.Release()
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
		if err := cn.fw.WriteFrame2(rtyp, rhead, rtail); err != nil {
			return
		}
		s.met.bytesOut.Add(int64(5 + len(rhead) + len(rtail)))
		s.met.requestNS.ObserveDuration(time.Since(t0))
		s.trc.Span(trace.KRequest, 0, cid, 0, t0, int64(typ), int64(len(body)))
	}
}

// isExpectedReadErr separates routine connection endings (peer closed,
// idle/drain deadline, torn frame on a killed conn) from malformed input.
func isExpectedReadErr(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dispatch executes one request and builds its reply frame as a
// (head, tail) pair: small reply bodies are appended into cn's scratch
// and returned as head, while page payloads travel as tail so the frame
// writer can emit them with writev instead of copying (the pooled
// zero-copy read_page reply). The caller consumes both before the next
// dispatch.
func (s *Server) dispatch(cn *connState, typ byte, body []byte) (rtyp byte, head, tail []byte) {
	switch typ {
	case netproto.MsgOpenSession:
		tenant, priority, err := netproto.ParseOpenSession(body)
		if err != nil {
			return s.badRequest(cn, err)
		}
		sid, err := s.ctl.OpenSessionTenant(tenant, priority)
		if err != nil {
			return s.errFrame(cn, err)
		}
		return netproto.MsgRespOpenSession, cn.u64(sid), nil

	case netproto.MsgCloseSession:
		sid, err := netproto.ParseU64(body)
		if err != nil {
			return s.badRequest(cn, err)
		}
		if err := s.ctl.CloseSession(sid); err != nil {
			return s.errFrame(cn, err)
		}
		return netproto.MsgRespCloseSession, nil, nil

	case netproto.MsgFlushBatch:
		traceID, sid, wsn, wire, err := netproto.ParseFlush(body)
		if err != nil {
			return s.badRequest(cn, err)
		}
		return s.flush(cn, sid, wsn, traceID, wire)

	case netproto.MsgRead:
		lpid, err := netproto.ParseU64(body)
		if err != nil {
			return s.badRequest(cn, err)
		}
		return s.readOne(cn, addr.LPID(lpid))

	case netproto.MsgReadBatch:
		lpids, err := netproto.ParseReadBatch(body)
		if err != nil {
			return s.badRequest(cn, err)
		}
		return s.readBatch(cn, lpids)

	case netproto.MsgStatsFull:
		return netproto.MsgRespStatsFull, netproto.EncodeStatsFull(s.ctl.MetricsSnapshot()), nil

	case netproto.MsgTraceDump:
		return netproto.MsgRespTraceDump, netproto.EncodeTraceDump(s.ctl.TraceDump()), nil

	default:
		return s.badRequest(cn, fmt.Errorf("unknown message type 0x%02x", typ))
	}
}

// flush admits the batch under the in-flight byte bound, applies it, and
// acknowledges the session's highest applied WSN (which, for a retried
// stale WSN, is the dedup re-ACK of §III-A2). traceID 0 gets a
// server-assigned ID so the slow-batch log and the flight recorder can
// still name the batch.
func (s *Server) flush(cn *connState, sid, wsn, traceID uint64, wire []byte) (byte, []byte, []byte) {
	if traceID == 0 {
		traceID = s.trc.NewTraceID()
	}
	n := int64(len(wire))
	// Per-tenant admission first: the tenant pays its own rate tokens
	// and budget bytes before touching shared capacity, so a throttled
	// tenant queues in its own lane instead of holding the global
	// semaphore. sid 0 and unknown sessions fall to the default tenant;
	// the unknown-session error still surfaces from the write below.
	tenant, prio := "", uint8(0)
	if s.qos.Enabled() && sid != 0 {
		if tn, p, err := s.ctl.SessionTenant(sid); err == nil {
			tenant, prio = tn, p
		}
	}
	if err := s.qos.Admit(tenant, prio, n); err != nil {
		return s.errCode(cn, netproto.CodeShuttingDown, err.Error())
	}
	if err := s.admit(n); err != nil {
		s.qos.Release(tenant, n)
		return s.errCode(cn, netproto.CodeShuttingDown, err.Error())
	}
	var t0 time.Time
	if s.cfg.SlowBatchThreshold > 0 {
		t0 = time.Now()
	}
	err := s.write(cn, sid, wsn, traceID, wire)
	s.release(n)
	s.qos.Release(tenant, n)
	if s.cfg.SlowBatchThreshold > 0 {
		if elapsed := time.Since(t0); elapsed > s.cfg.SlowBatchThreshold {
			s.logSlowBatch(traceID, sid, wsn, elapsed, err)
		}
	}
	if err != nil {
		return s.errFrame(cn, err)
	}
	s.met.batches.Inc()
	var highest uint64
	if sid != 0 {
		if highest, err = s.ctl.SessionHighestWSN(sid); err != nil {
			return s.errFrame(cn, err)
		}
	}
	return netproto.MsgRespFlushBatch, cn.u64(highest), nil
}

// readOne serves read_page. The stored length is looked up first (a
// short mapping-table probe) so the page bytes can be admitted under
// the same in-flight byte bound as writes before flash is touched; the
// reply then travels as a vectored tail, so a large page is never
// copied into the frame writer's scratch.
func (s *Server) readOne(cn *connState, lpid addr.LPID) (byte, []byte, []byte) {
	n, err := s.ctl.Length(lpid)
	if err != nil {
		return s.errFrame(cn, err)
	}
	if err := s.admit(int64(n)); err != nil {
		return s.errCode(cn, netproto.CodeShuttingDown, err.Error())
	}
	data, err := s.ctl.Read(lpid)
	s.release(int64(n))
	if err != nil {
		return s.errFrame(cn, err)
	}
	return netproto.MsgRespRead, nil, data
}

// readBatch serves read_batch: admit the total stored bytes, then let
// the core scatter-gather the found pages across flash channels.
// Unmapped LPIDs are not an error at this layer — they come back as
// per-entry not-found statuses, so one missing page cannot fail a
// 1000-page batch.
func (s *Server) readBatch(cn *connState, lpids64 []uint64) (byte, []byte, []byte) {
	lpids := make([]addr.LPID, len(lpids64))
	var total int64
	for i, v := range lpids64 {
		lpids[i] = addr.LPID(v)
		if n, err := s.ctl.Length(lpids[i]); err == nil {
			total += int64(n)
		}
	}
	if err := s.admit(total); err != nil {
		return s.errCode(cn, netproto.CodeShuttingDown, err.Error())
	}
	pages, err := s.ctl.ReadBatch(lpids)
	s.release(total)
	if err != nil {
		return s.errFrame(cn, err)
	}
	cn.scratch = netproto.AppendReadBatchResp(cn.scratch[:0], pages)
	return netproto.MsgRespReadBatch, cn.scratch, nil
}

// write applies one admitted flush: decode to zero-copy views in the
// connection's scratch, then run it as one SubFlush — through the
// coalescer when it is eligible to merge with other connections'
// flushes, straight to the controller as a group of one otherwise. The
// views alias the pooled request frame, which the connection goroutine
// keeps referenced until after dispatch returns — and it is parked here
// for the whole write, so every view the writer reads stays alive.
func (s *Server) write(cn *connState, sid, wsn, traceID uint64, wire []byte) error {
	pages, err := core.AppendBatchView(cn.views[:0], wire)
	if err != nil {
		cn.views = cn.views[:0]
		return err
	}
	pf := &cn.pf
	pf.sub = core.SubFlush{SID: sid, WSN: wsn, TraceID: traceID, Pages: pages}
	if n := int64(len(wire)); s.co != nil && n <= coalesceThresholdBytes {
		s.co.submit(pf, n)
	} else {
		s.ctl.WriteBatchGroup([]*core.SubFlush{&pf.sub})
	}
	err = pf.sub.Err
	// Drop the frame aliases before the seat is reused: a parked view
	// must never outlive its frame's reference.
	clear(pages)
	cn.views = pages[:0]
	pf.sub.Pages = nil
	return err
}

// logSlowBatch emits one structured (JSON) log line for a flush_batch
// that overran SlowBatchThreshold, with the per-stage breakdown
// reconstructed from the flight recorder: only slow batches pay the
// dump-and-scan cost, the hot path just reads a clock.
func (s *Server) logSlowBatch(traceID, sid, wsn uint64, elapsed time.Duration, err error) {
	entry := struct {
		Msg     string            `json:"msg"`
		TraceID uint64            `json:"trace_id"`
		SID     uint64            `json:"sid"`
		WSN     uint64            `json:"wsn"`
		Elapsed string            `json:"elapsed"`
		Err     string            `json:"err,omitempty"`
		Stages  map[string]string `json:"stages,omitempty"`
	}{
		Msg:     "slow_batch",
		TraceID: traceID,
		SID:     sid,
		WSN:     wsn,
		Elapsed: elapsed.String(),
	}
	if err != nil {
		entry.Err = err.Error()
	}
	if traceID != 0 {
		stages := make(map[string]string)
		for _, ev := range s.trc.Dump().Events {
			if ev.TraceID != traceID || ev.Dur == 0 {
				continue
			}
			stages[ev.Kind.String()] = time.Duration(ev.Dur).String()
		}
		if len(stages) > 0 {
			entry.Stages = stages
		}
	}
	raw, jerr := json.Marshal(entry)
	if jerr != nil {
		s.slowLogf("slow_batch trace_id=%d sid=%d wsn=%d elapsed=%s", traceID, sid, wsn, elapsed)
		return
	}
	s.slowLogf("%s", raw)
}

// admit blocks until n batch bytes fit under MaxInflightBytes. A single
// batch larger than the whole bound is admitted alone rather than
// deadlocking. Draining aborts waiters.
func (s *Server) admit(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining {
			return ErrDraining
		}
		if cur := s.met.inflightBytes.Value(); cur+n <= s.cfg.MaxInflightBytes || cur == 0 {
			s.met.inflightBytes.Add(n)
			if cur+n > s.met.peakInflight.Value() {
				s.met.peakInflight.Set(cur + n)
			}
			return nil
		}
		s.cond.Wait()
	}
}

func (s *Server) release(n int64) {
	s.mu.Lock()
	s.met.inflightBytes.Add(-n)
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Server) errFrame(cn *connState, err error) (byte, []byte, []byte) {
	return s.errCode(cn, netproto.CodeFor(err), err.Error())
}

func (s *Server) badRequest(cn *connState, err error) (byte, []byte, []byte) {
	return s.errCode(cn, netproto.CodeBadRequest, err.Error())
}

func (s *Server) errCode(cn *connState, code uint16, msg string) (byte, []byte, []byte) {
	s.met.errors.Inc()
	cn.scratch = netproto.AppendErrorBody(cn.scratch[:0], code, msg)
	return netproto.MsgRespError, cn.scratch, nil
}
