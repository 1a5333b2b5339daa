// Package client is the host-side library for the eleosd network
// front-end: it dials the netproto TCP endpoint and makes the batched
// write interface robust over an unreliable connection.
//
// Robustness is the whole point of the package. The transport gives no
// reply-delivery guarantee — a connection can die after the server
// applied a batch but before the acknowledgment arrived — so the client
// leans on the controller's durable session protocol (§III-A2): every
// flush carries (sid, wsn), and a retry of the same pair after a
// reconnect is answered from the session's highest applied WSN without
// being re-applied. That makes the retry loop here safe:
//
//	dial (exponential backoff + jitter) → send → await reply (deadline)
//	  on connection error / timeout: reconnect, resend SAME (sid, wsn)
//	  on CodeBusy / CodeShuttingDown / CodeWriteFailed: back off, retry
//	  on any other server error: fail fast
//
// Reads and stats are idempotent and retried the same way. OpenSession is
// the one non-idempotent request: it is retried only while dialing; once
// the request may have reached the server, a failure is returned to the
// caller (a leaked server-side session is possible and harmless — it
// holds no resources beyond a table entry).
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"eleos/internal/addr"
	"eleos/internal/core"
	"eleos/internal/metrics"
	"eleos/internal/netproto"
	"eleos/internal/session"
	"eleos/internal/trace"
)

// Options tunes the client.
type Options struct {
	// DialTimeout bounds one TCP connect attempt. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout bounds one send+reply round trip. Default 30s.
	RequestTimeout time.Duration
	// MaxAttempts caps tries per request (first try included). Default 8.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the exponential backoff between
	// attempts; the actual sleep is uniformly jittered in
	// [backoff/2, backoff]. Defaults 25ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives backoff jitter (0 picks a nondeterministic seed).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 8
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 2 * time.Second
	}
	return o
}

// Stats counts client activity.
type Stats struct {
	Dials    int64 // successful connects (first dial included)
	Requests int64 // round trips attempted
	Retries  int64 // attempts beyond the first, per request
	Timeouts int64 // round trips ended by deadline
}

// ErrAttemptsExhausted reports that MaxAttempts tries all failed; it
// wraps the last failure.
var ErrAttemptsExhausted = errors.New("client: retry attempts exhausted")

// Client is a connection to an eleosd server. Methods serialize on an
// internal lock: one in-flight request per client (open one client per
// concurrent stream, as the benchmarks do).
type Client struct {
	addr string
	opts Options

	mu    sync.Mutex
	conn  net.Conn
	fw    *netproto.FrameWriter // frame assembly for the current conn
	rng   *rand.Rand
	stats Stats

	// Encode scratch, reused across requests under mu: batchBuf holds
	// the encoded batch wire (the frame's vectored tail), headBuf the
	// small fixed body prefix. The steady-state flush path allocates
	// neither a body nor a frame.
	batchBuf []byte
	headBuf  []byte
}

// Dial connects to an eleosd address. The initial connect retries with
// backoff like any other request, so a server that is still starting is
// not an error.
func Dial(address string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{addr: address, opts: opts, rng: rand.New(rand.NewSource(seed))}
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if lastErr = c.connectLocked(); lastErr == nil {
			return c, nil
		}
		if attempt < c.opts.MaxAttempts {
			c.stats.Retries++
			c.sleepBackoffLocked(attempt)
		}
	}
	return nil, fmt.Errorf("%w: %v", ErrAttemptsExhausted, lastErr)
}

// Close tears the connection down. The client stays usable: the next
// request reconnects.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropConnLocked()
}

// Stats snapshots the client counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// --- public requests -------------------------------------------------------

// OpenSession opens a durable write-ordering session server-side and
// returns its SID. The session carries the default (empty) tenant tag.
func (c *Client) OpenSession() (uint64, error) {
	return c.OpenSessionTenant("", 0)
}

// OpenSessionTenant opens a session tagged with a tenant name and a
// priority (higher is more urgent). The server uses the tag for QoS
// admission and fairness accounting; the default tag ("", 0) is the
// legacy untagged session.
func (c *Client) OpenSessionTenant(tenant string, priority uint8) (uint64, error) {
	body, err := netproto.OpenSessionBody(tenant, priority)
	if err != nil {
		return 0, err
	}
	rbody, err := c.call(netproto.MsgOpenSession, body, netproto.MsgRespOpenSession, false)
	if err != nil {
		return 0, err
	}
	return netproto.ParseU64(rbody)
}

// CloseSession closes a session. A retry that lands after the close
// already applied reports ErrUnknownSession; callers that retried can
// treat that as success (Session.Close does).
func (c *Client) CloseSession(sid uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.headBuf = netproto.AppendU64(c.headBuf[:0], sid)
	_, err := c.callLocked(netproto.MsgCloseSession, c.headBuf, nil, netproto.MsgRespCloseSession, true)
	return err
}

// Flush durably writes one batch under (sid, wsn) and returns the
// session's highest applied WSN from the acknowledgment. Safe to retry:
// the server deduplicates by WSN. For sid 0 (unordered) the returned WSN
// is 0 — and retries are NOT idempotent, so unordered flushes are
// attempted once.
func (c *Client) Flush(sid, wsn uint64, pages []core.LPage) (uint64, error) {
	return c.FlushTraced(0, sid, wsn, pages)
}

// FlushTraced is Flush carrying a caller-chosen trace ID, so the batch's
// events in the server's flight recorder are attributable to this exact
// request (trace ID 0 lets the server assign one). Same idempotence
// rules as Flush. It is the one flush encoder: the batch goes into reused
// scratch and is sent as a [head, wire] vectored frame, so the fixed
// prefix and the batch bytes are never concatenated into a request body.
func (c *Client) FlushTraced(traceID, sid, wsn uint64, pages []core.LPage) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batchBuf = core.AppendBatch(c.batchBuf[:0], pages)
	c.headBuf = netproto.AppendFlushHead(c.headBuf[:0], traceID, sid, wsn)
	rbody, err := c.callLocked(netproto.MsgFlushBatch, c.headBuf, c.batchBuf, netproto.MsgRespFlushBatch, sid != 0)
	if err != nil {
		return 0, err
	}
	return netproto.ParseU64(rbody)
}

// Read returns the stored (alignment-padded) content of an LPAGE.
func (c *Client) Read(lpid addr.LPID) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.headBuf = netproto.AppendU64(c.headBuf[:0], uint64(lpid))
	return c.callLocked(netproto.MsgRead, c.headBuf, nil, netproto.MsgRespRead, true)
}

// ReadBatch fetches many LPAGEs in one round trip; the server
// scatter-gathers them across flash channels. The result is indexed
// like lpids, with nil entries for LPIDs that are not mapped —
// per-page absence is data, not an error. Reads are idempotent and
// always retried across reconnects.
func (c *Client) ReadBatch(lpids []addr.LPID) ([][]byte, error) {
	if len(lpids) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lp64 := make([]uint64, len(lpids))
	for i, lpid := range lpids {
		lp64[i] = uint64(lpid)
	}
	c.batchBuf = netproto.AppendReadBatchBody(c.batchBuf[:0], lp64)
	rbody, err := c.callLocked(netproto.MsgReadBatch, c.batchBuf, nil, netproto.MsgRespReadBatch, true)
	if err != nil {
		return nil, err
	}
	return netproto.ParseReadBatchResp(rbody)
}

// StatsFull fetches the server's metrics snapshot — every counter, gauge
// and latency histogram across server, core, wal and flash, the
// device-health census among the gauges — via the stats_full command,
// whose body is the snapshot's JSON; keys this build does not know are
// skipped. Idempotent and retried like a read.
func (c *Client) StatsFull() (metrics.Snapshot, error) {
	rbody, err := c.call(netproto.MsgStatsFull, nil, netproto.MsgRespStatsFull, true)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	return netproto.DecodeStatsFull(rbody)
}

// TraceDump fetches the server's flight recorder — the last few thousand
// write-path, GC and media events — via the trace_dump command, whose
// body is the dump's JSON. Idempotent and retried like a read.
func (c *Client) TraceDump() (trace.Dump, error) {
	rbody, err := c.call(netproto.MsgTraceDump, nil, netproto.MsgRespTraceDump, true)
	if err != nil {
		return trace.Dump{}, err
	}
	return netproto.DecodeTraceDump(rbody)
}

// --- session handle --------------------------------------------------------

// Session tracks the WSN counter for one server-side session, giving the
// fire-and-forget interface applications want: Flush assigns the next
// WSN, retries safely, and advances only on acknowledgment.
type Session struct {
	c    *Client
	sid  uint64
	next uint64
}

// NewSession opens a server-side session and wraps it.
func (c *Client) NewSession() (*Session, error) {
	return c.NewSessionTenant("", 0)
}

// NewSessionTenant opens a tenant-tagged server-side session and wraps
// it (see OpenSessionTenant).
func (c *Client) NewSessionTenant(tenant string, priority uint8) (*Session, error) {
	sid, err := c.OpenSessionTenant(tenant, priority)
	if err != nil {
		return nil, err
	}
	return &Session{c: c, sid: sid, next: 1}, nil
}

// SID returns the server-assigned session ID.
func (s *Session) SID() uint64 { return s.sid }

// NextWSN returns the WSN the next Flush will carry.
func (s *Session) NextWSN() uint64 { return s.next }

// Flush writes one batch at the session's next WSN, retrying across
// reconnects; the WSN advances only after the server acknowledged it.
func (s *Session) Flush(pages []core.LPage) error { return s.FlushTraced(0, pages) }

// FlushTraced is Flush carrying a caller-chosen trace ID (see
// Client.FlushTraced).
func (s *Session) FlushTraced(traceID uint64, pages []core.LPage) error {
	high, err := s.c.FlushTraced(traceID, s.sid, s.next, pages)
	if err != nil {
		return err
	}
	if high < s.next {
		return fmt.Errorf("client: server acknowledged WSN %d for flush %d", high, s.next)
	}
	s.next++
	return nil
}

// Close closes the server-side session. ErrUnknownSession from a
// retried close means an earlier attempt already applied.
func (s *Session) Close() error {
	err := s.c.CloseSession(s.sid)
	if errors.Is(err, session.ErrUnknownSession) {
		return nil
	}
	return err
}

// --- transport -------------------------------------------------------------

// call runs one request with the retry loop. wantResp is the expected
// success frame type. idempotent marks requests safe to resend even when
// a connection error leaves it unknown whether the server executed them
// (flush with a session WSN, read, stats); non-idempotent requests still
// retry failures known to precede execution: dial errors and
// busy/draining/write-failed rejections.
func (c *Client) call(typ byte, body []byte, wantResp byte, idempotent bool) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.callLocked(typ, body, nil, wantResp, idempotent)
}

// callLocked is call with mu already held and the request body split as
// head||tail (either may be nil); flushes pass the encoded batch as the
// tail so it is never copied into a combined body.
func (c *Client) callLocked(typ byte, head, tail []byte, wantResp byte, idempotent bool) ([]byte, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		rbody, err := c.roundTripLocked(typ, head, tail, wantResp)
		if err == nil {
			return rbody, nil
		}
		lastErr = err
		var re *netproto.RemoteError
		switch {
		case errors.As(err, &re):
			if !netproto.Retryable(re.Code) {
				return nil, err
			}
			// Busy/draining rejections close the conn server-side;
			// write-failed aborted without installing. Reconnect and
			// retry regardless of idempotence.
			_ = c.dropConnLocked()
		case !idempotent && !errors.Is(err, errNotSent):
			// The request may have executed and the reply is lost;
			// resending could double-apply. Surface the uncertainty.
			return nil, err
		}
		if attempt >= c.opts.MaxAttempts {
			break
		}
		c.stats.Retries++
		c.sleepBackoffLocked(attempt)
	}
	return nil, fmt.Errorf("%w: %v", ErrAttemptsExhausted, lastErr)
}

// errNotSent tags failures that happened before the request could have
// reached the server, so even non-idempotent requests may retry.
var errNotSent = errors.New("client: request not sent")

// roundTripLocked performs one send+receive on the current connection,
// (re)connecting first if needed.
func (c *Client) roundTripLocked(typ byte, head, tail []byte, wantResp byte) ([]byte, error) {
	if c.conn == nil {
		if err := c.connectLocked(); err != nil {
			return nil, fmt.Errorf("%w: %v", errNotSent, err)
		}
	}
	c.stats.Requests++
	deadline := time.Now().Add(c.opts.RequestTimeout)
	_ = c.conn.SetDeadline(deadline)
	if err := c.fw.WriteFrame2(typ, head, tail); err != nil {
		c.noteTimeout(err)
		_ = c.dropConnLocked()
		return nil, fmt.Errorf("client: send: %w", err)
	}
	rtyp, rbody, err := netproto.ReadFrame(c.conn)
	if err != nil {
		c.noteTimeout(err)
		_ = c.dropConnLocked()
		return nil, fmt.Errorf("client: receive: %w", err)
	}
	switch rtyp {
	case wantResp:
		return rbody, nil
	case netproto.MsgRespError:
		re, perr := netproto.ParseError(rbody)
		if perr != nil {
			_ = c.dropConnLocked()
			return nil, perr
		}
		return nil, re
	default:
		// A mismatched reply means framing desync; the connection is
		// unusable.
		_ = c.dropConnLocked()
		return nil, fmt.Errorf("client: unexpected reply type 0x%02x", rtyp)
	}
}

func (c *Client) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c.conn = conn
	c.fw = netproto.NewFrameWriter(conn)
	c.stats.Dials++
	return nil
}

func (c *Client) dropConnLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

func (c *Client) noteTimeout(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.stats.Timeouts++
	}
}

// sleepBackoffLocked sleeps the jittered exponential backoff for the
// given attempt number (1-based for the first retry).
func (c *Client) sleepBackoffLocked(attempt int) {
	time.Sleep(c.backoffLocked(attempt))
}

func (c *Client) backoffLocked(attempt int) time.Duration {
	d := c.opts.BackoffBase << (attempt - 1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	// Uniform jitter in [d/2, d] decorrelates retry storms from many
	// clients reconnecting at once.
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}
