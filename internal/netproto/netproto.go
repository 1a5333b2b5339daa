// Package netproto defines the wire protocol of the eleosd network
// front-end: a length-prefixed binary framing over a TCP stream socket,
// standing in for the NVMe-oF/TCP transport of the paper's testbed
// (§IX-A1) the way internal/nvme cost-models it.
//
// Every message is one frame:
//
//	u32 length | u8 type | body
//
// length (little-endian) counts the type byte plus the body, so an empty
// message is a 5-byte frame. The commands mirror the controller's host
// interface: open/close session, flush_batch (carrying the §IX-A2 batch
// buffer of core.AppendBatch verbatim, prefixed by trace_id+sid+wsn),
// read by LPID (one or a batch), stats_full and trace_dump. Responses
// either carry the command's payload or a RespError frame with a numeric
// code; the code tells the client whether a retry is safe (see Retryable).
//
// The protocol is deliberately strict. A frame that cannot be delimited —
// an oversized or zero length prefix — terminates the connection
// server-side; a well-framed request the server cannot act on — an
// unknown type, a short or malformed body — is answered with
// CodeBadRequest and the connection stays usable. Idempotence
// of retried flush_batch commands is NOT a framing concern — it rides on
// the durable session table's WSN protocol (§III-A2): a client that
// resends (sid, wsn) after a dropped connection is answered from the
// session's highest applied WSN without re-applying the batch.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"eleos/internal/core"
	"eleos/internal/session"
)

// Message types.
const (
	// Requests.
	MsgOpenSession  = 0x01 // body: empty (default tag) | u8 ver | u8 prio | u8 len | tenant
	MsgCloseSession = 0x02 // body: sid u64
	// 0x03 (flush with no trace ID) is retired: MsgFlushBatch is the one
	// flush message. Like any unknown type it is answered CodeBadRequest.
	MsgRead = 0x04 // body: lpid u64
	// 0x05 (stats, JSON core.Stats) is retired: stats_full carries every
	// number it did. Like any unknown type it is answered CodeBadRequest.
	MsgStatsFull = 0x06 // body: empty
	MsgTraceDump = 0x07 // body: empty
	// MsgFlushBatch is the one flush message. The leading trace ID lets
	// the flight recorder attribute every stage of the batch to the
	// originating request; 0 lets the server assign one.
	MsgFlushBatch = 0x08 // body: trace_id u64 | sid u64 | wsn u64 | batch wire bytes
	// MsgReadBatch reads many LPIDs in one round trip; the server
	// scatter-gathers the flash transfers across channels.
	MsgReadBatch = 0x09 // body: count u32 | lpid u64 × count
	// 0x0A/0x0B (watch_stats subscribe/stop) and their replies 0x8A-0x8C
	// are retired: a client polls stats_full instead. Like any unknown
	// type they are answered CodeBadRequest.

	// Responses.
	MsgRespOpenSession  = 0x81 // body: sid u64
	MsgRespCloseSession = 0x82 // body: empty
	MsgRespFlushBatch   = 0x83 // body: highest applied WSN u64
	MsgRespRead         = 0x84 // body: page bytes
	MsgRespStatsFull    = 0x86 // body: JSON metrics.Snapshot (EncodeStatsFull)
	MsgRespTraceDump    = 0x87 // body: JSON trace.Dump (EncodeTraceDump)
	// MsgRespReadBatch carries per-page results: status 0 (ok, followed
	// by u32 len | bytes) or 1 (not found, nothing follows). Per-page
	// absence is data, not an error frame.
	MsgRespReadBatch = 0x89 // body: count u32 | (status u8 [| len u32 | bytes]) × count
	MsgRespError     = 0xFF // body: code u16 | message bytes
)

// Error codes carried by RespError frames.
const (
	CodeBadRequest     uint16 = 1 // malformed frame body; not retryable
	CodeBadBatch       uint16 = 2 // core.ErrBadBatch; not retryable
	CodeUnknownSession uint16 = 3 // session.ErrUnknownSession; not retryable
	CodeNotFound       uint16 = 4 // core.ErrNotFound; not retryable
	CodeWriteFailed    uint16 = 5 // core.ErrWriteFailed (media); retry same WSN
	CodeBusy           uint16 = 6 // connection limit reached; retry later
	CodeShuttingDown   uint16 = 7 // server draining; retry elsewhere/later
	CodeInternal       uint16 = 8 // anything else; not retryable
)

// DefaultMaxFrameBytes bounds every frame the server and the client read:
// large enough for a multi-megabyte flush_batch, small enough that a
// hostile 4-byte length prefix cannot force a giant allocation.
const DefaultMaxFrameBytes = 16 << 20

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("netproto: frame exceeds size cap")
	ErrShortBody     = errors.New("netproto: frame body too short")
)

// RemoteError is a server-reported failure decoded from a RespError
// frame. Errors.Is matches the sentinel error for its code (e.g.
// core.ErrNotFound), so callers handle network and in-process failures
// with the same checks.
type RemoteError struct {
	Code uint16
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("netproto: remote error (code %d): %s", e.Code, e.Msg)
}

// Unwrap maps the code back to the library sentinel it was derived from.
func (e *RemoteError) Unwrap() error {
	switch e.Code {
	case CodeBadBatch:
		return core.ErrBadBatch
	case CodeUnknownSession:
		return session.ErrUnknownSession
	case CodeNotFound:
		return core.ErrNotFound
	case CodeWriteFailed:
		return core.ErrWriteFailed
	default:
		return nil
	}
}

// Retryable reports whether a retry of the same request is safe and
// useful after this error code. Write-failure retries are safe because
// the aborted action installed nothing and the WSN was not advanced;
// busy/draining retries are safe because the request was never executed.
func Retryable(code uint16) bool {
	return code == CodeWriteFailed || code == CodeBusy || code == CodeShuttingDown
}

// CodeFor maps a server-side error to the wire code for its RespError
// frame.
func CodeFor(err error) uint16 {
	switch {
	case errors.Is(err, core.ErrBadBatch):
		return CodeBadBatch
	case errors.Is(err, session.ErrUnknownSession):
		return CodeUnknownSession
	case errors.Is(err, core.ErrNotFound):
		return CodeNotFound
	case errors.Is(err, core.ErrWriteFailed):
		return CodeWriteFailed
	default:
		return CodeInternal
	}
}

// --- framing ---------------------------------------------------------------

// readFrameLen reads and validates one frame's length prefix into hdr
// scratch: the header parser shared by ReadFrame and ReadFrameBuf. A
// length over DefaultMaxFrameBytes fails before any body byte is read.
// On EOF before any byte it returns io.EOF unchanged so callers can
// distinguish a clean close from a torn frame.
func readFrameLen(r io.Reader, hdr *[4]byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, ErrShortBody
	}
	if n > DefaultMaxFrameBytes {
		return 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, DefaultMaxFrameBytes)
	}
	return int(n), nil
}

// readFramePayload fills payload (type byte plus body) from r; a stream
// that ends inside it is a torn frame.
func readFramePayload(r io.Reader, payload []byte) error {
	_, err := io.ReadFull(r, payload)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// ReadFrame reads one frame into a fresh slice the caller keeps (reply
// bodies outlive the request), rejecting lengths beyond
// DefaultMaxFrameBytes.
func ReadFrame(r io.Reader) (typ byte, body []byte, err error) {
	var hdr [4]byte
	n, err := readFrameLen(r, &hdr)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n)
	if err := readFramePayload(r, payload); err != nil {
		return 0, nil, err
	}
	return payload[0], payload[1:], nil
}

// --- message bodies --------------------------------------------------------

// AppendU64 appends a little-endian u64 (exported for body builders).
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// ParseU64 decodes a single-u64 body.
func ParseU64(body []byte) (uint64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("%w: want 8 bytes, have %d", ErrShortBody, len(body))
	}
	return binary.LittleEndian.Uint64(body), nil
}

// openSessionVersion is the current versioned open_session body format.
const openSessionVersion = 1

// OpenSessionBody encodes an open_session request body. The default tag
// (empty tenant, priority 0) encodes as the empty body — byte-identical
// to the legacy pre-tenant request, so old clients are the degenerate
// case of the new codec. Any other tag uses the versioned form
// u8 version | u8 priority | u8 len | tenant.
func OpenSessionBody(tenant string, priority uint8) ([]byte, error) {
	if tenant == "" && priority == 0 {
		return nil, nil
	}
	if len(tenant) > session.MaxTenantLen {
		return nil, fmt.Errorf("netproto: tenant tag %d bytes exceeds %d", len(tenant), session.MaxTenantLen)
	}
	b := make([]byte, 0, 3+len(tenant))
	b = append(b, openSessionVersion, priority, byte(len(tenant)))
	return append(b, tenant...), nil
}

// ParseOpenSession decodes an open_session request body. The empty body
// is the default tag. Decode∘encode is byte-identical: unknown versions,
// tenant-length/body-length mismatches (which covers trailing bytes) and
// the non-canonical versioned encoding of the default tag are rejected.
func ParseOpenSession(body []byte) (tenant string, priority uint8, err error) {
	if len(body) == 0 {
		return "", 0, nil
	}
	if len(body) < 3 {
		return "", 0, fmt.Errorf("%w: open_session header", ErrShortBody)
	}
	if body[0] != openSessionVersion {
		return "", 0, fmt.Errorf("netproto: open_session version %d unsupported", body[0])
	}
	priority = body[1]
	tlen := int(body[2])
	if len(body) != 3+tlen {
		return "", 0, fmt.Errorf("%w: open_session wants %d tenant bytes, have %d",
			ErrShortBody, tlen, len(body)-3)
	}
	tenant = string(body[3:])
	if tenant == "" && priority == 0 {
		return "", 0, errors.New("netproto: non-canonical open_session: versioned body with default tag")
	}
	return tenant, priority, nil
}

// ParseFlush decodes a MsgFlushBatch body: AppendFlushHead's prefix, then
// the core.AppendBatch buffer. The returned wire slice aliases body.
func ParseFlush(body []byte) (traceID, sid, wsn uint64, wire []byte, err error) {
	if len(body) < 24 {
		return 0, 0, 0, nil, fmt.Errorf("%w: flush header", ErrShortBody)
	}
	traceID = binary.LittleEndian.Uint64(body)
	sid = binary.LittleEndian.Uint64(body[8:])
	wsn = binary.LittleEndian.Uint64(body[16:])
	return traceID, sid, wsn, body[24:], nil
}

// Per-page statuses in a MsgRespReadBatch body.
const (
	ReadPageOK       byte = 0
	ReadPageNotFound byte = 1
)

// MaxReadBatchPages bounds the LPID count one read_batch may carry; the
// decoder rejects anything larger before allocating.
const MaxReadBatchPages = 1 << 16

// AppendReadBatchBody appends a read_batch request body to dst.
func AppendReadBatchBody(dst []byte, lpids []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(lpids)))
	for _, lpid := range lpids {
		dst = AppendU64(dst, lpid)
	}
	return dst
}

// ParseReadBatch decodes a read_batch request body. The count is
// validated against both MaxReadBatchPages and the exact body length —
// a forged count cannot force a large allocation, and trailing bytes are
// rejected so decode∘encode is canonical.
func ParseReadBatch(body []byte) ([]uint64, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: read_batch header", ErrShortBody)
	}
	count := binary.LittleEndian.Uint32(body)
	if count > MaxReadBatchPages {
		return nil, fmt.Errorf("netproto: read_batch count %d exceeds %d", count, MaxReadBatchPages)
	}
	if len(body) != 4+8*int(count) {
		return nil, fmt.Errorf("%w: read_batch wants %d bytes for %d lpids, have %d",
			ErrShortBody, 4+8*int(count), count, len(body))
	}
	lpids := make([]uint64, count)
	for i := range lpids {
		lpids[i] = binary.LittleEndian.Uint64(body[4+8*i:])
	}
	return lpids, nil
}

// AppendReadBatchResp appends a read_batch response body to dst. A nil
// page encodes as not-found; any non-nil page (empty included) encodes
// its bytes.
func AppendReadBatchResp(dst []byte, pages [][]byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pages)))
	for _, p := range pages {
		if p == nil {
			dst = append(dst, ReadPageNotFound)
			continue
		}
		dst = append(dst, ReadPageOK)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// ParseReadBatchResp decodes a read_batch response body. Every length is
// bounds-checked against the remaining bytes before any allocation, the
// preallocation for the result slice is capped by what the body could
// possibly hold, and trailing bytes are rejected. Returned pages alias
// body.
func ParseReadBatchResp(body []byte) ([][]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: read_batch response header", ErrShortBody)
	}
	count := int(binary.LittleEndian.Uint32(body))
	rest := body[4:]
	if count > len(rest) { // every entry takes at least one status byte
		return nil, fmt.Errorf("%w: read_batch response count %d exceeds body", ErrShortBody, count)
	}
	pages := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("%w: read_batch response entry %d", ErrShortBody, i)
		}
		status := rest[0]
		rest = rest[1:]
		switch status {
		case ReadPageNotFound:
			pages = append(pages, nil)
		case ReadPageOK:
			if len(rest) < 4 {
				return nil, fmt.Errorf("%w: read_batch response len %d", ErrShortBody, i)
			}
			n := int(binary.LittleEndian.Uint32(rest))
			rest = rest[4:]
			if n > len(rest) {
				return nil, fmt.Errorf("%w: read_batch response page %d wants %d bytes, have %d",
					ErrShortBody, i, n, len(rest))
			}
			pages = append(pages, rest[:n:n])
			rest = rest[n:]
		default:
			return nil, fmt.Errorf("netproto: read_batch response entry %d has unknown status %d", i, status)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("netproto: read_batch response has %d trailing bytes", len(rest))
	}
	return pages, nil
}

// ParseError decodes a RespError body into a RemoteError.
func ParseError(body []byte) (*RemoteError, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("%w: error frame", ErrShortBody)
	}
	return &RemoteError{Code: binary.LittleEndian.Uint16(body), Msg: string(body[2:])}, nil
}
