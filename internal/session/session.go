// Package session implements the durable session table of §III-A2.
//
// A session orders write buffers: within a session each buffer carries a
// write sequence number (WSN), starting at 1 and increasing by one. The
// controller applies and acknowledges buffers in WSN order. A buffer whose
// WSN is not one past the session's highest applied WSN is either stale
// (already applied — the highest WSN is re-acknowledged so the host can
// resolve un-ACKed redos after a crash) or early (its predecessors have
// not arrived yet).
//
// Sessions survive controller crashes: the table is snapshotted in full at
// every checkpoint and session transitions are logged.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"

	"eleos/internal/addr"
)

// Verdict classifies an incoming (SID, WSN) pair.
type Verdict int

const (
	// Apply: the WSN is exactly next; process the buffer.
	Apply Verdict = iota
	// Stale: the WSN was already applied; re-acknowledge, do not apply.
	Stale
	// Early: predecessors are missing; the caller must wait.
	Early
)

func (v Verdict) String() string {
	switch v {
	case Apply:
		return "apply"
	case Stale:
		return "stale"
	case Early:
		return "early"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Errors.
var (
	ErrUnknownSession = errors.New("session: unknown or closed session")
	ErrBadImage       = errors.New("session: bad snapshot image")
)

type state struct {
	highestWSN uint64
	open       bool
	tenant     string
	priority   uint8
}

// MaxTenantLen bounds the tenant tag; it is encoded with a one-byte
// length in both the log record and the snapshot image.
const MaxTenantLen = 255

// Table tracks sessions. Safe for concurrent use.
type Table struct {
	mu       sync.Mutex
	rng      *rand.Rand
	sessions map[uint64]*state
}

// New creates an empty session table; seed drives SID generation (the
// paper assigns SIDs as random numbers).
func New(seed int64) *Table {
	return &Table{rng: rand.New(rand.NewSource(seed)), sessions: make(map[uint64]*state)}
}

// Open creates an untagged session and returns its SID (never zero; zero
// denotes "no session" on write buffers).
func (t *Table) Open() uint64 { return t.OpenTenant("", 0) }

// OpenTenant creates a session tagged with a tenant name and priority.
// The empty tenant is the legacy/default tenant. Tenants longer than
// MaxTenantLen are truncated (the wire codec rejects them before here).
func (t *Table) OpenTenant(tenant string, priority uint8) uint64 {
	if len(tenant) > MaxTenantLen {
		tenant = tenant[:MaxTenantLen]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		sid := t.rng.Uint64()
		if sid == 0 {
			continue
		}
		if _, exists := t.sessions[sid]; exists {
			continue
		}
		t.sessions[sid] = &state{open: true, tenant: tenant, priority: priority}
		return sid
	}
}

// Tenant returns a session's tenant tag and priority.
func (t *Table) Tenant(sid uint64) (string, uint8, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[sid]
	if !ok {
		return "", 0, fmt.Errorf("%w: %d", ErrUnknownSession, sid)
	}
	return s.tenant, s.priority, nil
}

// Close removes a session.
func (t *Table) Close(sid uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sessions[sid]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, sid)
	}
	delete(t.sessions, sid)
	return nil
}

// Check classifies wsn for the session and returns the session's highest
// applied WSN (the value to acknowledge for Stale verdicts).
func (t *Table) Check(sid, wsn uint64) (Verdict, uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[sid]
	if !ok {
		return Stale, 0, fmt.Errorf("%w: %d", ErrUnknownSession, sid)
	}
	switch {
	case wsn == s.highestWSN+1:
		return Apply, s.highestWSN, nil
	case wsn <= s.highestWSN:
		return Stale, s.highestWSN, nil
	default:
		return Early, s.highestWSN, nil
	}
}

// Advance records that wsn was applied. It must be exactly next.
func (t *Table) Advance(sid, wsn uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[sid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, sid)
	}
	if wsn != s.highestWSN+1 {
		return fmt.Errorf("session: advance %d out of order (highest %d)", wsn, s.highestWSN)
	}
	s.highestWSN = wsn
	return nil
}

// HighestWSN returns the session's highest applied WSN.
func (t *Table) HighestWSN(sid uint64) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[sid]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownSession, sid)
	}
	return s.highestWSN, nil
}

// --- recovery --------------------------------------------------------------

// RestoreOpen recreates a session during recovery (idempotent). The
// tenant tag rides the SessionOpen log record, so replay restores it; a
// session first seen via AdvanceTo keeps the default tag until (if ever)
// its open record is replayed.
func (t *Table) RestoreOpen(sid uint64, tenant string, priority uint8) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.sessions[sid]; ok {
		// AdvanceTo may have materialized the session before its open
		// record replayed; attach the authoritative tag.
		s.tenant, s.priority = tenant, priority
		return
	}
	t.sessions[sid] = &state{open: true, tenant: tenant, priority: priority}
}

// RestoreClose removes a session during recovery (idempotent).
func (t *Table) RestoreClose(sid uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.sessions, sid)
}

// AdvanceTo raises the session's highest WSN to at least wsn (recovery
// replay; records may be re-applied idempotently).
func (t *Table) AdvanceTo(sid, wsn uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[sid]
	if !ok {
		s = &state{open: true}
		t.sessions[sid] = s
	}
	if wsn > s.highestWSN {
		s.highestWSN = wsn
	}
}

// Count returns the number of open sessions.
func (t *Table) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// DropVolatile clears all sessions (crash simulation).
func (t *Table) DropVolatile() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions = make(map[uint64]*state)
}

// --- snapshot (flushed in full at each checkpoint, §VIII-B) ----------------

const imageMagicV2 = 0x32534553 // "SES2" — variable entries with tenant tags

// Serialize returns the full-table snapshot image, 64-byte aligned, in the
// v2 format: sid, wsn, priority, tenant per entry, sorted by SID, CRC32
// over the prefix.
func (t *Table) Serialize() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	sids := make([]uint64, 0, len(t.sessions))
	n := 8 + 4
	for sid, s := range t.sessions {
		sids = append(sids, sid)
		n += 16 + 2 + len(s.tenant)
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	buf := make([]byte, addr.AlignUp(n))
	binary.LittleEndian.PutUint32(buf[0:], imageMagicV2)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(sids)))
	off := 8
	for _, sid := range sids {
		s := t.sessions[sid]
		binary.LittleEndian.PutUint64(buf[off:], sid)
		binary.LittleEndian.PutUint64(buf[off+8:], s.highestWSN)
		buf[off+16] = s.priority
		buf[off+17] = uint8(len(s.tenant))
		copy(buf[off+18:], s.tenant)
		off += 18 + len(s.tenant)
	}
	crc := crc32.ChecksumIEEE(buf[:off])
	binary.LittleEndian.PutUint32(buf[off:], crc)
	return buf
}

// Load replaces the table contents with a v2 snapshot image. The v1 image
// ("SESS", no tenant tags) predates the checkpoint's format epoch, so
// recovery rejects a device holding one before it reaches here; Load
// rejects it as any other magic.
func (t *Table) Load(raw []byte) error {
	if len(raw) < 12 {
		return fmt.Errorf("%w: short", ErrBadImage)
	}
	magic := binary.LittleEndian.Uint32(raw[0:])
	n := int(binary.LittleEndian.Uint32(raw[4:]))
	// The smallest entry is 18 bytes, so a count beyond len(raw)/18 is
	// forged; bounding it here keeps a hostile image from sizing the map
	// (or spinning the decode loop) off a lie.
	if n < 0 || n > len(raw)/18 {
		return fmt.Errorf("%w: count", ErrBadImage)
	}
	sessions := make(map[uint64]*state, n)
	var off int
	switch magic {
	case imageMagicV2:
		off = 8
		for i := 0; i < n; i++ {
			if off+18 > len(raw) {
				return fmt.Errorf("%w: truncated", ErrBadImage)
			}
			sid := binary.LittleEndian.Uint64(raw[off:])
			wsn := binary.LittleEndian.Uint64(raw[off+8:])
			prio := raw[off+16]
			tlen := int(raw[off+17])
			if off+18+tlen+4 > len(raw) {
				return fmt.Errorf("%w: truncated", ErrBadImage)
			}
			tenant := string(raw[off+18 : off+18+tlen])
			sessions[sid] = &state{highestWSN: wsn, open: true, tenant: tenant, priority: prio}
			off += 18 + tlen
		}
	default:
		return fmt.Errorf("%w: magic", ErrBadImage)
	}
	if len(raw) < off+4 {
		return fmt.Errorf("%w: truncated", ErrBadImage)
	}
	if crc32.ChecksumIEEE(raw[:off]) != binary.LittleEndian.Uint32(raw[off:]) {
		return fmt.Errorf("%w: checksum", ErrBadImage)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions = sessions
	return nil
}
