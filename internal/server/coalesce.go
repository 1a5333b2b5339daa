package server

import (
	"sync"
	"time"

	"eleos/internal/core"
)

// Server-side batch coalescing merges small pending flushes from
// different connections into one controller batch, so they share a single
// provision/program/commit cycle (the cross-connection analogue of the
// paper's batched-write interface, in the spirit of WAL group commit). Off
// by default: Config.CoalesceWindow turns it on, trading up to that window
// of added latency per small flush for fewer forced log pages and larger,
// better-striped program batches. The window is the one setting; a round's
// other limits are constants.
//
// Coalescing is tenant-safe by construction: per-tenant QoS admission
// (rate tokens and inflight budget) is charged in Server.flush BEFORE a
// flush takes a seat in a round, so a merged group batch carries only
// bytes each tenant already paid for — one tenant can never ride
// another's budget through the merge.
const (
	// coalesceMaxFlushes closes a round early once this many flushes
	// joined.
	coalesceMaxFlushes = 16
	// coalesceMaxBytes closes a round early once the joined flushes' wire
	// bytes reach it.
	coalesceMaxBytes = 1 << 20
	// coalesceThresholdBytes is the eligibility bound: only flushes whose
	// wire body is at most this big coalesce — a large flush already fills
	// the pipeline by itself and would only delay its round.
	coalesceThresholdBytes = 64 << 10
)

// pendingFlush is one connection's flush seat: the SubFlush of the
// request being written, handed straight to the controller or seated in
// a coalescing round. Each connection owns exactly one and reuses it
// across requests: done is buffered and receives exactly one token per
// round the seat joined as a follower, so no allocation happens per
// flush.
type pendingFlush struct {
	sub  core.SubFlush
	done chan struct{}
}

// coalescer gathers eligible flushes into rounds with the leader /
// follower pattern of group commit: the first flush to arrive at an
// empty queue becomes the round's leader, waits out the window (or an
// early fill), and writes everything gathered as one controller group.
// Followers park on their seat's done channel; the leader wakes them
// after the group completes, each finding its outcome in sub.Err.
type coalescer struct {
	ctl    *core.Controller
	window time.Duration

	mu      sync.Mutex
	pending []*pendingFlush
	bytes   int64
	filled  chan struct{} // open round's early-close signal
	isFull  bool
}

func newCoalescer(ctl *core.Controller, window time.Duration) *coalescer {
	return &coalescer{ctl: ctl, window: window, pending: make([]*pendingFlush, 0, coalesceMaxFlushes)}
}

// submit enters pf into the current round and blocks until the round's
// group write has completed; pf.sub.Err then holds this flush's
// outcome. The caller must keep pf.sub.Pages' backing bytes (the pooled
// request frame) alive until submit returns.
func (co *coalescer) submit(pf *pendingFlush, wireBytes int64) {
	co.mu.Lock()
	if len(co.pending) > 0 {
		// Follower: take a seat, close the round if this filled it, park.
		co.pending = append(co.pending, pf)
		co.bytes += wireBytes
		if !co.isFull && (len(co.pending) >= coalesceMaxFlushes || co.bytes >= coalesceMaxBytes) {
			co.isFull = true
			close(co.filled)
		}
		co.mu.Unlock()
		<-pf.done
		return
	}

	// Leader: open the round, wait for companions, write the group.
	co.pending = append(co.pending, pf)
	co.bytes = wireBytes
	filled := make(chan struct{})
	co.filled = filled
	co.isFull = false
	co.mu.Unlock()

	// A lone flush never fills a round: it is at most
	// coalesceThresholdBytes, and coalesceMaxFlushes is above one.
	t := time.NewTimer(co.window)
	select {
	case <-filled:
	case <-t.C:
	}
	t.Stop()

	co.mu.Lock()
	batch := co.pending
	// The next arrival after this unlock elects a new leader; its round
	// may run concurrently with this group write, which the controller
	// handles like any concurrent batches.
	co.pending = make([]*pendingFlush, 0, coalesceMaxFlushes)
	co.bytes = 0
	co.filled = nil
	co.mu.Unlock()

	subs := make([]*core.SubFlush, len(batch))
	for i, p := range batch {
		subs[i] = &p.sub
	}
	co.ctl.WriteBatchGroup(subs)
	for _, p := range batch {
		if p != pf {
			p.done <- struct{}{}
		}
	}
}
