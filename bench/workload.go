package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"eleos/internal/addr"
	"eleos/internal/core"
	"eleos/internal/flash"
)

// fullSeconds is the run length the operation counts below are sized for
// on a 2-core host. A run of -seconds N does fullOps·N/fullSeconds
// operations: a fixed count, so that two runs of one seed do the same
// work, scaled by one recorded factor.
const fullSeconds = 30

type kind int

const (
	kindBatch kind = iota // flush whole write buffers, cyclically overwriting a range
	kindKV                // zipfian single-page reads beside single-page updates
	kindChurn             // skewed overwrites of a live set that fills most of the device
)

// params fixes one workload. These are constants, not flags: a result is
// comparable only with results of the same workload.
type params struct {
	name string
	why  string
	kind kind

	geo        flash.Geometry
	cacheBytes int64   // core.Config.ReadCacheBytes
	ckptBytes  int     // core.Config.AutoCheckpointLogBytes
	wallScale  float64 // flash wall-latency scale in the timed phase and the checks; set-up runs at 0
	direct     bool    // drive the controller in-process instead of over loopback
	clients    int     // closed-loop callers, each with its own connection and session

	bufBytes int // payload bytes per write buffer
	pages    int // LPIDs per client (batch), records (kv), live pages (churn)
	warmOps  int // untimed warm-up operations per client, after the fill
	fullOps  int // timed operations per client at -seconds fullSeconds
	readBack int // pages read back and checked after each timed phase; 0 checks every page after a crash
}

// eleosdCheckpointBytes is the auto-checkpoint threshold eleosd sets.
const eleosdCheckpointBytes = 16 << 20

func deviceGeo(eblocksPerChannel int) flash.Geometry {
	return flash.Geometry{Channels: 8, EBlocksPerChannel: eblocksPerChannel,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10}
}

// workloads are the four the issue names. batch_cpu and batch_device are
// one stream on either side of the CPU/device boundary; kv_mixed puts
// reads beside the smallest possible writes; churn_gc is the only one
// where garbage collection, checkpoints and recovery do real work.
var workloads = []params{
	{
		name: "batch_cpu", kind: kindBatch,
		why: "256 KB buffers of variable-size pages over loopback, flash wall latency off: CPU-bound, so client, netproto, server and core's claim/init/install set the numbers",
		geo: deviceGeo(64), ckptBytes: eleosdCheckpointBytes, clients: 2, bufBytes: 256 << 10,
		pages: 64 << 20 / 1956, warmOps: 2000, fullOps: 40000, readBack: 700,
	},
	{
		name: "batch_device", kind: kindBatch,
		why: "the identical stream with flash wall latency on: device-bound, so striping, padding, channel occupancy, WAL force and work under the controller lock set the numbers",
		geo: deviceGeo(64), ckptBytes: eleosdCheckpointBytes, clients: 2, bufBytes: 256 << 10, wallScale: 1,
		pages: 64 << 20 / 1956, warmOps: 1200, fullOps: 3000, readBack: 700,
	},
	{
		name: "kv_mixed", kind: kindKV,
		why: "YCSB-B over the wire, zipfian 0.99, working set 4x the read cache: cache hits at the median, flash loads in the tail, each update the smallest possible flush",
		geo: deviceGeo(64), ckptBytes: eleosdCheckpointBytes, clients: 2, bufBytes: 256 << 10, wallScale: 1, cacheBytes: 32 << 20,
		pages: 128 << 10, warmOps: 100000, fullOps: 120000,
	},
	{
		name: "churn_gc", kind: kindChurn,
		why: "in-process 1 MB buffers, 80/20 skew over a live set at 44 % of a 256 MB device, then crash and recover: gc, checkpoints and recovery do real work, and counts repeat exactly",
		geo: deviceGeo(32), ckptBytes: eleosdCheckpointBytes, direct: true, clients: 1, bufBytes: 1 << 20,
		pages: 60000, warmOps: 2560, fullOps: 9000,
	},
}

func workloadByName(name string) (params, bool) {
	for _, p := range workloads {
		if p.name == name {
			return p, true
		}
	}
	return params{}, false
}

// completion is one acknowledged operation, for the per-segment rates.
type completion struct {
	end   int64 // ns since the pass epoch
	bytes int64 // user payload bytes written
	ops   int64 // pages written or read
}

// worker is one closed-loop caller and everything it measures. Nothing in
// it is shared, so the timed loop takes no lock of the benchmark's own.
type worker struct {
	id   int
	pass *pass
	tgt  target
	rng  *rand.Rand
	rec  *recorder // nil when the pass is untraced

	cursor int          // batch: next page of the cyclic overwrite
	pages  []core.LPage // reused write buffer
	lpids  []addr.LPID  // reused read-batch keys
	wire   []byte       // traced passes: encode probe output
	views  []core.LPage // traced passes: decode probe output
	zipf   *zipfian     // kv: key picker
	kvOps  int          // kv: operations issued, to place the updates
	reads  int          // kv: reads issued, to place the batched ones

	flushNS, readNS, readBatchNS []int64
	done                         []completion
	genNS, verifyNS, readBytes   int64
	attempted, failed            int64
	firstErr                     error
}

func (w *worker) now() int64 { return int64(time.Since(w.pass.epoch)) }

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// resetSamples drops what set-up recorded, so the timed phase starts clean.
func (w *worker) resetSamples() {
	w.flushNS, w.readNS, w.readBatchNS, w.done = w.flushNS[:0], w.readNS[:0], w.readBatchNS[:0], w.done[:0]
	w.genNS, w.verifyNS, w.readBytes = 0, 0, 0
	if w.rec != nil {
		w.rec.Spans, w.rec.ops = w.rec.Spans[:0], 0
	}
}

// probeEvery spaces the traced passes' codec probes: each costs a copy and
// a CRC of the whole buffer, which on batch_cpu is a tenth of the flush.
const probeEvery = 4

// flush sends w.pages as one write buffer and records the call. genStart
// is when building the buffer began.
func (w *worker) flush(bytes int, genStart int64) bool {
	t0 := w.now()
	root := -1
	if w.rec != nil {
		root = w.rec.root(genStart)
		w.rec.child(root, kGen, genStart, t0, bytes, len(w.pages))
		if w.rec.ops%probeEvery == 0 {
			w.wire = core.AppendBatch(w.wire[:0], w.pages)
			t1 := w.now()
			w.rec.child(root, kEncode, t0, t1, bytes, len(w.pages))
			var err error
			if w.views, err = core.AppendBatchView(w.views[:0], w.wire); err != nil {
				w.fail(fmt.Errorf("decode probe: %w", err))
			}
			t0 = w.now()
			w.rec.child(root, kDecodeView, t1, t0, bytes, len(w.pages))
		}
	}
	err := w.tgt.flush(w.pages)
	t1 := w.now()
	w.attempted++
	w.genNS += t0 - genStart
	if err != nil {
		w.fail(fmt.Errorf("flush: %w", err))
		return false
	}
	w.flushNS = append(w.flushNS, t1-t0)
	w.done = append(w.done, completion{end: t1, bytes: int64(bytes), ops: int64(len(w.pages))})
	if root >= 0 {
		k, _, _ := w.tgt.spanKinds()
		w.rec.child(root, k, t0, t1, bytes, len(w.pages))
	}
	return true
}

// read fetches one page and checks it byte-exact against the model: the
// version acknowledged before the call, any acknowledged during it, or
// the one its single writer may have in flight.
func (w *worker) read(lpid addr.LPID, genStart int64) {
	ver := &w.pass.ver[lpid-1]
	lo := ver.Load()
	t0 := w.now()
	got, err := w.tgt.read(lpid)
	t1 := w.now()
	w.attempted++
	w.genNS += t0 - genStart
	if err != nil {
		w.fail(fmt.Errorf("read %d: %w", lpid, err))
		return
	}
	if !w.pass.matchesAny(got, lpid, lo, ver.Load()+1) {
		w.fail(fmt.Errorf("read %d: bytes match no version in [%d, %d]", lpid, lo, ver.Load()+1))
	}
	t2 := w.now()
	w.verifyNS += t2 - t1
	w.readBytes += int64(len(got))
	w.readNS = append(w.readNS, t1-t0)
	w.done = append(w.done, completion{end: t1, ops: 1})
	if w.rec != nil {
		_, k, _ := w.tgt.spanKinds()
		root := w.rec.root(genStart)
		w.rec.child(root, kGen, genStart, t0, 0, 1)
		w.rec.child(root, k, t0, t1, len(got), 1)
		w.rec.child(root, kVerify, t1, t2, len(got), 1)
	}
}

// readBatch is read for w.lpids in one round trip.
func (w *worker) readBatch(genStart int64) {
	lo := make([]uint32, len(w.lpids))
	for i, lpid := range w.lpids {
		lo[i] = w.pass.ver[lpid-1].Load()
	}
	t0 := w.now()
	got, err := w.tgt.readBatch(w.lpids)
	t1 := w.now()
	w.attempted += int64(len(w.lpids))
	w.genNS += t0 - genStart
	if err != nil || len(got) != len(w.lpids) {
		w.failed += int64(len(w.lpids)) - 1
		w.fail(fmt.Errorf("read batch: %d of %d pages: %v", len(got), len(w.lpids), err))
		return
	}
	bytes := 0
	for i, lpid := range w.lpids {
		bytes += len(got[i])
		if !w.pass.matchesAny(got[i], lpid, lo[i], w.pass.ver[lpid-1].Load()+1) {
			w.fail(fmt.Errorf("read batch: page %d matches no version", lpid))
		}
	}
	t2 := w.now()
	w.verifyNS += t2 - t1
	w.readBytes += int64(bytes)
	w.readBatchNS = append(w.readBatchNS, t1-t0)
	w.done = append(w.done, completion{end: t1, ops: int64(len(w.lpids))})
	if w.rec != nil {
		_, _, k := w.tgt.spanKinds()
		root := w.rec.root(genStart)
		w.rec.child(root, kGen, genStart, t0, 0, len(w.lpids))
		w.rec.child(root, k, t0, t1, bytes, len(w.lpids))
		w.rec.child(root, kVerify, t1, t2, bytes, len(w.lpids))
	}
}

// pass is one formatted stack driven through set-up, a timed phase and the
// output checks. A run makes several: see passes, and tracedRun.
type pass struct {
	params
	seed    int64
	st      *stack
	content *content
	epoch   time.Time
	workers []*worker
	// ver is the model: the last acknowledged version of every LPID
	// (index LPID-1), 0 for never written. A page has one writer, which
	// stores after the ack (kv) or when it builds the buffer (batch,
	// churn: nothing reads concurrently there).
	ver []atomic.Uint32
}

func newPass(p params, pool []byte, seed int64, direct, traced bool) (*pass, error) {
	st, err := newStack(p, direct || p.direct)
	if err != nil {
		return nil, err
	}
	length := pageLen
	if p.kind == kindKV {
		length = valueLen
	}
	lpids := p.pages
	if p.kind == kindBatch {
		lpids = p.pages * p.clients // each client overwrites a range of its own
	}
	ps := &pass{params: p, seed: seed, st: st, content: newContent(pool, seed, length),
		epoch: time.Now(), ver: make([]atomic.Uint32, lpids)}
	for i, tgt := range st.targets {
		w := &worker{id: i, pass: ps, tgt: tgt,
			rng: rand.New(rand.NewSource(streamSeed(seed, uint64(i))))}
		if p.kind == kindKV {
			w.zipf = newZipfian(uint64(p.pages), 0.99, w.rng)
		}
		if traced {
			w.rec = &recorder{Pass: "wire", Client: i}
			if direct || p.direct {
				w.rec.Pass = "in_process"
			}
		}
		ps.workers = append(ps.workers, w)
	}
	return ps, nil
}

func (ps *pass) matchesAny(got []byte, lpid addr.LPID, lo, hi uint32) bool {
	for v := hi; v >= lo && v > 0; v-- { // newest first: almost every read sees the latest
		if ps.content.matches(got, lpid, v) {
			return true
		}
	}
	return false
}

// each runs fn once per worker, concurrently, and waits for all of them.
func (ps *pass) each(fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range ps.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// firstErr reports the first failure any worker saw.
func (ps *pass) firstErr() error {
	for _, w := range ps.workers {
		if w.firstErr != nil {
			return fmt.Errorf("%s client %d: %w", ps.name, w.id, w.firstErr)
		}
	}
	return nil
}

// setup is everything before the timed phase: fill the store, then warm
// it up until it is in the state the timed phase measures. It runs with
// flash wall latency off, whatever the workload.
func (ps *pass) setup() error {
	ps.each(func(w *worker) {
		switch ps.kind {
		case kindKV: // each client loads the records it will later update
			w.fill(w.id, ps.pages, ps.clients)
		case kindChurn:
			w.fill(0, ps.pages, 1)
		}
	})
	// Warm-up reads any record, so it starts once every client has filled.
	ps.each(func(w *worker) {
		if ps.kind == kindKV {
			w.warmCache(ps.warmOps)
		} else {
			w.run(ps.warmOps)
		}
	})
	if err := ps.firstErr(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	for _, w := range ps.workers {
		w.resetSamples()
		w.attempted = 0
	}
	return nil
}

// fill writes version 1 of pages from, from+step, ... below n in full
// write buffers.
func (w *worker) fill(from, n, step int) {
	for i := from; i < n; {
		t0 := w.now()
		w.pages = w.pages[:0]
		bytes := 0
		for ; i < n; i += step {
			lpid := addr.LPID(i + 1)
			img := w.pass.content.page(lpid, 1)
			if bytes+len(img) > w.pass.bufBytes {
				break
			}
			w.pass.ver[i].Store(1)
			w.pages = append(w.pages, core.LPage{LPID: lpid, Data: img})
			bytes += len(img)
		}
		if !w.flush(bytes, t0) {
			return
		}
	}
}

// run issues n operations of the pass's kind (kv counts pages, the others
// write buffers) and stops early at the first failure: after one, the
// model no longer describes the store.
func (w *worker) run(n int) {
	for i := 0; i < n && w.failed == 0; {
		switch w.pass.kind {
		case kindBatch:
			w.batchOp()
			i++
		case kindChurn:
			w.churnOp()
			i++
		case kindKV:
			i += w.kvOp()
		}
	}
}

// batchOp overwrites the next pages of this client's range, as many as fit
// one write buffer, each with a freshly drawn size.
func (w *worker) batchOp() {
	ps := w.pass
	t0 := w.now()
	w.pages = w.pages[:0]
	bytes := 0
	for {
		i := w.id*ps.pages + w.cursor
		lpid := addr.LPID(i + 1)
		v := ps.ver[i].Load() + 1
		img := ps.content.page(lpid, v)
		if bytes+len(img) > ps.bufBytes {
			break
		}
		ps.ver[i].Store(v)
		w.pages = append(w.pages, core.LPage{LPID: lpid, Data: img})
		bytes += len(img)
		w.cursor = (w.cursor + 1) % ps.pages
	}
	w.flush(bytes, t0)
}

// churnOp fills one write buffer with overwrites picked 80/20. A page
// picked twice is written twice; the later image wins, as in the store.
func (w *worker) churnOp() {
	ps := w.pass
	pick := hotCold{rng: w.rng, n: ps.pages}
	t0 := w.now()
	w.pages = w.pages[:0]
	bytes := 0
	for {
		i := pick.next()
		lpid := addr.LPID(i + 1)
		v := ps.ver[i].Load() + 1
		img := ps.content.page(lpid, v)
		if bytes+len(img) > ps.bufBytes {
			break
		}
		ps.ver[i].Store(v)
		w.pages = append(w.pages, core.LPage{LPID: lpid, Data: img})
		bytes += len(img)
	}
	w.flush(bytes, t0)
}

const (
	kvUpdateEvery    = 20 // YCSB-B: one operation in twenty is an update
	kvReadBatchEvery = 16 // one read in sixteen is a ReadBatch ...
	kvReadBatchKeys  = 4  // ... of four keys
	kvWarmBatchKeys  = 32
)

// warmCache reads n keys of the timed mix's distribution in large batches:
// the read cache only fills through misses, and filling 32 MB one 1 KB
// miss at a time through single reads would dominate set-up.
func (w *worker) warmCache(n int) {
	for i := 0; i < n && w.failed == 0; i += kvWarmBatchKeys {
		t0 := w.now()
		w.lpids = w.lpids[:0]
		for len(w.lpids) < kvWarmBatchKeys {
			w.lpids = append(w.lpids, addr.LPID(w.zipf.next()+1))
		}
		w.readBatch(t0)
	}
}

// kvOp issues the next operation of the 95/5 mix and returns how many
// pages it touched. Updates are placed by count, not drawn, so every run
// of a length has the same number of them.
func (w *worker) kvOp() int {
	ps := w.pass
	t0 := w.now()
	w.kvOps++
	if w.kvOps%kvUpdateEvery == 0 {
		// This client writes only keys congruent to its id, so a key has
		// one writer and a reader can bound the versions it may see.
		k := int(w.zipf.next())
		k = k - k%ps.clients + w.id
		if k >= ps.pages {
			k -= ps.clients
		}
		lpid := addr.LPID(k + 1)
		v := ps.ver[k].Load() + 1
		img := ps.content.page(lpid, v)
		w.pages = append(w.pages[:0], core.LPage{LPID: lpid, Data: img})
		if w.flush(len(img), t0) {
			ps.ver[k].Store(v)
		}
		return 1
	}
	w.reads++
	if w.reads%kvReadBatchEvery == 0 {
		w.lpids = w.lpids[:0]
		for len(w.lpids) < kvReadBatchKeys {
			w.lpids = append(w.lpids, addr.LPID(w.zipf.next()+1))
		}
		w.readBatch(t0)
		return kvReadBatchKeys
	}
	w.read(addr.LPID(w.zipf.next()+1), t0)
	return 1
}
