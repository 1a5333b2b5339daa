// Package harness builds and runs the paper's experiments (§IX): the
// TPC-C trace replay behind Fig. 9 and Table II, the Bw-tree YCSB runs
// behind Fig. 10(a)–(c), and the Fig. 1 cost model. The same runners back
// cmd/benchrunner and the repository's testing.B benchmarks.
package harness

import (
	"errors"
	"fmt"
	"time"

	"eleos/internal/addr"
	"eleos/internal/blockftl"
	"eleos/internal/bwtree"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/lsstore"
	"eleos/internal/nvme"
	"eleos/internal/tpcc"
	"eleos/internal/ycsb"
)

// Interface selects the storage interface under test.
type Interface int

const (
	// Block: block-at-a-time over a conventional FTL.
	Block Interface = iota
	// BatchFP: the batched interface with fixed 4 KB pages (prior work).
	BatchFP
	// BatchVP: ELEOS — batched writes of variable-size pages.
	BatchVP
)

func (i Interface) String() string {
	switch i {
	case Block:
		return "Block"
	case BatchFP:
		return "Batch(FP)"
	case BatchVP:
		return "Batch(VP)"
	default:
		return fmt.Sprintf("iface(%d)", int(i))
	}
}

// Interfaces lists all three in presentation order.
var Interfaces = []Interface{Block, BatchFP, BatchVP}

// benchGeometry builds a device geometry of roughly capacity bytes with
// paper-style block sizes scaled for laptop-size experiments. Small
// capacities get smaller EBLOCKs so every channel still holds enough
// EBLOCKs for the open streams (user, GC buckets, log) plus a healthy
// used population for GC to work over.
func benchGeometry(capacity int64) flash.Geometry {
	g := flash.Geometry{
		Channels:    8,
		EBlockBytes: 1 << 20, // 1 MB EBLOCKs (scaled from the paper's 8 MB)
		WBlockBytes: 32 << 10,
		RBlockBytes: 4 << 10,
	}
	if capacity < 256<<20 {
		g.EBlockBytes = 256 << 10
	}
	per := capacity / int64(g.Channels) / int64(g.EBlockBytes)
	if per < 24 {
		per = 24
	}
	g.EBlocksPerChannel = int(per)
	return g
}

// --- TPC-C replay (Fig. 9, Table II) ---------------------------------------

// ReplayResult is one interface's measurement for one buffer size.
type ReplayResult struct {
	Interface   Interface
	BufferBytes int
	Pages       int
	BytesToSSD  int64
	Elapsed     time.Duration
	PagesPerSec float64
	MBPerSec    float64
	Bottleneck  string
}

// ReplayOptions configures a TPC-C trace replay.
type ReplayOptions struct {
	Trace       *tpcc.Trace
	Interface   Interface
	BufferBytes int // batch write-buffer size (ignored for Block)
	Profile     nvme.CostProfile
	Latency     flash.Latency
	Capacity    int64 // device capacity; 0 = auto
}

// ReplayTPCC replays the trace's page writes through one interface and
// measures virtual write throughput.
func ReplayTPCC(o ReplayOptions) (*ReplayResult, error) {
	if o.Trace == nil || len(o.Trace.Writes) == 0 {
		return nil, errors.New("harness: empty trace")
	}
	if o.Capacity == 0 {
		o.Capacity = 8 * o.Trace.TotalBytes()
		if min := int64(256 << 20); o.Capacity < min {
			o.Capacity = min
		}
	}
	geo := benchGeometry(o.Capacity)
	dev, err := flash.NewDevice(geo, o.Latency)
	if err != nil {
		return nil, err
	}
	meter := nvme.NewMeter(o.Profile)
	res := &ReplayResult{Interface: o.Interface, BufferBytes: o.BufferBytes, Pages: len(o.Trace.Writes)}
	payload := make([]byte, o.Trace.PageBytes)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	switch o.Interface {
	case Block:
		// A conventional engine writes each page to its fixed 4 KB home
		// block — compression cannot shrink the I/O below a block.
		maxPID := uint64(0)
		for _, w := range o.Trace.Writes {
			if w.PID > maxPID {
				maxPID = w.PID
			}
		}
		ftl, err := blockftl.New(dev, o.Trace.PageBytes, int(maxPID)+1, 0.1)
		if err != nil {
			return nil, err
		}
		for _, w := range o.Trace.Writes {
			if err := ftl.WriteBlock(int(w.PID), payload[:min(w.Size, o.Trace.PageBytes)]); err != nil {
				return nil, err
			}
			meter.WriteCommand(o.Trace.PageBytes, 1, 1)
			res.BytesToSSD += int64(o.Trace.PageBytes)
		}
	case BatchFP, BatchVP:
		cfg := core.DefaultConfig()
		cfg.AutoCheckpointLogBytes = 8 << 20
		ctl, err := core.Format(dev, cfg)
		if err != nil {
			return nil, err
		}
		var batch []core.LPage
		batchBytes := 0
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			if err := ctl.WriteBatch(0, 0, batch); err != nil {
				return err
			}
			meter.WriteCommand(batchBytes, len(batch), 1)
			res.BytesToSSD += int64(batchBytes)
			batch = nil
			batchBytes = 0
			return nil
		}
		for _, w := range o.Trace.Writes {
			size := w.Size
			if o.Interface == BatchFP {
				size = o.Trace.PageBytes // fixed pages: pad to 4 KB
			}
			if size > o.Trace.PageBytes {
				size = o.Trace.PageBytes
			}
			batch = append(batch, core.LPage{LPID: addr.LPID(w.PID + 1), Data: payload[:size]})
			batchBytes += addr.AlignUp(size)
			if batchBytes >= o.BufferBytes {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
		if err := flush(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("harness: unknown interface %d", o.Interface)
	}

	res.Elapsed = meter.Elapsed(dev.MediaTime())
	if res.Elapsed > 0 {
		secs := res.Elapsed.Seconds()
		res.PagesPerSec = float64(res.Pages) / secs
		res.MBPerSec = float64(res.BytesToSSD) / secs / (1 << 20)
	}
	res.Bottleneck = meter.Bottleneck(dev.MediaTime())
	return res, nil
}

// --- Bw-tree YCSB (Fig. 10) --------------------------------------------------

// YCSBOptions configures one Bw-tree run.
type YCSBOptions struct {
	Interface  Interface
	Records    uint64
	Ops        int
	ValueBytes int
	CachePct   int // buffer cache as % of dataset size
	Profile    nvme.CostProfile
	Latency    flash.Latency
	// GCEnabled enables garbage collection with the paper's capacity
	// pressure (§IX-C2): logical space 10x the dataset, 30% SSD
	// over-provisioning, GC at 90% full. When false, capacity is ample
	// and GC/checkpointing stay quiet (§IX-C1's "non-durable setup").
	GCEnabled bool
	// ReadHeavy runs the 95%-read mix the paper omitted (footnote 2).
	ReadHeavy bool
	// HostDurability makes the Block configuration checkpoint its host
	// mapping table into the log (extension experiment; no effect on the
	// batch interfaces, whose mapping is durable inside the controller).
	HostDurability bool
	Seed           int64
}

// YCSBResult is one run's measurement.
type YCSBResult struct {
	Interface    Interface
	CachePct     int
	Ops          int
	Elapsed      time.Duration
	OpsPerSec    float64
	BytesWritten int64 // bytes shipped to the SSD during the run (Fig. 10(b))
	Bottleneck   string
	CacheMisses  int64
	GCWork       int64 // pages moved by whichever GC ran
}

// datasetBytes estimates the dataset footprint.
func datasetBytes(records uint64, valueBytes int) int64 {
	return int64(records) * int64(valueBytes+12)
}

// RunYCSB loads the dataset, then runs the op mix and measures virtual
// throughput of the run phase only (the paper reinitialises the index
// before each run).
func RunYCSB(o YCSBOptions) (*YCSBResult, error) {
	if o.Records == 0 || o.Ops <= 0 || o.CachePct <= 0 {
		return nil, errors.New("harness: bad YCSB options")
	}
	if o.ValueBytes == 0 {
		o.ValueBytes = 100
	}
	dataset := datasetBytes(o.Records, o.ValueBytes)
	logical := dataset * 10 // paper: capacity limited to 10x dataset
	capacity := logical + logical*3/10
	if !o.GCEnabled {
		capacity = dataset * 64 // ample: GC pressure never builds
		logical = dataset * 48
	}
	geo := benchGeometry(capacity)
	dev, err := flash.NewDevice(geo, o.Latency)
	if err != nil {
		return nil, err
	}
	meter := nvme.NewMeter(o.Profile)

	var store bwtree.PageStore
	var ctl *core.Controller
	var ls *lsstore.Store
	switch o.Interface {
	case BatchVP, BatchFP:
		cfg := core.DefaultConfig()
		if o.GCEnabled {
			cfg.GCFreeFraction = 0.10 // GC at 90% full (§IX-C2)
			cfg.AutoCheckpointLogBytes = 4 << 20
		} else {
			cfg.GCFreeFraction = 0.02
			cfg.AutoCheckpointLogBytes = 32 << 20
		}
		ctl, err = core.Format(dev, cfg)
		if err != nil {
			return nil, err
		}
		s := &bwtree.EleosStore{C: ctl, Meter: meter}
		if o.Interface == BatchFP {
			s.FixedPageBytes = 4096
		}
		store = s
	case Block:
		lbas := int(logical / 4096)
		ftl, err := blockftl.New(dev, 4096, lbas, 0.10)
		if err != nil {
			return nil, err
		}
		lsCfg := lsstore.DefaultConfig()
		if !o.GCEnabled {
			lsCfg.GCFreeFraction = 0.02
		}
		if o.HostDurability {
			lsCfg.PersistMappingEvery = 8
		}
		ls, err = lsstore.New(ftl, meter, lsCfg)
		if err != nil {
			return nil, err
		}
		store = &bwtree.BlockStore{LS: ls}
	default:
		return nil, fmt.Errorf("harness: unknown interface %d", o.Interface)
	}

	treeCfg := bwtree.Config{
		MaxPageBytes:     4096,
		WriteBufferBytes: 1 << 20, // the paper's 1 MB flush buffer
		CacheBytes:       dataset * int64(o.CachePct) / 100,
	}
	if treeCfg.CacheBytes < 64<<10 {
		treeCfg.CacheBytes = 64 << 10
	}
	tree, err := bwtree.New(store, treeCfg)
	if err != nil {
		return nil, err
	}

	wl, err := ycsb.NewWorkload(ycsb.Config{
		Records: o.Records, ValueBytes: o.ValueBytes, Theta: 0.99, UpdateEvery: 19,
		ReadHeavy: o.ReadHeavy, Seed: o.Seed + 7,
	})
	if err != nil {
		return nil, err
	}

	// Load phase (excluded from measurement).
	for k := uint64(0); k < o.Records; k++ {
		if err := tree.Set(k, wl.Value(k, 0)); err != nil {
			return nil, fmt.Errorf("harness: load key %d: %w", k, err)
		}
	}
	if err := tree.FlushAll(); err != nil {
		return nil, err
	}
	meter.Reset()
	dev.ResetTime()
	bytesBefore := store.BytesWritten()
	missesBefore := tree.Stats().CacheMisses

	// Run phase.
	version := uint64(1)
	for i := 0; i < o.Ops; i++ {
		op := wl.Next()
		if op.Kind == ycsb.OpUpdate {
			version++
			if err := tree.Set(op.Key, wl.Value(op.Key, version)); err != nil {
				return nil, fmt.Errorf("harness: op %d: %w", i, err)
			}
		} else {
			if _, err := tree.Get(op.Key); err != nil {
				return nil, fmt.Errorf("harness: op %d read: %w", i, err)
			}
		}
	}
	if err := tree.FlushAll(); err != nil {
		return nil, err
	}
	if ctl != nil {
		// In-SSD GC consumes controller CPU (staging the moved bytes and
		// re-parsing pages) in addition to the flash ops already charged
		// to media time.
		st := ctl.Stats()
		meter.CtrlCompute(time.Duration(st.GCBytesMoved)*o.Profile.CtrlPerByte +
			time.Duration(st.GCPagesMoved)*o.Profile.CtrlPerPage)
	}

	res := &YCSBResult{
		Interface:    o.Interface,
		CachePct:     o.CachePct,
		Ops:          o.Ops,
		Elapsed:      meter.Elapsed(dev.MediaTime()),
		BytesWritten: store.BytesWritten() - bytesBefore,
		Bottleneck:   meter.Bottleneck(dev.MediaTime()),
		CacheMisses:  tree.Stats().CacheMisses - missesBefore,
	}
	if res.Elapsed > 0 {
		res.OpsPerSec = float64(o.Ops) / res.Elapsed.Seconds()
	}
	if ctl != nil {
		res.GCWork = ctl.Stats().GCPagesMoved
	}
	if ls != nil {
		res.GCWork = ls.Stats().PagesMoved
	}
	return res, nil
}

// CollectDefaultTrace builds the TPC-C trace used by Fig. 9 / Table II
// benchmarks at the given transaction count.
func CollectDefaultTrace(txns int) (*tpcc.Trace, error) {
	cfg := tpcc.DefaultConfig()
	return tpcc.Collect(tpcc.CollectOptions{Config: cfg, Transactions: txns})
}
