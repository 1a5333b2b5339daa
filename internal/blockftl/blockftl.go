// Package blockftl implements "OX-Block": a conventional block-at-a-time
// page-mapped FTL, the paper's baseline interface (§II-B, §IX).
//
// The host reads and writes fixed-size logical blocks (4 KB by default),
// one command per block. Internally the FTL is still log structured — it
// must be, because of NAND's erase-before-write semantics — with a dense
// LBA→physical mapping held in controller DRAM, per-channel write points,
// controller-RAM staging of partial WBLOCKs (a 4 KB block is smaller than
// the 32 KB smallest writable unit), and greedy garbage collection.
//
// This package models the data path and media traffic of a conventional
// SSD; host-visible transport costs (one command and one write context per
// block — the asymmetry the paper measures) are charged by the caller via
// the nvme meter.
package blockftl

import (
	"errors"
	"fmt"
	"sync"

	"eleos/internal/flash"
)

// Errors.
var (
	ErrBadLBA     = errors.New("blockftl: LBA out of range")
	ErrBadSize    = errors.New("blockftl: data exceeds block size")
	ErrNotWritten = errors.New("blockftl: LBA never written")
	ErrDeviceFull = errors.New("blockftl: no free eblocks")
)

// Stats counts FTL activity.
type Stats struct {
	HostWrites   int64 // blocks written by the host
	HostReads    int64
	GCMoves      int64 // blocks relocated by GC
	Erases       int64
	WBlocksFlush int64 // wblocks programmed
}

type slotAddr struct {
	ch, eb, slot int // slot = block index within the eblock
}

var noSlot = slotAddr{-1, -1, -1}

type eblockState struct {
	state int     // 0 free, 1 open, 2 used
	valid int     // live blocks
	lbas  []int32 // per-slot owning LBA (-1 = none); the FTL's in-DRAM OOB
}

const (
	stFree = iota
	stOpen
	stUsed
)

type channelState struct {
	eblocks  []eblockState
	openEB   int // -1 none
	nextSlot int
	staged   []byte // partial wblock staged in controller RAM
	stagedN  int    // blocks staged
}

// FTL is the block-interface translation layer. Safe for concurrent use.
type FTL struct {
	mu         sync.Mutex
	dev        *flash.Device
	geo        flash.Geometry
	blockBytes int
	blocksPerW int
	blocksPerE int

	mapping  []slotAddr
	chans    []channelState
	rotate   int
	gcThresh float64 // free fraction below which GC runs

	stats Stats
}

// New creates a block FTL over the device exposing `lbas` logical blocks of
// blockBytes each. gcFreeFraction triggers greedy GC (e.g. 0.1).
func New(dev *flash.Device, blockBytes, lbas int, gcFreeFraction float64) (*FTL, error) {
	geo := dev.Geometry()
	if blockBytes <= 0 || geo.WBlockBytes%blockBytes != 0 {
		return nil, fmt.Errorf("blockftl: block size %d must divide wblock size %d", blockBytes, geo.WBlockBytes)
	}
	if lbas <= 0 {
		return nil, errors.New("blockftl: need at least one LBA")
	}
	logical := int64(lbas) * int64(blockBytes)
	if logical > geo.CapacityBytes() {
		return nil, fmt.Errorf("blockftl: %d LBAs exceed device capacity", lbas)
	}
	f := &FTL{
		dev:        dev,
		geo:        geo,
		blockBytes: blockBytes,
		blocksPerW: geo.WBlockBytes / blockBytes,
		blocksPerE: geo.EBlockBytes / blockBytes,
		mapping:    make([]slotAddr, lbas),
		chans:      make([]channelState, geo.Channels),
		gcThresh:   gcFreeFraction,
	}
	for i := range f.mapping {
		f.mapping[i] = noSlot
	}
	for ch := range f.chans {
		f.chans[ch].eblocks = make([]eblockState, geo.EBlocksPerChannel)
		f.chans[ch].openEB = -1
		f.chans[ch].staged = make([]byte, geo.WBlockBytes)
	}
	return f, nil
}

// BlockBytes returns the logical block size.
func (f *FTL) BlockBytes() int { return f.blockBytes }

// LBAs returns the logical capacity in blocks.
func (f *FTL) LBAs() int { return len(f.mapping) }

// Stats returns a snapshot of the counters.
func (f *FTL) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// WriteBlock writes one logical block (block-at-a-time interface). Short
// data is zero-padded to the block size.
func (f *FTL) WriteBlock(lba int, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if lba < 0 || lba >= len(f.mapping) {
		return fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	if len(data) > f.blockBytes {
		return fmt.Errorf("%w: %d > %d", ErrBadSize, len(data), f.blockBytes)
	}
	if err := f.writeInternalLocked(lba, data); err != nil {
		return err
	}
	f.stats.HostWrites++
	f.maybeGCLocked()
	return nil
}

func (f *FTL) writeInternalLocked(lba int, data []byte) error {
	ch := f.rotate
	f.rotate = (f.rotate + 1) % f.geo.Channels
	// Find a channel with space, starting at the rotation point.
	for i := 0; i < f.geo.Channels; i++ {
		if f.ensureOpenLocked((ch+i)%f.geo.Channels) == nil {
			ch = (ch + i) % f.geo.Channels
			break
		}
		if i == f.geo.Channels-1 {
			return ErrDeviceFull
		}
	}
	cs := &f.chans[ch]
	eb := cs.openEB
	slot := cs.nextSlot
	// Stage into the partial wblock buffer.
	off := (slot % f.blocksPerW) * f.blockBytes
	copy(cs.staged[off:off+f.blockBytes], data)
	for i := len(data); i < f.blockBytes; i++ {
		cs.staged[off+i] = 0
	}
	cs.stagedN++
	// Invalidate the previous version.
	if old := f.mapping[lba]; old != noSlot {
		es := &f.chans[old.ch].eblocks[old.eb]
		es.valid--
		es.lbas[old.slot] = -1
	}
	f.mapping[lba] = slotAddr{ch, eb, slot}
	es := &f.chans[ch].eblocks[eb]
	es.valid++
	es.lbas[slot] = int32(lba)
	cs.nextSlot++
	// Program when the wblock fills.
	if cs.stagedN == f.blocksPerW {
		wb := (slot / f.blocksPerW)
		if err := f.dev.Program(flash.SrcUser, ch, eb, wb, cs.staged); err != nil {
			return err
		}
		f.stats.WBlocksFlush++
		cs.stagedN = 0
	}
	// Retire the eblock when full.
	if cs.nextSlot == f.blocksPerE {
		es.state = stUsed
		cs.openEB = -1
		cs.nextSlot = 0
	}
	return nil
}

func (f *FTL) ensureOpenLocked(ch int) error {
	cs := &f.chans[ch]
	if cs.openEB >= 0 {
		return nil
	}
	for eb := range cs.eblocks {
		if cs.eblocks[eb].state == stFree {
			cs.eblocks[eb] = eblockState{state: stOpen, lbas: newLBAs(f.blocksPerE)}
			cs.openEB = eb
			cs.nextSlot = 0
			cs.stagedN = 0
			return nil
		}
	}
	return ErrDeviceFull
}

func newLBAs(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// WriteRange writes len(data)/BlockBytes consecutive logical blocks
// starting at lba with a single host command (the transport still splits
// it into packets). The FTL remaps each block individually, exactly as for
// single-block writes.
func (f *FTL) WriteRange(lba int, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(data) == 0 || len(data)%f.blockBytes != 0 {
		return fmt.Errorf("%w: range length %d", ErrBadSize, len(data))
	}
	n := len(data) / f.blockBytes
	if lba < 0 || lba+n > len(f.mapping) {
		return fmt.Errorf("%w: range [%d,%d)", ErrBadLBA, lba, lba+n)
	}
	for i := 0; i < n; i++ {
		if err := f.writeInternalLocked(lba+i, data[i*f.blockBytes:(i+1)*f.blockBytes]); err != nil {
			return err
		}
		f.stats.HostWrites++
	}
	f.maybeGCLocked()
	return nil
}

// ReadBlock returns one logical block.
func (f *FTL) ReadBlock(lba int) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if lba < 0 || lba >= len(f.mapping) {
		return nil, fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	a := f.mapping[lba]
	if a == noSlot {
		return nil, fmt.Errorf("%w: %d", ErrNotWritten, lba)
	}
	f.stats.HostReads++
	return f.readSlotLocked(a)
}

func (f *FTL) readSlotLocked(a slotAddr) ([]byte, error) {
	cs := &f.chans[a.ch]
	// Blocks still staged in controller RAM are served from there.
	if a.eb == cs.openEB {
		wb := a.slot / f.blocksPerW
		stagedWB := cs.nextSlot / f.blocksPerW
		if wb == stagedWB && cs.stagedN > 0 {
			off := (a.slot % f.blocksPerW) * f.blockBytes
			out := make([]byte, f.blockBytes)
			copy(out, cs.staged[off:off+f.blockBytes])
			return out, nil
		}
	}
	r := [1]flash.Read{{Channel: a.ch, EBlock: a.eb, Seg: flash.ReadSeg{Off: a.slot * f.blockBytes, Dst: make([]byte, f.blockBytes)}}}
	f.dev.ReadAll(r[:])
	if r[0].Err != nil {
		return nil, r[0].Err
	}
	return r[0].Seg.Dst, nil
}

// FreeFraction returns the fraction of a channel's eblocks that are free.
func (f *FTL) FreeFraction(ch int) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.freeFractionLocked(ch)
}

func (f *FTL) freeFractionLocked(ch int) float64 {
	n := 0
	for eb := range f.chans[ch].eblocks {
		if f.chans[ch].eblocks[eb].state == stFree {
			n++
		}
	}
	return float64(n) / float64(f.geo.EBlocksPerChannel)
}

func (f *FTL) maybeGCLocked() {
	for ch := 0; ch < f.geo.Channels; ch++ {
		for f.freeFractionLocked(ch) < f.gcThresh {
			if !f.gcOnceLocked(ch) {
				break
			}
		}
	}
}

// GCNow forces one GC round on a channel (benchmarks).
func (f *FTL) GCNow(ch int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gcOnceLocked(ch)
}

// gcOnceLocked collects the used eblock with the fewest valid blocks
// (greedy). Returns false if nothing was collectable.
func (f *FTL) gcOnceLocked(ch int) bool {
	cs := &f.chans[ch]
	victim, victimValid := -1, 1<<31
	for eb := range cs.eblocks {
		es := &cs.eblocks[eb]
		if es.state == stUsed && es.valid < victimValid {
			victim, victimValid = eb, es.valid
		}
	}
	if victim < 0 {
		return false
	}
	es := &cs.eblocks[victim]
	// Move valid blocks through the normal write path.
	for slot, lba := range es.lbas {
		if lba < 0 {
			continue
		}
		if f.mapping[lba] != (slotAddr{ch, victim, slot}) {
			continue
		}
		data, err := f.readSlotLocked(slotAddr{ch, victim, slot})
		if err != nil {
			return false
		}
		if err := f.writeInternalLocked(int(lba), data); err != nil {
			return false
		}
		f.stats.GCMoves++
	}
	erase := []flash.BatchCmd{{Op: flash.OpErase, Channel: ch, EBlock: victim}}
	if len(f.dev.SubmitBatch(erase).Wait().FailedEBlocks) > 0 {
		return false
	}
	cs.eblocks[victim] = eblockState{state: stFree}
	f.stats.Erases++
	return true
}
