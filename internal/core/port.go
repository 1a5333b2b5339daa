package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eleos/internal/flash"
)

// port is core's one way to the media (DESIGN.md §4.1, "The media port").
// busy counts admitted commands, not a read lock: a writer holds its batch
// while its force programs the log page.
type port struct {
	dev    *flash.Device
	mu     sync.Mutex // orders admissions against close
	closed atomic.Bool
	busy   sync.WaitGroup
}

// dead reports whether the port is closed, the controller's one crash state.
func (p *port) dead() bool { return p.closed.Load() }

// admit admits one command, which busy.Done ends, unless the port is closed.
func (p *port) admit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return ErrCrashed
	}
	p.busy.Add(1)
	return nil
}

// close refuses every later command; with wait it returns once every
// admitted one has completed.
func (p *port) close(wait bool) {
	p.mu.Lock()
	p.closed.Store(true)
	p.mu.Unlock()
	if wait {
		p.busy.Wait()
	}
}

func (p *port) readAll(reads []flash.Read) {
	if err := p.admit(); err != nil {
		for i := range reads {
			reads[i].RBlocks, reads[i].Err = 0, err
		}
		return
	}
	defer p.busy.Done()
	p.dev.ReadAll(reads)
}

// read returns the extent [off, off+n) of (ch, eb) in a new slice of
// exactly n bytes, checked before it is allocated, and its RBLOCK count.
func (p *port) read(ch, eb, off, n int) ([]byte, int, error) {
	if n <= 0 || off < 0 || n > p.dev.Geometry().EBlockBytes-off {
		return nil, 0, fmt.Errorf("%w: extent [%d,+%d)", flash.ErrOutOfRange, off, n)
	}
	r := [1]flash.Read{{Channel: ch, EBlock: eb, Seg: flash.ReadSeg{Off: off, Dst: make([]byte, n)}}}
	if p.readAll(r[:]); r[0].Err != nil {
		return nil, 0, r[0].Err
	}
	return r[0].Seg.Dst, r[0].RBlocks, nil
}

// submit queues ordered commands on the channels' FIFOs; the batch is in
// flight until wait returns.
func (p *port) submit(cmds []flash.BatchCmd) (*flash.Batch, error) {
	if err := p.admit(); err != nil {
		return nil, err
	}
	return p.dev.SubmitBatch(cmds), nil
}

func (p *port) wait(b *flash.Batch) flash.BatchResult {
	defer p.busy.Done()
	return b.Wait()
}

// erase erases the EBLOCKs as one batch and returns those that failed.
func (p *port) erase(ebs ...[2]int) ([][2]int, error) {
	cmds := make([]flash.BatchCmd, len(ebs))
	for i, k := range ebs {
		cmds[i] = flash.BatchCmd{Op: flash.OpErase, Channel: k[0], EBlock: k[1]}
	}
	b, err := p.submit(cmds)
	if err != nil {
		return nil, err
	}
	return p.wait(b).FailedEBlocks, nil
}

// program programs one WBLOCK past the FIFOs: log pages, checkpoint parts.
func (p *port) program(src flash.Source, ch, eb, wb int, data []byte) error {
	if err := p.admit(); err != nil {
		return err
	}
	defer p.busy.Done()
	return p.dev.Program(src, ch, eb, wb, data)
}

// The probes move nothing, so a closed port answers them.
func (p *port) nextProgramPosition(ch, eb int) (int, error) { return p.dev.NextProgramPosition(ch, eb) }
func (p *port) eraseCount(ch, eb int) (int, error)          { return p.dev.EraseCount(ch, eb) }
