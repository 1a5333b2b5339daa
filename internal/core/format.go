package core

import (
	"fmt"

	"eleos/internal/flash"
	"eleos/internal/wal"
)

// Format initialises a fresh device: reserves the checkpoint area, starts
// the log, and writes the initial checkpoint so Open can always recover.
func Format(dev *flash.Device, cfg Config) (*Controller, error) {
	c, err := newController(dev, cfg)
	if err != nil {
		return nil, err
	}
	if failed, _ := c.port.erase([2]int{ckptChannel, ckptEBlockA}, [2]int{ckptChannel, ckptEBlockB}); len(failed) > 0 { // a new port is open
		return nil, fmt.Errorf("%w: checkpoint area %v", flash.ErrEraseFailed, failed)
	}
	if err := c.st.Reserve(ckptChannel, ckptEBlockA); err != nil {
		return nil, err
	}
	if err := c.st.Reserve(ckptChannel, ckptEBlockB); err != nil {
		return nil, err
	}
	c.log, err = wal.New(logSink{c}, c.geo.WBlockBytes, wal.WithRegistry(c.reg), wal.WithTracer(c.trc))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkpointLocked(); err != nil {
		return nil, err
	}
	return c, nil
}
