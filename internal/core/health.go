package core

import (
	"eleos/internal/health"
	"eleos/internal/record"
	"eleos/internal/summary"
)

// DeviceHealth builds a point-in-time wear and space census of the
// EBLOCK array: state population, per-EBLOCK erase counts (from the
// media itself — the summary's mirror can lag across crashes), and the
// free/valid/dead byte split with the valid-utilization histogram that
// GC victim selection is optimizing over. Runs under c.mu so the census
// is a consistent cut against concurrent writes and GC.
func (c *Controller) DeviceHealth() health.DeviceHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deviceHealthLocked()
}

func (c *Controller) deviceHealthLocked() health.DeviceHealth {
	var h health.DeviceHealth
	ebBytes := int64(c.geo.EBlockBytes)
	wbBytes := int64(c.geo.WBlockBytes)
	h.EraseMin = -1
	for ch := 0; ch < c.geo.Channels; ch++ {
		for eb := 0; eb < c.geo.EBlocksPerChannel; eb++ {
			h.EBlocksTotal++
			ec, err := c.port.eraseCount(ch, eb)
			if err == nil {
				e := int64(ec)
				h.EraseTotal += e
				if h.EraseMin < 0 || e < h.EraseMin {
					h.EraseMin = e
				}
				if e > h.EraseMax {
					h.EraseMax = e
				}
				h.EraseHist[health.EraseBucket(e)]++
			}
			d, err := c.st.Desc(ch, eb)
			if err != nil {
				continue
			}
			if d.Stream == record.StreamLog && (d.State == summary.Open || d.State == summary.Used) {
				h.LogEBlocks++
			}
			switch d.State {
			case summary.Free:
				h.FreeEBlocks++
				h.FreeBytes += ebBytes
			case summary.Bad:
				h.BadEBlocks++
			case summary.Reserved:
				h.ReservedEBlocks++
			case summary.Open:
				h.OpenEBlocks++
				written := int64(d.DataWBlocks) * wbBytes
				if written > ebBytes {
					written = ebBytes
				}
				dead := int64(d.Avail)
				if dead > written {
					dead = written
				}
				h.DeadBytes += dead
				h.ValidBytes += written - dead
				h.FreeBytes += ebBytes - written
			case summary.Used:
				h.UsedEBlocks++
				dead := int64(d.Avail)
				if dead > ebBytes {
					dead = ebBytes
				}
				h.DeadBytes += dead
				valid := ebBytes - dead
				h.ValidBytes += valid
				h.UtilHist[health.UtilBucket(float64(valid)/float64(ebBytes))]++
			}
		}
	}
	if h.EraseMin < 0 {
		h.EraseMin = 0
	}
	return h
}
