package core

import (
	"fmt"
	"sync"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
)

// Micro-benchmarks of the controller itself (wall-clock cost of the
// simulation, complementing the virtual-time experiment benchmarks at the
// repository root).

func benchController(b *testing.B) *Controller {
	b.Helper()
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 64,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	cfg := DefaultConfig()
	cfg.AutoCheckpointLogBytes = 8 << 20 // keep truncation ahead of the log
	c, err := Format(dev, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkWriteBatchVP measures batched variable-size writes through the
// whole controller stack (provisioning, logging, media programs, install).
// The batch_cpu arm is bench/'s batch_cpu workload without the wire: two
// writers, each in its own session, flush 134 pages of 1 956 B (a 256 KB
// buffer) with flash latency off, so what they contend for is c.mu, and
// allocs/op is what one flush allocates.
func BenchmarkWriteBatchVP(b *testing.B) {
	for _, pages := range []int{16, 256} {
		b.Run(fmt.Sprintf("pages%d", pages), func(b *testing.B) {
			b.ReportAllocs()
			c := benchController(b)
			data := make([]byte, 1920)
			batch := make([]LPage, pages)
			// Steady state: a bounded working set is overwritten, so GC
			// has garbage to reclaim no matter how long the bench runs.
			const workingSet = 40_000
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j] = LPage{LPID: addr.LPID((i*pages+j)%workingSet + 1), Data: data}
				}
				if err := c.WriteBatch(0, 0, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(pages * len(data)))
		})
	}
	b.Run("batch_cpu", func(b *testing.B) {
		const writers, pages, size = 2, 134, 1956
		const perWriter = 64 << 20 / size / writers // bench/'s 64 MB working set
		b.ReportAllocs()
		c := benchController(b)
		data := make([]byte, size)
		sids := make([]uint64, writers)
		for w := range sids {
			var err error
			if sids[w], err = c.OpenSession(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w, n int) {
				defer wg.Done()
				batch := make([]LPage, pages)
				for i := 0; i < n; i++ {
					for j := range batch {
						batch[j] = LPage{LPID: addr.LPID(w*perWriter + (i*pages+j)%perWriter + 1), Data: data}
					}
					if err := c.WriteBatch(sids[w], uint64(i+1), batch); err != nil {
						b.Error(err)
						return
					}
				}
			}(w, (b.N+writers-1-w)/writers)
		}
		wg.Wait()
		b.SetBytes(pages * size)
	})
}

// BenchmarkReadLPID measures the read path (mapping lookup + RBLOCK
// transfer + extent extraction).
func BenchmarkReadLPID(b *testing.B) {
	c := benchController(b)
	data := make([]byte, 1920)
	var batch []LPage
	for j := 0; j < 256; j++ {
		batch = append(batch, LPage{LPID: addr.LPID(j + 1), Data: data})
	}
	if err := c.WriteBatch(0, 0, batch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(addr.LPID(i%256 + 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(data)))
}

// BenchmarkCheckpoint measures a fuzzy checkpoint after a burst of writes.
func BenchmarkCheckpoint(b *testing.B) {
	c := benchController(b)
	data := make([]byte, 1024)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 64; j++ {
			if err := c.WriteBatch(0, 0, []LPage{{LPID: addr.LPID(j + 1), Data: data}}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := c.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures Open() against a device with a realistic mix
// of checkpointed state and log tail.
func BenchmarkRecovery(b *testing.B) {
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 64,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.Latency{})
	cfg := DefaultConfig()
	c, err := Format(dev, cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1500)
	for j := 0; j < 200; j++ {
		if err := c.WriteBatch(0, 0, []LPage{{LPID: addr.LPID(j%40 + 1), Data: data}}); err != nil {
			b.Fatal(err)
		}
		if j == 100 {
			if err := c.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}
	c.Crash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dev, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentSessions measures wall-clock write throughput as the
// writer count grows. The device emulates NAND channel occupancy in real
// time (SetWallLatencyScale), so the numbers show what the pipelined write
// path buys: per-channel workers overlap programs across channels and
// concurrent committers share forced log pages (group commit), where a
// single writer leaves every channel idle during its commit force.
func BenchmarkConcurrentSessions(b *testing.B) {
	const (
		pagesPerBatch = 4 // stripes over a subset of channels, so batches overlap
		pageBytes     = 1920
		workingSet    = 2000
	)
	for _, writers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("writers%d", writers), func(b *testing.B) {
			geo := flash.Geometry{
				Channels: 8, EBlocksPerChannel: 64,
				EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
			}
			dev := flash.MustNewDevice(geo, flash.TypicalNANDLatency())
			dev.SetWallLatencyScale(1)
			cfg := DefaultConfig()
			cfg.AutoCheckpointLogBytes = 16 << 20
			c, err := Format(dev, cfg)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, pageBytes)
			sids := make([]uint64, writers)
			for w := range sids {
				if sids[w], err = c.OpenSession(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				n := b.N / writers
				if w < b.N%writers {
					n++
				}
				wg.Add(1)
				go func(w, n int) {
					defer wg.Done()
					base := uint64(w+1) * 1_000_000
					batch := make([]LPage, pagesPerBatch)
					for i := 0; i < n; i++ {
						for j := range batch {
							lpid := base + uint64((i*pagesPerBatch+j)%workingSet)
							batch[j] = LPage{LPID: addr.LPID(lpid), Data: data}
						}
						if err := c.WriteBatch(sids[w], uint64(i+1), batch); err != nil {
							b.Error(err)
							return
						}
					}
				}(w, n)
			}
			wg.Wait()
			b.SetBytes(int64(pagesPerBatch * pageBytes))
		})
	}
}
