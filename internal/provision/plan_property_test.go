package provision

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
)

// TestPlanGeometryPropertyQuick checks, for random batches over a long-run
// provisioner, the invariants every plan must satisfy:
//
//  1. placed LPAGE extents never overlap within an EBLOCK (across the
//     whole history of plans);
//  2. every byte of every placed page is covered by exactly the data IO
//     whose buffer range maps it to the right flash offset;
//  3. summary metadata gains one entry per placed page, in plan order;
//  4. placements within an EBLOCK have strictly increasing offsets over
//     time (the monotonicity GC's validity scan relies on, §VI-C).
func TestPlanGeometryPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geo := flash.SmallGeometry()
		st, err := summary.New(geo)
		if err != nil {
			return false
		}
		p, err := New(geo, st)
		if err != nil {
			return false
		}
		seq := uint64(0)
		clock := func() uint64 { seq++; return seq }

		type extent struct{ lo, hi int }
		placed := map[[2]int][]extent{} // (ch,eb) -> extents
		lastOff := map[[2]int]int{}     // monotonicity per eblock
		freed := map[[2]int]bool{}

		for round := 0; round < 30; round++ {
			n := 1 + rng.Intn(12)
			sizes := make([]int, n)
			for i := range sizes {
				sizes[i] = 64 * (1 + rng.Intn(64)) // 64 B .. 4 KB
			}
			pages := contiguousPages(sizes...)
			var plan *Plan
			if rng.Intn(3) == 0 {
				plan, err = p.ProvisionGC(rng.Intn(geo.Channels), pages, uint64(rng.Intn(1000)), clock, record.LSN(round+1))
			} else {
				plan, err = p.ProvisionBatch(pages, clock, record.LSN(round+1))
			}
			if err != nil {
				// Out of space is legal at this scale; treat the run as
				// finished rather than failed.
				return true
			}
			if len(plan.Pages) != n {
				t.Logf("placed %d of %d", len(plan.Pages), n)
				return false
			}
			// (1) + (4): record extents, check overlaps and monotonicity.
			for _, pg := range plan.Pages {
				key := [2]int{pg.Addr.Channel(), pg.Addr.EBlock()}
				if freed[key] {
					t.Logf("placement into freed eblock %v", key)
					return false
				}
				e := extent{lo: pg.Addr.Offset(), hi: pg.Addr.End()}
				for _, prev := range placed[key] {
					if e.lo < prev.hi && prev.lo < e.hi {
						t.Logf("overlap in %v: %+v vs %+v", key, e, prev)
						return false
					}
				}
				if last, ok := lastOff[key]; ok && e.lo <= last {
					t.Logf("non-monotonic placement in %v: %d after %d", key, e.lo, last)
					return false
				}
				lastOff[key] = e.lo
				placed[key] = append(placed[key], e)
			}
			// (2): byte-exact buffer->flash mapping via data IOs.
			type ioKey struct{ ch, eb, wb int }
			ios := map[ioKey]IO{}
			for _, io := range plan.IOs {
				if io.Inline == nil {
					ios[ioKey{io.Channel, io.EBlock, io.WBlock}] = io
				}
			}
			w := geo.WBlockBytes
			for _, pg := range plan.Pages {
				for i := 0; i < pg.Addr.Length(); i += 64 {
					flashOff := pg.Addr.Offset() + i
					io, ok := ios[ioKey{pg.Addr.Channel(), pg.Addr.EBlock(), flashOff / w}]
					if !ok {
						t.Logf("no IO covers %v+%d", pg.Addr, i)
						return false
					}
					bufPos := io.BufLo + (flashOff - io.WBlock*w)
					if bufPos != pg.BufOff+i {
						t.Logf("byte mapping wrong: flash %d maps buf %d, want %d", flashOff, bufPos, pg.BufOff+i)
						return false
					}
					if bufPos >= io.BufHi {
						t.Logf("byte beyond IO range")
						return false
					}
				}
			}
			// (3): summary metadata for still-open eblocks includes the
			// plan's pages in order (closed eblocks drop theirs).
			for _, pg := range plan.Pages {
				d, err := st.Desc(pg.Addr.Channel(), pg.Addr.EBlock())
				if err != nil {
					return false
				}
				if d.State != summary.Open {
					continue
				}
				meta := st.Meta(pg.Addr.Channel(), pg.Addr.EBlock())
				found := false
				for _, m := range meta {
					if m.LPID == pg.LPID && m.Offset == pg.Addr.Offset() && m.Length == pg.Addr.Length() {
						found = true
						break
					}
				}
				if !found {
					t.Logf("placement missing from metadata: %+v", pg)
					return false
				}
			}
			// Occasionally free a used eblock to recycle space (keeps the
			// run going and exercises reuse).
			if round%7 == 6 {
				for ch := 0; ch < geo.Channels; ch++ {
					used := st.UsedEBlocks(ch)
					sort.Ints(used)
					for _, eb := range used {
						d, _ := st.Desc(ch, eb)
						if d.Stream == record.StreamLog {
							continue
						}
						if err := st.FreeEBlock(ch, eb, record.LSN(round+1)); err == nil {
							key := [2]int{ch, eb}
							freed[key] = true
							delete(placed, key)
							delete(lastOff, key)
						}
						break
					}
				}
				// Reused eblocks accept new placements again.
				for k := range freed {
					delete(freed, k)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// equalBytePartition is the global tier this package had before quota
// striping (Channels chunks of about total/Channels bytes each), kept as
// the reference the density property compares against.
func equalBytePartition(pages []BatchPage, channels int) [][]BatchPage {
	total := 0
	for _, pg := range pages {
		total += pg.Length
	}
	goal := ceilDiv(total, channels)
	var chunks [][]BatchPage
	start, acc := 0, 0
	for i, pg := range pages {
		acc += pg.Length
		if acc >= goal && len(chunks) < channels-1 {
			chunks = append(chunks, pages[start:i+1])
			start, acc = i+1, 0
		}
	}
	if start < len(pages) {
		chunks = append(chunks, pages[start:])
	}
	return chunks
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func chunkBytes(chunk []BatchPage) int {
	n := 0
	for _, pg := range chunk {
		n += pg.Length
	}
	return n
}

// wblocksOf is what a partition programs on fresh EBLOCKs: every chunk is
// one run, padded to a WBLOCK.
func wblocksOf(chunks [][]BatchPage, w int) int {
	n := 0
	for _, c := range chunks {
		n += ceilDiv(chunkBytes(c), w)
	}
	return n
}

// randomBatch draws page sizes for one of the shapes the partition must
// get right: small pages, a batch below one WBLOCK, pages above a WBLOCK,
// and totals at exactly k x Channels x WBlockBytes.
func randomBatch(rng *rand.Rand, geo flash.Geometry) []int {
	w, n := geo.WBlockBytes, geo.Channels
	aligned := func(lo, hi int) int { return 64 * (lo/64 + rng.Intn((hi-lo)/64+1)) }
	var sizes []int
	fill := func(total, lo, hi int) {
		for left := total; left > 0; {
			s := min(aligned(lo, hi), left)
			sizes = append(sizes, s)
			left -= s
		}
	}
	switch rng.Intn(5) {
	case 0: // small pages, arbitrary total up to a few stripes
		fill(aligned(128, 3*n*w), 128, 4096)
	case 1: // less than one WBLOCK
		fill(aligned(128, w-64), 128, min(4096, w/2))
	case 2: // some pages larger than a WBLOCK
		for i, k := 0, 1+rng.Intn(2*n); i < k; i++ {
			sizes = append(sizes, aligned(128, 3*w))
		}
	case 3: // exactly k full stripes, in small pages
		fill((1+rng.Intn(3))*n*w, 128, 4096)
	case 4: // exactly k full stripes, in WBLOCK-sized pages
		for i, k := 0, (1+rng.Intn(3))*n; i < k; i++ {
			sizes = append(sizes, w)
		}
	}
	return sizes
}

// TestPartitionQuotaPropertyQuick checks quota striping over random page
// lists and geometries: buffer order kept, nothing lost, at most Channels
// chunks, every chunk within its WBLOCK quota unless it is one oversize
// page, and the data WBLOCKs a fresh device programs for the batch stay
// within page-boundary slack of ceil(total/W) and, for pages small against
// a WBLOCK, never exceed what the equal-byte split programmed.
func TestPartitionQuotaPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := []int{4 << 10, 16 << 10, 32 << 10}[rng.Intn(3)]
		geo := flash.Geometry{
			Channels: []int{1, 2, 3, 4, 8, 16}[rng.Intn(6)], EBlocksPerChannel: 4,
			EBlockBytes: 64 * w, WBlockBytes: w, RBlockBytes: 4 << 10,
		}
		st, err := summary.New(geo)
		if err != nil {
			t.Log(err)
			return false
		}
		p, err := New(geo, st)
		if err != nil {
			t.Log(err)
			return false
		}
		pages := contiguousPages(randomBatch(rng, geo)...)
		total, maxPage := 0, 0
		for _, pg := range pages {
			total += pg.Length
			maxPage = max(maxPage, pg.Length)
		}

		chunks, nwb := p.partition(pages)
		if len(chunks) == 0 || len(chunks) > geo.Channels {
			t.Logf("seed %d: %d chunks on %d channels", seed, len(chunks), geo.Channels)
			return false
		}
		flat := 0
		for i, c := range chunks {
			quota := nwb / geo.Channels
			if i < nwb%geo.Channels {
				quota++
			}
			if b := chunkBytes(c); quota == 0 || len(c) == 0 || (b > quota*w && len(c) > 1) {
				t.Logf("seed %d: chunk %d: %d pages, %d bytes, quota %d x %d", seed, i, len(c), b, quota, w)
				return false
			}
			for _, pg := range c {
				if flat == len(pages) || pg != pages[flat] {
					t.Logf("seed %d: chunk %d breaks buffer order at page %d", seed, i, flat)
					return false
				}
				flat++
			}
		}
		if flat != len(pages) {
			t.Logf("seed %d: partition kept %d of %d pages", seed, flat, len(pages))
			return false
		}

		seq := uint64(0)
		plan, err := p.ProvisionBatch(pages, func() uint64 { seq++; return seq }, 1)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		data := 0
		for _, io := range plan.IOs {
			if io.Inline == nil {
				data++
			}
		}
		if data != wblocksOf(chunks, w) || len(plan.Closes) != 0 {
			t.Logf("seed %d: %d data IOs, partition implies %d (closes %d)", seed, data, wblocksOf(chunks, w), len(plan.Closes))
			return false
		}
		if bound := ceilDiv(total, w) + ceilDiv(geo.Channels*maxPage, w); data > bound {
			t.Logf("seed %d: %d data WBLOCKs for %d bytes, bound %d", seed, data, total, bound)
			return false
		}
		// Denser than the equal-byte split whenever the batch's whole
		// page-boundary slack is below one WBLOCK (the bench geometry's
		// 8 x 4 KB pages on 32 KB WBLOCKs is the edge of that). Pages near
		// or above a WBLOCK make both cuts lumpy and either can win.
		if old := wblocksOf(equalBytePartition(pages, geo.Channels), w); geo.Channels*maxPage <= w && data > old {
			t.Logf("seed %d: %d data WBLOCKs, equal-byte split %d (%d bytes, %d ch, w %d)", seed, data, old, total, geo.Channels, w)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
