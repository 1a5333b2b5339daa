package main

import (
	"bytes"
	"math"
	"math/rand"

	"eleos/internal/addr"
)

// Generators. Everything the program under test receives is a pure
// function of the seed: page lengths and contents are hashes of
// (seed, LPID, version), key choices come from seeded streams, and no
// generator reads a clock. They live here, not in internal/ycsb or
// internal/tpcc, so that a later change to those packages cannot change
// the workload a result was measured on (and tpcc.Collect's trace
// differs per process).

const poolBytes = 16 << 20

// mix is the splitmix64 finalizer: a cheap bijective scramble.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pageLen draws a variable page size from 61 bits of hash: 9/16 of pages
// uniform in [128, 2048) and 7/16 uniform in [2048, 4096], which has the
// paper's compressed TPC-C mean of 1.91 KB (9/16·1088 + 7/16·3072 = 1956).
func pageLen(h uint64) int {
	if h&15 < 9 {
		return 128 + int((h>>4)%1920)
	}
	return 2048 + int((h>>4)%2049)
}

// valueLen draws a kv_mixed value size, uniform in [256, 1792] (mean 1 KB).
func valueLen(h uint64) int { return 256 + int(h%1537) }

// newPool makes the random bytes every page image of a run is a slice of.
func newPool(seed int64) []byte {
	pool := make([]byte, poolBytes)
	rand.New(rand.NewSource(seed)).Read(pool)
	return pool
}

// content maps (LPID, version) to a page image without storing it: a
// slice of the pool, so generating a page costs no copy inside the timed
// loop and any read can be checked from (LPID, version) alone. The passes
// of a run share the pool; which slice a page is depends on the pass's
// seed.
type content struct {
	seed   uint64
	pool   []byte
	length func(h uint64) int
}

func newContent(pool []byte, seed int64, length func(uint64) int) *content {
	return &content{seed: mix(uint64(seed)), pool: pool, length: length}
}

// page returns the image of the given version of an LPID. Version 0 is
// "never written" and has no image.
func (c *content) page(lpid addr.LPID, ver uint32) []byte {
	h := mix(c.seed ^ mix(uint64(lpid)<<32|uint64(ver)))
	n := c.length(h)
	off := mix(h) % uint64(len(c.pool)-n)
	return c.pool[off : off+uint64(n)]
}

// matches reports whether got is byte-exact the stored form of the given
// version: the image, zero-padded to the controller's 64-byte alignment.
func (c *content) matches(got []byte, lpid addr.LPID, ver uint32) bool {
	if ver == 0 {
		return false
	}
	want := c.page(lpid, ver)
	if len(got) != addr.AlignUp(len(want)) || !bytes.Equal(got[:len(want)], want) {
		return false
	}
	for _, b := range got[len(want):] {
		if b != 0 {
			return false
		}
	}
	return true
}

// hotCold picks page indexes in [0, n) with 80 % of picks landing on the
// first 20 % of pages (the churn_gc skew).
type hotCold struct {
	rng *rand.Rand
	n   int
}

func (p *hotCold) next() int {
	hot := p.n / 5
	if p.rng.Intn(5) < 4 {
		return p.rng.Intn(hot)
	}
	return hot + p.rng.Intn(p.n-hot)
}

// zipfian draws keys in [0, n) with the Gray et al. generator YCSB uses,
// then scrambles the rank so hot keys are spread over the key space.
type zipfian struct {
	rng                      *rand.Rand
	n                        uint64
	theta, alpha, zetan, eta float64
}

func newZipfian(n uint64, theta float64, rng *rand.Rand) *zipfian {
	zeta := func(n uint64) float64 {
		var sum float64
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipfian{rng: rng, n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipfian) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	return mix(rank) % z.n
}

// streamSeed derives an independent generator seed for one purpose (a
// client, the read-back sample, ...) from the run's seed.
func streamSeed(seed int64, stream uint64) int64 {
	return int64(mix(uint64(seed) ^ mix(stream)))
}
