// Package chaos is the deterministic chaos harness: a seeded schedule
// generator and executor that composes every fault type the repo supports
// — injected program failures, injected erase failures, mid-batch TCP
// connection kills, and crash→recover loops — into randomized
// multi-writer schedules over the real network stack, then asserts the
// shared invariant set (internal/chaos/invariant) after every schedule.
//
// Determinism is the contract: a Schedule is a pure function of its seed,
// its encoding is byte-stable (golden-tested), and a failing run prints
// the seed so `go test ./internal/chaos -run TestChaosCorpus
// -chaos.seed=N` replays it exactly. On failure the harness also runs a
// greedy minimizer (Minimize) that drops and shrinks fault events while
// the failure still reproduces, so the replayed repro is minimal.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Kill is one mid-batch connection kill: writer Writer's proxy cuts the
// connection after the request frame carrying WSN reaches the server but
// before the reply reaches the client — the ack-lost retry window.
type Kill struct {
	Writer int
	WSN    uint64
}

// Schedule is one fully determined chaos scenario. All faults are armed
// or triggered at exact, reproducible points: program/erase faults at
// 1-based media attempt offsets counted from arming (post-Format),
// kills at exact (writer, WSN) sends, crashes at exact global acked-batch
// thresholds.
type Schedule struct {
	Seed    int64
	Writers int
	Batches int // batches per writer
	Pages   int // unique pages per batch (plus one churn page)

	ProgramFaults []int  // ascending program-attempt offsets
	EraseFaults   []int  // ascending erase-attempt offsets
	Kills         []Kill // ordered by (Writer, WSN)
	Crashes       []int  // ascending global acked thresholds

	// Tenants[w] / Priorities[w] tag writer w's session (chaos/v2).
	// Empty tag + zero priority is the default untagged session; any
	// tagged writer makes the run start its server with per-tenant QoS
	// admission enabled, so quota accounting and tenant attribution are
	// chased through every kill, media fault, and crash→recover loop.
	// Absent (v1 schedules) means all writers untagged.
	Tenants    []string
	Priorities []uint8
}

// Tenant returns writer w's tag and priority (default for v1 schedules).
func (s Schedule) Tenant(w int) (string, uint8) {
	tag, prio := "", uint8(0)
	if w < len(s.Tenants) {
		tag = s.Tenants[w]
	}
	if w < len(s.Priorities) {
		prio = s.Priorities[w]
	}
	return tag, prio
}

// Tagged reports whether any writer carries a non-default tenant tag.
func (s Schedule) Tagged() bool {
	for w := 0; w < s.Writers; w++ {
		if tag, prio := s.Tenant(w); tag != "" || prio != 0 {
			return true
		}
	}
	return false
}

// Generation bounds. Program-fault offsets keep a minimum gap: when an
// armed fault lands on a WAL log page, the failover retry is the very
// next program attempt, so adjacent offsets can chain through the log's
// forward candidates and shut the log down — a designed durability limit,
// not a scenario schedules should trip by accident.
const (
	minWriters        = 2
	maxWriters        = 4
	minBatches        = 12
	maxBatches        = 30
	maxPagesPerBatch  = 3
	maxProgramFaults  = 4
	maxEraseFaults    = 2
	maxKills          = 3
	maxCrashes        = 2
	programFaultGap   = 8
	minProgramOffset  = 3
	firstEraseOffset  = 4
	eraseFaultGap     = 3
	totalAckedPadding = 2 // crashes trigger at least this far before the end
)

// Generate derives a Schedule from a seed. Same seed, same schedule,
// always — the generator consumes the seeded rng in a fixed order and
// never reads ambient state.
func Generate(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{
		Seed:    seed,
		Writers: minWriters + rng.Intn(maxWriters-minWriters+1),
		Batches: minBatches + rng.Intn(maxBatches-minBatches+1),
		Pages:   1 + rng.Intn(maxPagesPerBatch),
	}

	off := minProgramOffset + rng.Intn(10)
	for i, n := 0, 1+rng.Intn(maxProgramFaults); i < n; i++ {
		s.ProgramFaults = append(s.ProgramFaults, off)
		off += programFaultGap + rng.Intn(24)
	}

	off = firstEraseOffset + rng.Intn(4)
	for i, n := 0, rng.Intn(maxEraseFaults+1); i < n; i++ {
		s.EraseFaults = append(s.EraseFaults, off)
		off += eraseFaultGap + rng.Intn(8)
	}

	seen := map[Kill]bool{}
	for i, n := 0, 1+rng.Intn(maxKills); i < n; i++ {
		k := Kill{Writer: rng.Intn(s.Writers), WSN: uint64(1 + rng.Intn(s.Batches))}
		if !seen[k] {
			seen[k] = true
			s.Kills = append(s.Kills, k)
		}
	}

	total := s.Writers * s.Batches
	for i, n := 0, rng.Intn(maxCrashes+1); i < n; i++ {
		th := total/4 + rng.Intn(total/2)
		s.Crashes = append(s.Crashes, th)
	}

	// Tenant tags, drawn strictly after every fault draw so a given seed
	// keeps the exact fault layout it had before chaos/v2: roughly half
	// the writers share one of two named tenants, the rest stay default.
	for w := 0; w < s.Writers; w++ {
		if rng.Intn(2) == 1 {
			s.Tenants = append(s.Tenants, fmt.Sprintf("t%d", rng.Intn(2)))
			s.Priorities = append(s.Priorities, uint8(rng.Intn(2)*7))
		} else {
			s.Tenants = append(s.Tenants, "")
			s.Priorities = append(s.Priorities, 0)
		}
	}
	s.normalize()
	return s
}

// normalize sorts events into canonical order and drops events that the
// current Writers/Batches bounds make unreachable; Encode output is only
// byte-stable over normalized schedules, and the minimizer re-normalizes
// after every reduction.
func (s *Schedule) normalize() {
	sort.Ints(s.ProgramFaults)
	sort.Ints(s.EraseFaults)
	kills := s.Kills[:0]
	for _, k := range s.Kills {
		if k.Writer < s.Writers && k.WSN <= uint64(s.Batches) {
			kills = append(kills, k)
		}
	}
	sort.Slice(kills, func(i, j int) bool {
		if kills[i].Writer != kills[j].Writer {
			return kills[i].Writer < kills[j].Writer
		}
		return kills[i].WSN < kills[j].WSN
	})
	s.Kills = kills
	total := s.Writers * s.Batches
	crashes := s.Crashes[:0]
	for _, th := range s.Crashes {
		if th > total-totalAckedPadding {
			th = total - totalAckedPadding
		}
		if th < 1 {
			th = 1
		}
		crashes = append(crashes, th)
	}
	sort.Ints(crashes)
	s.Crashes = crashes
	// Tenant slices track the (possibly reduced) writer count; padding
	// with defaults keeps Tenant(w) total.
	if len(s.Tenants) > s.Writers {
		s.Tenants = s.Tenants[:s.Writers]
	}
	if len(s.Priorities) > s.Writers {
		s.Priorities = s.Priorities[:s.Writers]
	}
}

// FaultKinds counts the distinct fault types the schedule composes.
func (s Schedule) FaultKinds() int {
	n := 0
	for _, present := range []bool{
		len(s.ProgramFaults) > 0,
		len(s.EraseFaults) > 0,
		len(s.Kills) > 0,
		len(s.Crashes) > 0,
	} {
		if present {
			n++
		}
	}
	return n
}

// Events counts individual fault events.
func (s Schedule) Events() int {
	return len(s.ProgramFaults) + len(s.EraseFaults) + len(s.Kills) + len(s.Crashes)
}

// Encode renders the schedule in its canonical byte-stable text form.
// The format is versioned and line-based; Parse inverts it exactly, and a
// golden test pins the encoding of a fixed seed so generator refactors
// cannot silently change the replayed corpus.
func (s Schedule) Encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos/v2 seed=%d\n", s.Seed)
	fmt.Fprintf(&b, "writers=%d batches=%d pages=%d\n", s.Writers, s.Batches, s.Pages)
	for w := 0; w < s.Writers; w++ {
		if tag, prio := s.Tenant(w); tag != "" || prio != 0 {
			fmt.Fprintf(&b, "tenant w=%d tag=%s prio=%d\n", w, tag, prio)
		}
	}
	for _, off := range s.ProgramFaults {
		fmt.Fprintf(&b, "pfault %d\n", off)
	}
	for _, off := range s.EraseFaults {
		fmt.Fprintf(&b, "efault %d\n", off)
	}
	for _, k := range s.Kills {
		fmt.Fprintf(&b, "kill w=%d wsn=%d\n", k.Writer, k.WSN)
	}
	for _, th := range s.Crashes {
		fmt.Fprintf(&b, "crash acked=%d\n", th)
	}
	return b.String()
}

// Parse decodes Encode's output.
func Parse(text string) (Schedule, error) {
	var s Schedule
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 2 {
		return s, fmt.Errorf("chaos: schedule too short (%d lines)", len(lines))
	}
	// v2 added tenant lines; v1 schedules (all writers untagged) still
	// parse, so an archived repro never goes stale.
	if _, err := fmt.Sscanf(lines[0], "chaos/v2 seed=%d", &s.Seed); err != nil {
		if _, err := fmt.Sscanf(lines[0], "chaos/v1 seed=%d", &s.Seed); err != nil {
			return s, fmt.Errorf("chaos: bad header %q: %v", lines[0], err)
		}
	}
	if _, err := fmt.Sscanf(lines[1], "writers=%d batches=%d pages=%d", &s.Writers, &s.Batches, &s.Pages); err != nil {
		return s, fmt.Errorf("chaos: bad config line %q: %v", lines[1], err)
	}
	for _, ln := range lines[2:] {
		switch {
		case strings.HasPrefix(ln, "tenant "):
			var (
				w    int
				tag  string
				prio int
			)
			if _, err := fmt.Sscanf(ln, "tenant w=%d tag=%s prio=%d", &w, &tag, &prio); err != nil {
				return s, fmt.Errorf("chaos: bad line %q: %v", ln, err)
			}
			if w < 0 || w >= s.Writers || prio < 0 || prio > 255 {
				return s, fmt.Errorf("chaos: tenant line out of range %q", ln)
			}
			for len(s.Tenants) < s.Writers {
				s.Tenants = append(s.Tenants, "")
				s.Priorities = append(s.Priorities, 0)
			}
			s.Tenants[w], s.Priorities[w] = tag, uint8(prio)
		case strings.HasPrefix(ln, "pfault "):
			var off int
			if _, err := fmt.Sscanf(ln, "pfault %d", &off); err != nil {
				return s, fmt.Errorf("chaos: bad line %q: %v", ln, err)
			}
			s.ProgramFaults = append(s.ProgramFaults, off)
		case strings.HasPrefix(ln, "efault "):
			var off int
			if _, err := fmt.Sscanf(ln, "efault %d", &off); err != nil {
				return s, fmt.Errorf("chaos: bad line %q: %v", ln, err)
			}
			s.EraseFaults = append(s.EraseFaults, off)
		case strings.HasPrefix(ln, "kill "):
			var k Kill
			if _, err := fmt.Sscanf(ln, "kill w=%d wsn=%d", &k.Writer, &k.WSN); err != nil {
				return s, fmt.Errorf("chaos: bad line %q: %v", ln, err)
			}
			s.Kills = append(s.Kills, k)
		case strings.HasPrefix(ln, "crash "):
			var th int
			if _, err := fmt.Sscanf(ln, "crash acked=%d", &th); err != nil {
				return s, fmt.Errorf("chaos: bad line %q: %v", ln, err)
			}
			s.Crashes = append(s.Crashes, th)
		default:
			return s, fmt.Errorf("chaos: unknown line %q", ln)
		}
	}
	return s, nil
}
