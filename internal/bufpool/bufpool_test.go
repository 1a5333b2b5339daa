package bufpool

import (
	"sync"
	"testing"
)

func TestGetSizes(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 4097, 1 << 20, 16 << 20, 16<<20 + 1} {
		u := Get(n)
		if len(u.Bytes()) != n {
			t.Fatalf("Get(%d): len %d", n, len(u.Bytes()))
		}
		if u.Cap() < n {
			t.Fatalf("Get(%d): cap %d", n, u.Cap())
		}
		u.Release()
	}
}

func TestOversizeUnpooled(t *testing.T) {
	u := Get(16<<20 + 1)
	if u.class != -1 {
		t.Fatalf("oversize buffer got class %d", u.class)
	}
	u.Release() // must not panic or pool
}

func TestRetainRelease(t *testing.T) {
	u := Get(64)
	u.Retain()
	if got := u.Refs(); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}
	u.Release()
	if got := u.Refs(); got != 1 {
		t.Fatalf("refs = %d, want 1", got)
	}
	u.Release()
	if got := u.Refs(); got != 0 {
		t.Fatalf("refs = %d, want 0", got)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	u := Get(64)
	u.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	u.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	u := Get(64)
	u.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain of dead buffer did not panic")
		}
	}()
	u.Retain()
}

func TestPoison(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	u := Get(128)
	b := u.Bytes()
	for i := range b {
		b[i] = 0x42
	}
	u.Release()
	// b aliases the pooled array; after release it must be poisoned.
	for i, v := range b {
		if v != PoisonByte {
			t.Fatalf("byte %d = %#x after release, want %#x", i, v, PoisonByte)
		}
	}
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race; CI's zero-alloc step runs this without it")
	}
	// Warm the pool, then check the Get/Release cycle allocates nothing.
	for _, n := range []int{512, 9000} {
		Get(n).Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		u := Get(512)
		u.Bytes()[0] = 1
		u.Release()
		u = Get(9000)
		u.Retain()
		u.Release()
		u.Release()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Get/Release allocates %.1f per run, want 0", allocs)
	}
}

func TestConcurrentChurn(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				u := Get(1 + (g*977+i*131)%70000)
				b := u.Bytes()
				for j := 0; j < len(b); j += 997 {
					b[j] = byte(g)
				}
				if i%3 == 0 {
					u.Retain()
					u.Release()
				}
				u.Release()
			}
		}(g)
	}
	wg.Wait()
}
