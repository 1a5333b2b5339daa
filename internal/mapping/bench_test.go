package mapping

import (
	"testing"

	"eleos/internal/addr"
)

func BenchmarkGetSet(b *testing.B) {
	t := New()
	a := addr.MustPack(1, 2, 128, 1920)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpid := addr.LPID(i % 100000)
		if _, err := t.Swap(lpid, a, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := t.Get(lpid); err != nil {
			b.Fatal(err)
		}
	}
}
