package wal

import (
	"testing"

	"eleos/internal/record"
)

func BenchmarkAppend(b *testing.B) {
	l, _ := New(newFakeSink(b, 32<<10), 32<<10)
	frame := record.Append(nil, record.Update{Action: 1, LPID: 2, Type: 1, New: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendForce(b *testing.B) {
	l, _ := New(newFakeSink(b, 32<<10), 32<<10)
	r := record.Commit{Action: 1, AKind: record.ActionUser}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appendForce(l, r); err != nil {
			b.Fatal(err)
		}
	}
}
