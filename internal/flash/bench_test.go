package flash

import "testing"

func BenchmarkProgram(b *testing.B) {
	g := Geometry{Channels: 8, EBlocksPerChannel: 1024, EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10}
	d := MustNewDevice(g, Latency{})
	data := make([]byte, g.WBlockBytes)
	per := g.WBlocksPerEBlock()
	b.SetBytes(int64(g.WBlockBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := i % g.Channels
		pos := i / g.Channels
		eb := (pos / per) % g.EBlocksPerChannel
		wb := pos % per
		if wb == 0 && pos >= per*g.EBlocksPerChannel {
			b.StopTimer()
			_ = eraseNow(d, ch, eb)
			b.StartTimer()
		}
		if err := d.Program(SrcUser, ch, eb, wb, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadExtent(b *testing.B) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	data := make([]byte, d.Geometry().WBlockBytes)
	_ = d.Program(SrcUser, 0, 0, 0, data)
	b.SetBytes(1920)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := readExtent(d, 0, 0, 64, 1920); err != nil {
			b.Fatal(err)
		}
	}
}
