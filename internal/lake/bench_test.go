package lake_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"lakenav/internal/embedding"
	"lakenav/internal/lake"
	"lakenav/internal/synth"
)

// defaultSocrataLake generates the lake shape the lakebench build workload
// loads: synth's default 750-table Socrata lake.
func defaultSocrataLake(b *testing.B) *lake.Lake {
	b.Helper()
	soc, err := synth.GenerateSocrata(synth.DefaultSocrataConfig())
	if err != nil {
		b.Fatal(err)
	}
	return soc.Lake
}

func BenchmarkReadJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := defaultSocrataLake(b).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lake.ReadJSON(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeTopics(b *testing.B) {
	l := defaultSocrataLake(b)
	model := embedding.NewHashed(64, 1, 0.95) // the lakenav facade's default model
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ComputeTopics(model)
	}
}

// BenchmarkLoadBinLake is a navserver restart's lake load: decoding the
// default Socrata lake's lake.bin, stored topics included.
func BenchmarkLoadBinLake(b *testing.B) {
	l := defaultSocrataLake(b)
	l.ComputeTopics(embedding.NewHashed(64, 1, 0.95)) // what lakenav's Save(FormatBin) stores
	path := filepath.Join(b.TempDir(), "lake.bin")
	if err := l.SaveFileBin(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lake.LoadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
