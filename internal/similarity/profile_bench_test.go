package similarity

import "testing"

var benchDocs = []string{
	"kingston hyperx 4gb kit 2 x 2gb ddr3 memory module",
	"kingston 4 gb hyperx ddr3 kit high performance",
	"corsair vengeance 8gb ddr3 memory kit for desktops",
	"seagate barracuda 1tb internal hard drive sata",
	"western digital caviar blue 500gb desktop drive",
	"efficient scalable entity matching with crowdsourcing",
	"scalable crowdsourced entity resolution framework",
	"the quick brown fox jumps over the lazy dog",
}

var sinkF float64

// BenchmarkCosineString measures the per-call string path: tokenize, sort,
// look the IDF up, normalize — all repeated on every comparison.
func BenchmarkCosineString(b *testing.B) {
	c := NewCorpus(benchDocs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = c.Cosine(benchDocs[i%len(benchDocs)], benchDocs[(i+3)%len(benchDocs)])
	}
}

// BenchmarkCosineProfile measures the profile path: weighted vectors built
// once, each comparison is a linear merge over presorted tokens.
func BenchmarkCosineProfile(b *testing.B) {
	c := NewCorpus(benchDocs)
	profs := NewProfiles(FieldWordSet, c, benchDocs)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = c.CosineProfiles(profs[i%len(profs)], profs[(i+3)%len(profs)])
	}
}

// BenchmarkEditSimString measures the retained pre-Myers reference path —
// per-call rune decode plus the classic two-row DP with fresh row
// allocations — the same baseline role BenchmarkTrainSerial plays for
// forest training. The shipping string path (EditSim) now runs the Myers
// core too; benchmark it via BenchmarkEditSimStringMyers.
func BenchmarkEditSimString(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = editSimTwoRow(benchDocs[i%len(benchDocs)], benchDocs[(i+3)%len(benchDocs)])
	}
}

// BenchmarkEditSimStringMyers measures the shipping string path: per-call
// rune decode feeding the bit-parallel core.
func BenchmarkEditSimStringMyers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = EditSim(benchDocs[i%len(benchDocs)], benchDocs[(i+3)%len(benchDocs)])
	}
}

// BenchmarkEditSimProfile measures the profile path: predecoded runes and
// scratch-reused pattern tables through the Myers core — zero-alloc steady
// state.
func BenchmarkEditSimProfile(b *testing.B) {
	profs := NewProfiles(FieldRunes, nil, benchDocs)[0]
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = EditSimProfiles(profs[i%len(profs)], profs[(i+3)%len(profs)], s)
	}
}
