package similarity

import (
	"math"
	"testing"
	"unicode/utf8"

	"github.com/corleone-em/corleone/internal/strutil"
)

// TestJaroWinklerSymmetric pins jaroWinklerRunes(x, y) == jaroWinklerRunes(y, x)
// bit for bit over every pair of strings of length 0–6 on a 3-letter
// alphabet. The one-matrix Monge-Elkan reads the b→a direction off the
// a→b matrix, which is exact only because of this symmetry.
func TestJaroWinklerSymmetric(t *testing.T) {
	var all [][]rune
	var grow func(prefix []rune)
	grow = func(prefix []rune) {
		all = append(all, append([]rune(nil), prefix...))
		if len(prefix) == 6 {
			return
		}
		for _, r := range "abc" {
			grow(append(prefix, r))
		}
	}
	grow(nil)
	if len(all) != 1093 { // Σ 3^k for k = 0..6
		t.Fatalf("enumerated %d strings, want 1093", len(all))
	}
	s := NewScratch()
	for i, x := range all {
		for _, y := range all[i+1:] {
			xy, yx := jaroWinklerRunes(x, y, s), jaroWinklerRunes(y, x, s)
			if math.Float64bits(xy) != math.Float64bits(yx) {
				t.Fatalf("JW(%q,%q)=%v but JW(%q,%q)=%v", string(x), string(y), xy, string(y), string(x), yx)
			}
		}
	}
}

// FuzzJaroWinklerSymmetric extends the exhaustive symmetry check to
// arbitrary strings.
func FuzzJaroWinklerSymmetric(f *testing.F) {
	f.Add("martha", "marhta")
	f.Add("dixon", "dicksonx")
	f.Add("", "abc")
	f.Add("caffè", "naïve")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 100 || len(b) > 100 {
			return
		}
		x, y := []rune(a), []rune(b)
		s := NewScratch()
		xy, yx := jaroWinklerRunes(x, y, s), jaroWinklerRunes(y, x, s)
		if math.Float64bits(xy) != math.Float64bits(yx) {
			t.Fatalf("JW(%q,%q)=%v but JW(%q,%q)=%v", a, b, xy, b, a, yx)
		}
	})
}

// checkIDKernels compares every id kernel on one profile pair against the
// retained string-merge oracle, bit for bit.
func checkIDKernels(t *testing.T, c *Corpus, pa, pb *Profile, s *Scratch) {
	t.Helper()
	eq := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%q, %q): ids=%v strings=%v", name, pa.Norm, pb.Norm, got, want)
		}
	}
	wa, wb := strutil.SortedSet(pa.Tokens), strutil.SortedSet(pb.Tokens)
	ga, gb := strutil.SortedSet(strutil.QGrams(pa.Norm, 3)), strutil.SortedSet(strutil.QGrams(pb.Norm, 3))
	if len(pa.WordSet) != len(wa) || len(pa.GramSet) != len(ga) {
		t.Fatalf("%q: id sets have %d words / %d grams, string sets %d / %d",
			pa.Norm, len(pa.WordSet), len(pa.GramSet), len(wa), len(ga))
	}
	for _, set := range [][]uint32{pa.WordSet, pa.GramSet, pb.WordSet, pb.GramSet} {
		for i := 1; i < len(set); i++ {
			if set[i] <= set[i-1] {
				t.Fatalf("id set %v not strictly ascending", set)
			}
		}
	}
	if got, want := intersectIDs(pa.WordSet, pb.WordSet), intersectSorted(wa, wb); got != want {
		t.Fatalf("word intersection(%q, %q): ids=%d strings=%d", pa.Norm, pb.Norm, got, want)
	}
	if got, want := intersectIDs(pa.GramSet, pb.GramSet), intersectSorted(ga, gb); got != want {
		t.Fatalf("gram intersection(%q, %q): ids=%d strings=%d", pa.Norm, pb.Norm, got, want)
	}
	eq("JaccardWords", JaccardWordsProfiles(pa, pb), jaccardSorted(wa, wb))
	eq("JaccardQGrams", JaccardQGramsProfiles(pa, pb), jaccardSorted(ga, gb))
	eq("CosineTFIDF", c.CosineProfiles(pa, pb),
		cosineStringVectors(weighStrings(c, pa.Tokens), weighStrings(c, pb.Tokens)))
	eq("Cosine", c.Cosine(pa.Norm, pb.Norm),
		cosineStringVectors(weighStrings(c, strutil.Words(pa.Norm)), weighStrings(c, strutil.Words(pb.Norm))))
	eq("MongeElkan", MongeElkanProfiles(pa, pb, s), mongeElkanTwoPass(pa, pb, s))
}

// TestIDKernelsMatchStringOracles runs the differential check over every
// pair of the seeded fuzz corpus, with A and B as separate columns of one
// NewProfiles call (the feature extractor's shape).
func TestIDKernelsMatchStringOracles(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		vals := fuzzCorpus(seed, 40)
		half := len(vals) / 2
		c := NewCorpus(vals)
		cols := NewProfiles(AllFields, c, vals[:half], vals[half:])
		s := NewScratch()
		for _, pa := range cols[0] {
			for _, pb := range cols[1] {
				checkIDKernels(t, c, pa, pb, s)
				checkIDKernels(t, c, pb, pa, s)
			}
		}
	}
}

// FuzzIDKernelsMatchStringOracles differentially fuzzes the rank-id set
// kernels against the string-merge kernels they replaced.
func FuzzIDKernelsMatchStringOracles(f *testing.F) {
	f.Add("kingston hyperx 4gb kit", "kingston 4 gb hyperx kit")
	f.Add("", "abc")
	f.Add("the the the kit kit", "the kit")
	f.Add("caffè naïve 東京", "naïve caffè")
	f.Add("#a# ##", "a##")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 200 || len(b) > 200 || !utf8.ValidString(a) || !utf8.ValidString(b) {
			return
		}
		c := NewCorpus([]string{a, b, "kingston hyperx kit"})
		cols := NewProfiles(AllFields, c, []string{a}, []string{b})
		checkIDKernels(t, c, cols[0][0], cols[1][0], NewScratch())
	})
}

// TestIDKernelsZeroAlloc pins the id kernels and the one-matrix
// Monge-Elkan (with a warmed scratch) at zero allocations per call.
func TestIDKernelsZeroAlloc(t *testing.T) {
	c := NewCorpus(benchDocs)
	ps := NewProfiles(AllFields, c, benchDocs)[0]
	s := NewScratch()
	a, b := ps[0], ps[1]
	MongeElkanProfiles(a, b, s) // warm the scratch
	if allocs := testing.AllocsPerRun(200, func() {
		sinkF = JaccardQGramsProfiles(a, b) + JaccardWordsProfiles(a, b) + OverlapWordsProfiles(a, b) +
			c.CosineProfiles(a, b) + MongeElkanProfiles(a, b, s)
	}); allocs != 0 {
		t.Errorf("id kernels allocate %.1f per call, want 0", allocs)
	}
}

// benchPairIndex is the (i, i+3) pairing every profile bench in this
// package cycles through.
func benchPairIndex(i int) (int, int) {
	return i % len(benchDocs), (i + 3) % len(benchDocs)
}

// BenchmarkJaccardQGramsStrings measures q-gram Jaccard over sorted
// []string gram sets — the merge the rank ids replaced.
func BenchmarkJaccardQGramsStrings(b *testing.B) {
	sets := make([][]string, len(benchDocs))
	for i, d := range benchDocs {
		sets[i] = strutil.SortedSet(strutil.QGrams(strutil.Normalize(d), 3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := benchPairIndex(i)
		sinkF = jaccardSorted(sets[x], sets[y])
	}
}

// BenchmarkJaccardQGramsIDs measures the shipping q-gram Jaccard over
// ascending []uint32 rank-id sets.
func BenchmarkJaccardQGramsIDs(b *testing.B) {
	ps := NewProfiles(FieldQGrams, nil, benchDocs)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := benchPairIndex(i)
		sinkF = JaccardQGramsProfiles(ps[x], ps[y])
	}
}

// BenchmarkMongeElkanTwoPass measures the retained two-direction
// Monge-Elkan: Jaro-Winkler over every token pair twice.
func BenchmarkMongeElkanTwoPass(b *testing.B) {
	ps := NewProfiles(FieldTokenRunes, nil, benchDocs)[0]
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := benchPairIndex(i)
		sinkF = mongeElkanTwoPass(ps[x], ps[y], s)
	}
}

// BenchmarkMongeElkanMatrix measures the shipping one-matrix Monge-Elkan.
func BenchmarkMongeElkanMatrix(b *testing.B) {
	ps := NewProfiles(FieldTokenRunes, nil, benchDocs)[0]
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := benchPairIndex(i)
		sinkF = MongeElkanProfiles(ps[x], ps[y], s)
	}
}
