package similarity

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

func FuzzLevenshteinMetricProperties(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("same", "same")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 200 || len(b) > 200 {
			return // keep the quadratic DP bounded
		}
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			t.Fatal("not symmetric")
		}
		// Distance is over runes: invalid UTF-8 bytes all decode to
		// U+FFFD, so identity of indiscernibles only holds for valid
		// strings.
		if utf8.ValidString(a) && utf8.ValidString(b) {
			if (d == 0) != (a == b) {
				t.Fatalf("identity of indiscernibles violated: d=%d for %q/%q", d, a, b)
			}
		}
		la, lb := len([]rune(a)), len([]rune(b))
		hi := la
		if lb > hi {
			hi = lb
		}
		lo := la - lb
		if lo < 0 {
			lo = -lo
		}
		if d < lo || d > hi {
			t.Fatalf("d=%d outside [%d,%d]", d, lo, hi)
		}
	})
}

// FuzzMyersMatchesMatrixDP differentially fuzzes the Myers bit-parallel
// core against the retained references on arbitrary rune strings: the
// untrimmed full-matrix DP (levenshteinRef) and the trimmed two-row DP
// that shipped before the rewrite. Seeds cover non-ASCII runes and
// patterns past the 64-rune single-block limit so both the spillover map
// and the multi-block carry chain are exercised; the shared scratch is
// reused across calls to prove the pattern tables are wiped correctly.
func FuzzMyersMatchesMatrixDP(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "émigré")
	f.Add("κόσμε κόσμε", "kosme")
	f.Add("日本語テキストの編集距離", "日本語のテキスト編集距離です")
	f.Add(strings.Repeat("abcdefgh", 9), strings.Repeat("abcdefgx", 9))     // 72 runes: two blocks
	f.Add(strings.Repeat("αβγδ", 40), strings.Repeat("αβγε", 41))           // 160 non-ASCII runes
	f.Add(strings.Repeat("z", 64)+"q", strings.Repeat("z", 64))             // block boundary
	f.Add("prefix-"+strings.Repeat("mid", 50)+"-suffix", "prefix-x-suffix") // trim + long side
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 400 || len(b) > 400 {
			return // keep the quadratic reference bounded
		}
		want := levenshteinRef(a, b)
		if got := Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %d, matrix reference = %d", a, b, got, want)
		}
		if got := levenshteinTwoRowRunes([]rune(a), []rune(b)); got != want {
			t.Fatalf("two-row reference disagrees with matrix on %q/%q: %d vs %d", a, b, got, want)
		}
		// Scratch reuse across calls (and argument order) must not change
		// the distance: stale pattern-table entries would surface here.
		s := NewScratch()
		if got := levenshteinRunes([]rune(a), []rune(b), s); got != want {
			t.Fatalf("scratch call 1 = %d, want %d", got, want)
		}
		if got := levenshteinRunes([]rune(b), []rune(a), s); got != want {
			t.Fatalf("scratch call 2 (swapped) = %d, want %d", got, want)
		}
	})
}

func FuzzStringMeasuresStayInRange(f *testing.F) {
	f.Add("kingston hyperx", "kingston fury")
	f.Add("", "")
	f.Add("a", "")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 100 || len(b) > 100 {
			return
		}
		for name, fn := range map[string]func(string, string) float64{
			"EditSim":       EditSim,
			"Jaro":          Jaro,
			"JaroWinkler":   JaroWinkler,
			"JaccardWords":  JaccardWords,
			"JaccardQGrams": JaccardQGrams,
			"OverlapWords":  OverlapWords,
			"MongeElkan":    MongeElkan,
		} {
			s := fn(a, b)
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("%s(%q,%q) = %v outside [0,1]", name, a, b, s)
			}
		}
	})
}
