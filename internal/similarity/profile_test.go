package similarity

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/strutil"
)

// fuzzCorpus generates a deterministic mix of realistic and adversarial
// strings: product-title-like token soups, unicode, numerics, empties,
// repeated tokens, and pure punctuation.
func fuzzCorpus(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	words := []string{
		"kingston", "hyperx", "4gb", "kit", "2", "x", "2gb", "ddr3",
		"memory", "seagate", "barracuda", "1tb", "caffè", "naïve", "東京",
		"résumé", "Ω", "$19.99", "1,234.5", "-42", "3.14", "the", "of",
		"Schröder", "muñoz", "0", "", "#", "a", "zz",
	}
	out := make([]string, 0, n+6)
	// Fixed edge cases always present.
	out = append(out, "", " ", "τόκυο 東京", "12,345.67", "$0", "ＡＢＣ")
	for len(out) < n+6 {
		k := rng.Intn(8)
		var parts []string
		for j := 0; j < k; j++ {
			parts = append(parts, words[rng.Intn(len(words))])
		}
		sep := " "
		if rng.Intn(5) == 0 {
			sep = "  ,"
		}
		s := strings.Join(parts, sep)
		if rng.Intn(7) == 0 {
			s = strings.ToUpper(s)
		}
		out = append(out, s)
	}
	return out
}

// TestProfileEquivalence verifies that every profile fast path returns a
// result bit-identical to its string-based reference over a seeded fuzz
// corpus, with and without shared scratch buffers. The string measures are
// applied to the normalized string, which is what the feature layer feeds
// them and what the profile precomputes.
func TestProfileEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		corpus := fuzzCorpus(seed, 40)
		c := NewCorpus(corpus)
		profiles := NewProfiles(AllFields, c, corpus)[0]
		scratch := NewScratch()

		type check struct {
			name string
			str  func(a, b string) float64
			prof func(a, b *Profile) float64
		}
		checks := []check{
			{"ExactMatch", ExactMatch,
				func(a, b *Profile) float64 { return ExactMatchProfiles(a, b) }},
			{"EditSim", EditSim,
				func(a, b *Profile) float64 { return EditSimProfiles(a, b, scratch) }},
			{"Jaro", Jaro,
				func(a, b *Profile) float64 { return JaroProfiles(a, b, scratch) }},
			{"JaroWinkler", JaroWinkler,
				func(a, b *Profile) float64 { return JaroWinklerProfiles(a, b, scratch) }},
			{"JaccardWords", JaccardWords,
				func(a, b *Profile) float64 { return JaccardWordsProfiles(a, b) }},
			{"JaccardQGrams", JaccardQGrams,
				func(a, b *Profile) float64 { return JaccardQGramsProfiles(a, b) }},
			{"OverlapWords", OverlapWords,
				func(a, b *Profile) float64 { return OverlapWordsProfiles(a, b) }},
			{"MongeElkan", MongeElkan,
				func(a, b *Profile) float64 { return MongeElkanProfiles(a, b, scratch) }},
			{"CosineQGrams", CosineQGrams,
				func(a, b *Profile) float64 { return CosineQGramsProfiles(a, b) }},
			{"NeedlemanWunsch", NeedlemanWunsch,
				func(a, b *Profile) float64 { return NeedlemanWunschProfiles(a, b, scratch) }},
			{"SmithWaterman", SmithWaterman,
				func(a, b *Profile) float64 { return SmithWatermanProfiles(a, b, scratch) }},
			{"LongestCommonSubstring", LongestCommonSubstring,
				func(a, b *Profile) float64 { return LongestCommonSubstringProfiles(a, b, scratch) }},
			{"SoundexSim", SoundexSim,
				func(a, b *Profile) float64 { return SoundexSimProfiles(a, b) }},
			{"TFIDFCosine", c.Cosine,
				func(a, b *Profile) float64 { return c.CosineProfiles(a, b) }},
		}

		for i, pa := range profiles {
			for j, pb := range profiles {
				for _, ck := range checks {
					want := ck.str(pa.Norm, pb.Norm)
					got := ck.prof(pa, pb)
					if got != want {
						t.Fatalf("seed %d: %s(%q, %q) profile=%v string=%v",
							seed, ck.name, corpus[i], corpus[j], got, want)
					}
					// A second call through the shared scratch must be
					// identical — buffer reuse may not leak state.
					if again := ck.prof(pa, pb); again != want {
						t.Fatalf("seed %d: %s(%q, %q) second call=%v, want %v (scratch state leak)",
							seed, ck.name, corpus[i], corpus[j], again, want)
					}
				}
			}
		}
	}
}

// TestProfileNumericEquivalence pins the numeric view against
// strutil.ParseNumeric on raw (unnormalized) values, matching the feature
// layer's numericWrap semantics.
func TestProfileNumericEquivalence(t *testing.T) {
	cases := []string{"42", "$19.99", "1,234.5", " 7 ", "", "abc", "-3.5", "+8", "1.2.3"}
	for _, s := range cases {
		p := NewProfiles(FieldNumeric, nil, []string{s})[0][0]
		want, wok := strutil.ParseNumeric(s)
		if p.NumericOK != wok || (wok && p.Numeric != want) {
			t.Errorf("NewProfiles(%q).Numeric = %v,%v want %v,%v",
				s, p.Numeric, p.NumericOK, want, wok)
		}
	}
}

// TestScratchReuseAcrossSizes exercises buffer reuse with growing and
// shrinking inputs: a scratch that leaks state between calls would corrupt
// the DP rows of a smaller follow-up input.
func TestScratchReuseAcrossSizes(t *testing.T) {
	s := NewScratch()
	inputs := []string{
		"a very long string with many characters to grow the buffers",
		"ab",
		"",
		"medium length input here",
		"x",
	}
	for _, a := range inputs {
		for _, b := range inputs {
			ra, rb := []rune(a), []rune(b)
			if got, want := levenshteinRunes(ra, rb, s), Levenshtein(a, b); got != want {
				t.Errorf("Levenshtein(%q,%q) scratch=%d fresh=%d", a, b, got, want)
			}
			if got, want := smithWatermanRunes(ra, rb, s), SmithWaterman(a, b); got != want {
				t.Errorf("SmithWaterman(%q,%q) scratch=%v fresh=%v", a, b, got, want)
			}
			if got, want := longestCommonSubstringRunes(ra, rb, s), LongestCommonSubstring(a, b); got != want {
				t.Errorf("LCS(%q,%q) scratch=%v fresh=%v", a, b, got, want)
			}
			if got, want := needlemanWunschRunes(ra, rb, s), NeedlemanWunsch(a, b); got != want {
				t.Errorf("NeedlemanWunsch(%q,%q) scratch=%v fresh=%v", a, b, got, want)
			}
			if got, want := jaroRunes(ra, rb, s), Jaro(a, b); got != want {
				t.Errorf("Jaro(%q,%q) scratch=%v fresh=%v", a, b, got, want)
			}
		}
	}
}
