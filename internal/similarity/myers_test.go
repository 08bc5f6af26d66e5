package similarity

import (
	"math/rand"
	"strings"
	"testing"
)

// randRunes draws a string over a mixed alphabet — ASCII, Greek (2-byte),
// CJK (3-byte) — so the single-block spillover map and the multi-block
// rows both see non-ASCII runes.
func randRunes(rng *rand.Rand, n int) string {
	alphabet := []rune("abcdefgh αβγδ日本語編集距離")
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// TestMyersMatchesMatrixRandom cross-checks the Myers core against the
// untrimmed full-matrix reference on random rune strings spanning the
// single-block/multi-block boundary (lengths 0..200), reusing one Scratch
// throughout so stale pattern-table state cannot hide.
func TestMyersMatchesMatrixRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	for i := 0; i < 600; i++ {
		a := randRunes(rng, rng.Intn(201))
		b := randRunes(rng, rng.Intn(201))
		want := levenshteinRef(a, b)
		if got := levenshteinRunes([]rune(a), []rune(b), s); got != want {
			t.Fatalf("iter %d: levenshteinRunes(%q,%q) = %d, matrix = %d", i, a, b, got, want)
		}
		if got := Levenshtein(a, b); got != want {
			t.Fatalf("iter %d: Levenshtein(%q,%q) = %d, matrix = %d", i, a, b, got, want)
		}
	}
}

// TestMyersBlockBoundaries pins the exact pattern lengths where the block
// structure changes: 1, 63, 64, 65, 127, 128, 129, 192, 200. Each length
// is checked identical, one-substitution, one-insertion, and against an
// unrelated string.
func TestMyersBlockBoundaries(t *testing.T) {
	s := NewScratch()
	for _, m := range []int{1, 2, 63, 64, 65, 127, 128, 129, 192, 200} {
		base := strings.Repeat("ab", (m+1)/2)[:m]
		// A distinct middle rune defeats the prefix/suffix trim, so the
		// bit-parallel core really runs at this pattern length.
		mid := m / 2
		ra := []rune(base)
		ra[mid] = 'x'
		edited := string(ra)
		cases := [][2]string{
			{edited, edited},
			{edited, base},
			{edited, base[:mid] + "qq" + base[mid:]},
			{edited, "zzz" + strings.Repeat("q", m/3)},
		}
		for _, c := range cases {
			want := levenshteinRef(c[0], c[1])
			if got := levenshteinRunes([]rune(c[0]), []rune(c[1]), s); got != want {
				t.Errorf("m=%d: distance(%q,%q) = %d, matrix = %d", m, c[0], c[1], got, want)
			}
		}
	}
}

// TestMyersEditSimZeroAllocSteadyState pins the single-block hot path —
// profile runes plus a warmed Scratch, the shape of every pair-scan call —
// at zero allocations per comparison.
func TestMyersEditSimZeroAllocSteadyState(t *testing.T) {
	ps := NewProfiles(FieldRunes, nil, []string{
		"kingston hyperx 4gb kit 2 x 2gb ddr3 memory module",
		"kingston 4 gb hyperx ddr3 kit high performance",
	})[0]
	a, b := ps[0], ps[1]
	s := NewScratch()
	EditSimProfiles(a, b, s) // warm the scratch
	if allocs := testing.AllocsPerRun(200, func() {
		sinkF = EditSimProfiles(a, b, s)
	}); allocs != 0 {
		t.Errorf("EditSimProfiles steady state allocates %.1f per op, want 0", allocs)
	}
}
