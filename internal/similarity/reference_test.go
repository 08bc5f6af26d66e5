package similarity

import (
	"math"
	"sort"

	"github.com/corleone-em/corleone/internal/strutil"
)

// Retained reference kernels. Each is the implementation an optimized
// production path replaced; tests, differential fuzz targets and the bench
// harness's baselines run through them so the optimized paths stay pinned
// bit-identical to what they replaced.
//
// Dynamic-programming references for the Myers bit-parallel edit
// distance (myers.go). levenshteinTwoRowRunes is, verbatim, the two-row DP
// core that shipped before the Myers rewrite — trimming included — and
// editSimTwoRow the EditSim string path built on it. They are not called
// from production code; the equivalence tests, the differential fuzz
// target, and the bench harness's edit_similarity baseline
// (BenchmarkEditSimString) run through them so the optimized path stays
// pinned bit-identical to the classic algorithm it replaced.

// levenshteinTwoRowRunes computes the unit-cost edit distance with the
// classic two-row DP over runes, after prefix/suffix trimming and the
// one-empty-side early exit — the exact pre-Myers hot path. s supplies the
// two DP rows (nil allocates).
func levenshteinTwoRowRunes(ra, rb []rune, s *Scratch) int {
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev, cur := s.intRows(len(rb) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// editSimTwoRow is the retained pre-Myers EditSim string path: per-call
// rune decode plus the two-row DP. The bench harness measures it as the
// edit_similarity baseline.
func editSimTwoRow(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(levenshteinTwoRowRunes(ra, rb, nil))/float64(m)
}

// The string-set merge kernels the rank-id kernels replaced (intern.go).
// They merge sorted []string sets, comparing bytes where the id kernels
// compare integers; the id kernels must agree with them exactly.

// jaccardSorted mirrors jaccard over sorted distinct string slices.
func jaccardSorted(sa, sb []string) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := intersectSorted(sa, sb)
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

// intersectSorted counts common elements of two sorted distinct slices.
func intersectSorted(sa, sb []string) int {
	inter := 0
	for i, j := 0, 0; i < len(sa) && j < len(sb); {
		switch {
		case sa[i] < sb[j]:
			i++
		case sa[i] > sb[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter
}

// stringVector is the string-keyed TF/IDF vector WeightedVector replaced:
// sorted distinct tokens with their frequencies, IDFs and weights.
type stringVector struct {
	Tokens []string
	TF     []int
	IDF    []float64
	W      []float64
	Norm   float64
}

// weighStrings builds the string-keyed vector of a token multiset.
func weighStrings(c *Corpus, tokens []string) *stringVector {
	keys := strutil.SortedSet(tokens)
	counts := make([]int, len(keys))
	for _, t := range tokens {
		counts[sort.SearchStrings(keys, t)]++
	}
	v := &stringVector{
		Tokens: keys,
		TF:     counts,
		IDF:    make([]float64, len(keys)),
		W:      make([]float64, len(keys)),
	}
	for i, t := range keys {
		idf := c.IDF(t)
		w := float64(counts[i]) * idf
		v.IDF[i] = idf
		v.W[i] = w
		v.Norm += w * w
	}
	return v
}

// cosineStringVectors is the string-merge cosine CosineVectors replaced.
func cosineStringVectors(a, b *stringVector) float64 {
	if len(a.Tokens) == 0 && len(b.Tokens) == 0 {
		return 0.5
	}
	if len(a.Tokens) == 0 || len(b.Tokens) == 0 {
		return 0
	}
	var dot float64
	for i, j := 0, 0; i < len(a.Tokens) && j < len(b.Tokens); {
		switch {
		case a.Tokens[i] < b.Tokens[j]:
			i++
		case a.Tokens[i] > b.Tokens[j]:
			j++
		default:
			dot += a.W[i] * float64(b.TF[j]) * b.IDF[j]
			i++
			j++
		}
	}
	if a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	s := dot / (math.Sqrt(a.Norm) * math.Sqrt(b.Norm))
	if s > 1 {
		s = 1
	}
	return s
}

// mongeElkanTwoPass is the profile Monge-Elkan the one-matrix path
// replaced: Jaro-Winkler over every token pair once per direction.
func mongeElkanTwoPass(a, b *Profile, s *Scratch) float64 {
	if len(a.Tokens) == 0 && len(b.Tokens) == 0 {
		return 1
	}
	if len(a.Tokens) == 0 || len(b.Tokens) == 0 {
		return 0
	}
	return (mongeElkanDirRunes(a.TokenRunes, b.TokenRunes, s) +
		mongeElkanDirRunes(b.TokenRunes, a.TokenRunes, s)) / 2
}

func mongeElkanDirRunes(ta, tb [][]rune, s *Scratch) float64 {
	sum := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if v := jaroWinklerRunes(x, y, s); v > best {
				best = v
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}
