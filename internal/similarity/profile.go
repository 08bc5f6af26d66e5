package similarity

import "github.com/corleone-em/corleone/internal/strutil"

// Fields selects which precomputed views a Profile carries. A record is
// compared against thousands of counterparts during a pair scan, so
// everything a measure would re-derive from the string on every call —
// normalization, rune decoding, tokenization, q-grams, sorted id sets,
// parsed numerics — is computed once per record instead. Callers request only the fields their measures need; the
// feature extractor picks them per attribute type.
type Fields uint

const (
	// FieldRunes decodes the normalized string into runes (edit distance,
	// Jaro, Jaro-Winkler).
	FieldRunes Fields = 1 << iota
	// FieldTokenRunes decodes each word token into runes and keeps its
	// word id (Monge-Elkan).
	FieldTokenRunes
	// FieldWordSet materializes the ascending distinct word ids (word
	// Jaccard, overlap, TF/IDF weighing).
	FieldWordSet
	// FieldQGrams materializes the ascending distinct padded 3-gram ids
	// (q-gram Jaccard).
	FieldQGrams
	// FieldNumeric parses the raw value as a number (numeric diffs).
	FieldNumeric
)

// AllFields builds every view; equivalence tests and generic callers use it.
const AllFields = FieldRunes | FieldTokenRunes | FieldWordSet | FieldQGrams |
	FieldNumeric

// Profile is the precomputed view of one attribute value. The profile fast
// paths below consume pairs of profiles and return results bit-identical to
// the corresponding string measures applied to Norm (for measures that
// normalize internally, to Raw as well): they run the same cores in the
// same floating-point summation order, only on prebuilt structures.
// Profiles are built column-wise by NewProfiles; the id views (TokenIDs,
// WordSet, GramSet, TFIDF.IDs) are ranks in vocabularies shared by the
// profiles of one NewProfiles call (intern.go).
type Profile struct {
	// Raw is the original attribute value; Norm is strutil.Normalize(Raw).
	Raw, Norm string
	// Runes is Norm decoded to runes (FieldRunes).
	Runes []rune
	// Tokens is strutil.Words(Norm); populated whenever any token-derived
	// field is requested.
	Tokens []string
	// TokenIDs holds each token's word id, aligned with Tokens
	// (FieldTokenRunes).
	TokenIDs []uint32
	// TokenRunes holds each token decoded to runes (FieldTokenRunes).
	TokenRunes [][]rune
	// WordSet is the ascending distinct word ids of Tokens (FieldWordSet).
	WordSet []uint32
	// GramSet is the ascending distinct padded 3-gram ids of Norm
	// (FieldQGrams).
	GramSet []uint32
	// Numeric / NumericOK are strutil.ParseNumeric(Raw) (FieldNumeric).
	Numeric   float64
	NumericOK bool
	// TFIDF is the corpus-weighted vector, set by NewProfiles for columns
	// built with a corpus.
	TFIDF *WeightedVector
}

// newProfile precomputes the per-value views of one attribute value; the
// id views need the whole column and are filled in by NewProfiles.
func newProfile(raw string, fields Fields) *Profile {
	p := &Profile{Raw: raw, Norm: strutil.Normalize(raw)}
	if fields&FieldRunes != 0 {
		p.Runes = []rune(p.Norm)
	}
	if fields&(FieldTokenRunes|FieldWordSet) != 0 {
		p.Tokens = strutil.Words(p.Norm)
	}
	if fields&FieldTokenRunes != 0 {
		p.TokenRunes = make([][]rune, len(p.Tokens))
		for i, t := range p.Tokens {
			p.TokenRunes[i] = []rune(t)
		}
	}
	if fields&FieldNumeric != 0 {
		p.Numeric, p.NumericOK = strutil.ParseNumeric(raw)
	}
	return p
}

// ExactMatchProfiles is the profile fast path of ExactMatch.
func ExactMatchProfiles(a, b *Profile) float64 {
	if a.Norm == "" && b.Norm == "" {
		return 0.5
	}
	if a.Norm == b.Norm {
		return 1
	}
	return 0
}

// EditSimProfiles is the profile fast path of EditSim (requires FieldRunes).
func EditSimProfiles(a, b *Profile, s *Scratch) float64 {
	return editSimRunes(a.Runes, b.Runes, s)
}

// JaroProfiles is the profile fast path of Jaro (requires FieldRunes).
func JaroProfiles(a, b *Profile, s *Scratch) float64 {
	return jaroRunes(a.Runes, b.Runes, s)
}

// JaroWinklerProfiles is the profile fast path of JaroWinkler (requires
// FieldRunes).
func JaroWinklerProfiles(a, b *Profile, s *Scratch) float64 {
	return jaroWinklerRunes(a.Runes, b.Runes, s)
}

// JaccardWordsProfiles is the profile fast path of JaccardWords (requires
// FieldWordSet).
func JaccardWordsProfiles(a, b *Profile) float64 {
	return jaccardIDs(a.WordSet, b.WordSet)
}

// JaccardQGramsProfiles is the profile fast path of JaccardQGrams (requires
// FieldQGrams).
func JaccardQGramsProfiles(a, b *Profile) float64 {
	return jaccardIDs(a.GramSet, b.GramSet)
}

// jaccardIDs mirrors jaccard over ascending distinct id sets: the
// intersection is a linear merge instead of map probes, and the result is
// the same integer-derived ratio.
func jaccardIDs(sa, sb []uint32) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := intersectIDs(sa, sb)
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

// intersectIDs counts common elements of two ascending distinct id sets.
func intersectIDs(sa, sb []uint32) int {
	inter := 0
	for i, j := 0, 0; i < len(sa) && j < len(sb); {
		x, y := sa[i], sb[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter
}

// OverlapWordsProfiles is the profile fast path of OverlapWords (requires
// FieldWordSet).
func OverlapWordsProfiles(a, b *Profile) float64 {
	sa, sb := a.WordSet, b.WordSet
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	small := len(sa)
	if len(sb) < small {
		small = len(sb)
	}
	return float64(intersectIDs(sa, sb)) / float64(small)
}

// MongeElkanProfiles is the profile fast path of MongeElkan (requires
// FieldTokenRunes). The string path runs Jaro-Winkler over every token
// pair twice, once per direction. Jaro-Winkler is symmetric bit for bit
// (pinned exhaustively by TestJaroWinklerSymmetric), so this path fills
// the |a|×|b| matrix once: row maxima give the a→b direction, column
// maxima the b→a direction, each summed in index order as the string path
// does. Equal token ids score exactly 1 without running Jaro, which is what
// Jaro-Winkler returns for identical runes.
func MongeElkanProfiles(a, b *Profile, s *Scratch) float64 {
	ta, tb := a.TokenRunes, b.TokenRunes
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	colBest := s.floatRow(len(tb))
	sumA := 0.0
	for i, x := range ta {
		best := 0.0
		for j, y := range tb {
			v := 1.0
			if a.TokenIDs[i] != b.TokenIDs[j] {
				v = jaroWinklerRunes(x, y, s)
			}
			if v > best {
				best = v
			}
			if v > colBest[j] {
				colBest[j] = v
			}
		}
		sumA += best
	}
	sumB := 0.0
	for _, v := range colBest {
		sumB += v
	}
	return (sumA/float64(len(ta)) + sumB/float64(len(tb))) / 2
}
