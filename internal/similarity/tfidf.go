package similarity

import (
	"math"
	"sort"

	"github.com/corleone-em/corleone/internal/strutil"
)

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Corpus holds inverse document frequencies learned from a collection of
// documents (attribute values across both tables). TF/IDF cosine similarity
// weights rare tokens (model numbers, distinctive words) more heavily than
// ubiquitous ones ("the", "kit").
type Corpus struct {
	idf  map[string]float64
	docs int
}

// NewCorpus builds IDF statistics from the given documents. Tokens absent
// from the corpus at query time receive the maximum IDF (they are rarer than
// anything seen).
func NewCorpus(docs []string) *Corpus {
	df := make(map[string]int)
	for _, d := range docs {
		for t := range strutil.TokenSet(strutil.Words(d)) {
			df[t]++
		}
	}
	c := &Corpus{idf: make(map[string]float64, len(df)), docs: len(docs)}
	for t, n := range df {
		c.idf[t] = math.Log(float64(c.docs+1) / float64(n+1))
	}
	return c
}

// IDF returns the inverse document frequency of token t.
func (c *Corpus) IDF(t string) float64 {
	if v, ok := c.idf[t]; ok {
		return v
	}
	return math.Log(float64(c.docs + 1))
}

// WeightedVector is a record's TF/IDF view under one corpus: the distinct
// token ids in ascending order with their term frequencies, IDFs,
// precomputed weights W[i] = TF[i]·IDF[i], and the squared norm Σ W[i]²
// accumulated in ascending id order. Ids are rank ids (intern.go), so
// ascending id order is sorted token order. Precomputing it once per
// record removes the per-comparison tokenization, key sorting, and IDF map
// probes — including the old Cosine's duplicated IDF lookup, which weighed
// tokens common to both strings twice across its two sortedKeys passes.
type WeightedVector struct {
	IDs  []uint32
	TF   []int32
	IDF  []float64
	W    []float64
	Norm float64
}

// weigh builds the weighted vector of an ascending id set with its term
// frequencies; idf is indexed by id.
func weigh(ids []uint32, tf []int32, idf []float64) *WeightedVector {
	v := &WeightedVector{
		IDs: ids,
		TF:  tf,
		IDF: make([]float64, len(ids)),
		W:   make([]float64, len(ids)),
	}
	for i, id := range ids {
		x := idf[id]
		w := float64(tf[i]) * x
		v.IDF[i] = x
		v.W[i] = w
		v.Norm += w * w
	}
	return v
}

// CosineVectors is the cosine of two corpus-weighted vectors (which must
// come from the same corpus and vocabulary). The dot product merges the
// ascending id lists, visiting common tokens in sorted token order — the
// same floating-point summation order as the string path, so scores are
// bit-identical.
func CosineVectors(a, b *WeightedVector) float64 {
	if len(a.IDs) == 0 && len(b.IDs) == 0 {
		return 0.5
	}
	if len(a.IDs) == 0 || len(b.IDs) == 0 {
		return 0
	}
	var dot float64
	for i, j := 0, 0; i < len(a.IDs) && j < len(b.IDs); {
		x, y := a.IDs[i], b.IDs[j]
		switch {
		case x < y:
			i++
		case x > y:
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
		s = 1 // guard against fp drift
	}
	return s
}

// Cosine returns the TF/IDF-weighted cosine similarity of a and b in [0,1].
// Two empty strings are treated as unknown (0.5), one empty as 0. The
// sorted distinct tokens of both strings form a vocabulary of their own,
// so the two vectors compare through the same id merge as profiles do.
func (c *Corpus) Cosine(a, b string) float64 {
	ta, tb := strutil.Words(a), strutil.Words(b)
	terms := strutil.SortedSet(append(append([]string(nil), ta...), tb...))
	idf := make([]float64, len(terms))
	for i, t := range terms {
		idf[i] = c.IDF(t)
	}
	return CosineVectors(weighTerms(terms, ta, idf), weighTerms(terms, tb, idf))
}

// weighTerms weighs a token list whose tokens all occur in the sorted
// vocabulary terms; a token's id is its position there.
func weighTerms(terms, toks []string, idf []float64) *WeightedVector {
	ids := make([]uint32, len(toks))
	for i, t := range toks {
		ids[i] = uint32(sort.SearchStrings(terms, t))
	}
	set, tf := countSet(ids, true)
	return weigh(set, tf, idf)
}

// CosineProfiles is the profile fast path of Cosine: both profiles must
// have been built by one NewProfiles call with this corpus.
func (c *Corpus) CosineProfiles(a, b *Profile) float64 {
	return CosineVectors(a.TFIDF, b.TFIDF)
}
