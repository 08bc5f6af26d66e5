// Package feature implements Corleone's feature library (§4.1 step 3 and
// §5.1): every tuple pair is converted into a vector of similarity scores,
// one per (attribute, measure) combination appropriate for the attribute's
// type. The library also carries a per-feature cost model used by the
// Blocker's greedy rule selection (§4.3), and supports lazy single-feature
// evaluation so blocking rules can short-circuit over A×B.
//
// The extractor precomputes a similarity.Profile for every (record,
// attribute) cell of both tables at construction: tokenization, rune
// decoding, q-gram counting, TF/IDF weighing, and numeric parsing happen
// once per record instead of once per comparison, so the pair-scan inner
// loop — the O(|A|·|B|) hot path — is arithmetic over prebuilt structures.
// Each attribute's two columns are profiled together, so word and q-gram
// ids share one vocabulary per (attribute, view) over A∪B. Shard workers
// rebuild the extractor from the same deterministic dataset and therefore
// get the same ids.
// The string-based path is retained as the reference implementation; the
// profile path is bit-identical to it (enforced by tests).
package feature

import (
	"fmt"
	"sync"

	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/strutil"
)

// Missing is the sentinel vector value for a feature whose inputs are
// absent. It sits below every genuine similarity (which live in [0, 1]) so
// decision-tree thresholds can route missing values down their own branch.
const Missing = -1.0

// profileFn is a similarity measure over precomputed profiles. The scratch
// carries reusable DP buffers; one scratch serves one goroutine.
type profileFn func(a, b *similarity.Profile, s *similarity.Scratch) float64

// Feature is one column of the feature vector: a similarity measure bound
// to an attribute.
type Feature struct {
	// Name is a stable human-readable identifier such as "title_jaccard_w";
	// extracted rules print it.
	Name string
	// Attr is the attribute the feature compares; AttrIdx its schema index.
	Attr    string
	AttrIdx int
	// Kind names the measure ("edit", "jaccard_w", ...).
	Kind string
	// Cost is the relative compute cost of the measure, in arbitrary units;
	// the Blocker prefers cheap rules all else equal (§4.3).
	Cost float64

	fn  func(a, b string) float64
	pfn profileFn
}

// Extractor binds a feature library to a dataset and computes vectors.
// Construction precomputes per-record profiles for both tables; Compute,
// Vector, and Vectors all route through them.
type Extractor struct {
	A, B     *record.Table
	features []Feature
	// profA[attrIdx][row] / profB[attrIdx][row] are the precomputed
	// profiles; entries are nil for attributes without features.
	profA, profB [][]*similarity.Profile
	// scratch pools per-goroutine DP buffers for callers that do not
	// thread their own (single Compute/Vector calls).
	scratch sync.Pool
}

// measure couples a similarity function with its name, cost, profile fast
// path, and the profile fields that fast path needs.
type measure struct {
	kind   string
	cost   float64
	fn     func(a, b string) float64
	pfn    profileFn
	fields similarity.Fields
}

func numericWrap(f func(x, y float64) float64) func(a, b string) float64 {
	return func(a, b string) float64 {
		x, okx := strutil.ParseNumeric(a)
		y, oky := strutil.ParseNumeric(b)
		if !okx || !oky {
			return Missing
		}
		return f(x, y)
	}
}

// numericWrapP mirrors numericWrap over profiles: the parse happened at
// profile-build time.
func numericWrapP(f func(x, y float64) float64) profileFn {
	return func(a, b *similarity.Profile, _ *similarity.Scratch) float64 {
		if !a.NumericOK || !b.NumericOK {
			return Missing
		}
		return f(a.Numeric, b.Numeric)
	}
}

// NewExtractor builds the feature library for the dataset's schema and
// precomputes both tables' profiles (in parallel across rows, with one
// shared vocabulary per attribute). Text
// attributes get TF/IDF features backed by a corpus built from the values of
// that attribute across both tables, mirroring how EM systems fit IDF on the
// data being matched.
func NewExtractor(ds *record.Dataset) *Extractor {
	e := &Extractor{
		A:     ds.A,
		B:     ds.B,
		profA: make([][]*similarity.Profile, len(ds.A.Schema)),
		profB: make([][]*similarity.Profile, len(ds.A.Schema)),
	}
	e.scratch.New = func() any { return similarity.NewScratch() }
	for idx, attr := range ds.A.Schema {
		var ms []measure
		var corpus *similarity.Corpus
		switch attr.Type {
		case record.AttrString:
			ms = []measure{
				{"exact", 1, similarity.ExactMatch, exactP, 0},
				{"jaro_winkler", 2, normWrap(similarity.JaroWinkler),
					normWrapP(similarity.JaroWinklerProfiles), similarity.FieldRunes},
				{"edit", 5, normWrap(similarity.EditSim),
					normWrapP(similarity.EditSimProfiles), similarity.FieldRunes},
				{"jaccard_w", 3, normWrap(similarity.JaccardWords),
					normWrapP(noScratch(similarity.JaccardWordsProfiles)), similarity.FieldWordSet},
				{"jaccard_3g", 4, normWrap(similarity.JaccardQGrams),
					normWrapP(noScratch(similarity.JaccardQGramsProfiles)), similarity.FieldQGrams},
				{"monge_elkan", 8, normWrap(similarity.MongeElkan),
					normWrapP(similarity.MongeElkanProfiles), similarity.FieldTokenRunes},
			}
		case record.AttrText:
			corpus = buildCorpus(ds, idx)
			ms = []measure{
				{"jaccard_w", 3, normWrap(similarity.JaccardWords),
					normWrapP(noScratch(similarity.JaccardWordsProfiles)), similarity.FieldWordSet},
				{"overlap_w", 3, normWrap(similarity.OverlapWords),
					normWrapP(noScratch(similarity.OverlapWordsProfiles)), similarity.FieldWordSet},
				{"tfidf_cos", 4, normWrap(corpus.Cosine),
					normWrapP(noScratch(corpus.CosineProfiles)), similarity.FieldWordSet},
			}
		case record.AttrNumeric:
			ms = []measure{
				{"exact", 1, similarity.ExactMatch, exactP, 0},
				{"rel_diff", 1, numericWrap(similarity.RelativeDiff),
					numericWrapP(similarity.RelativeDiff), similarity.FieldNumeric},
				{"abs_diff", 1, numericWrap(similarity.AbsDiff),
					numericWrapP(similarity.AbsDiff), similarity.FieldNumeric},
			}
		case record.AttrCategorical:
			ms = []measure{
				{"exact", 1, similarity.ExactMatch, exactP, 0},
				{"jaccard_3g", 4, normWrap(similarity.JaccardQGrams),
					normWrapP(noScratch(similarity.JaccardQGramsProfiles)), similarity.FieldQGrams},
				{"jaro_winkler", 2, normWrap(similarity.JaroWinkler),
					normWrapP(similarity.JaroWinklerProfiles), similarity.FieldRunes},
			}
		}
		if len(ms) == 0 {
			continue
		}
		var fields similarity.Fields
		for _, m := range ms {
			fields |= m.fields
			e.features = append(e.features, Feature{
				Name:    fmt.Sprintf("%s_%s", attr.Name, m.kind),
				Attr:    attr.Name,
				AttrIdx: idx,
				Kind:    m.kind,
				Cost:    m.cost,
				fn:      m.fn,
				pfn:     m.pfn,
			})
		}
		cols := similarity.NewProfiles(fields, corpus, column(ds.A, idx), column(ds.B, idx))
		e.profA[idx], e.profB[idx] = cols[0], cols[1]
	}
	return e
}

// column returns one attribute's values down a table.
func column(t *record.Table, attrIdx int) []string {
	out := make([]string, t.Len())
	for i, row := range t.Rows {
		out[i] = row[attrIdx]
	}
	return out
}

// exactP adapts ExactMatchProfiles to the profileFn shape (no scratch, no
// normWrap: exact match defines its own missing-value semantics).
func exactP(a, b *similarity.Profile, _ *similarity.Scratch) float64 {
	return similarity.ExactMatchProfiles(a, b)
}

// noScratch adapts scratch-free profile measures to the profileFn shape.
func noScratch(f func(a, b *similarity.Profile) float64) profileFn {
	return func(a, b *similarity.Profile, _ *similarity.Scratch) float64 {
		return f(a, b)
	}
}

// normWrap normalizes inputs and maps missing values to the Missing
// sentinel before delegating to the measure.
func normWrap(f func(a, b string) float64) func(a, b string) float64 {
	return func(a, b string) float64 {
		na, nb := strutil.Normalize(a), strutil.Normalize(b)
		if na == "" || nb == "" {
			return Missing
		}
		return f(na, nb)
	}
}

// normWrapP mirrors normWrap over profiles: normalization happened at
// profile-build time, so only the missing-value gate remains.
func normWrapP(f profileFn) profileFn {
	return func(a, b *similarity.Profile, s *similarity.Scratch) float64 {
		if a.Norm == "" || b.Norm == "" {
			return Missing
		}
		return f(a, b, s)
	}
}

func buildCorpus(ds *record.Dataset, attrIdx int) *similarity.Corpus {
	docs := make([]string, 0, ds.A.Len()+ds.B.Len())
	for _, row := range ds.A.Rows {
		docs = append(docs, row[attrIdx])
	}
	for _, row := range ds.B.Rows {
		docs = append(docs, row[attrIdx])
	}
	return similarity.NewCorpus(docs)
}

// NumFeatures returns the width of the feature vector.
func (e *Extractor) NumFeatures() int { return len(e.features) }

// Features returns the library entries (read-only view).
func (e *Extractor) Features() []Feature { return e.features }

// Names returns the feature names in vector order.
func (e *Extractor) Names() []string {
	out := make([]string, len(e.features))
	for i, f := range e.features {
		out[i] = f.Name
	}
	return out
}

// Name returns the name of feature i.
func (e *Extractor) Name(i int) string { return e.features[i].Name }

// Cost returns the compute cost of feature i.
func (e *Extractor) Cost(i int) float64 { return e.features[i].Cost }

// Profiles returns the precomputed profile columns backing feature i — one
// per row of table A and table B respectively. Index builders (the
// blocker's similarity-join planner) consume them directly; callers must
// treat both slices as read-only.
func (e *Extractor) Profiles(i int) (a, b []*similarity.Profile) {
	f := &e.features[i]
	return e.profA[f.AttrIdx], e.profB[f.AttrIdx]
}

// Compute evaluates a single feature for pair p via the profile fast path.
// This is the lazy path the Blocker uses when applying rules to A×B: only
// the features a rule actually references are computed.
func (e *Extractor) Compute(i int, p record.Pair) float64 {
	s := e.scratch.Get().(*similarity.Scratch)
	v := e.ComputeScratch(i, p, s)
	e.scratch.Put(s)
	return v
}

// ComputeScratch evaluates a single feature with a caller-owned scratch —
// the form the parallel scan loops use, one scratch per worker.
func (e *Extractor) ComputeScratch(i int, p record.Pair, s *similarity.Scratch) float64 {
	f := &e.features[i]
	return f.pfn(e.profA[f.AttrIdx][p.A], e.profB[f.AttrIdx][p.B], s)
}

// ComputeString evaluates a single feature from the raw strings — the
// reference path the profile fast path is verified against (and the
// before/after baseline for the benchmarks).
func (e *Extractor) ComputeString(i int, p record.Pair) float64 {
	f := &e.features[i]
	return f.fn(e.A.Rows[p.A][f.AttrIdx], e.B.Rows[p.B][f.AttrIdx])
}

// Vector computes the full feature vector for pair p.
func (e *Extractor) Vector(p record.Pair) []float64 {
	s := e.scratch.Get().(*similarity.Scratch)
	v := e.VectorScratch(p, s)
	e.scratch.Put(s)
	return v
}

// VectorScratch computes the full feature vector with a caller-owned
// scratch.
func (e *Extractor) VectorScratch(p record.Pair, s *similarity.Scratch) []float64 {
	v := make([]float64, len(e.features))
	for i := range e.features {
		v[i] = e.ComputeScratch(i, p, s)
	}
	return v
}

// VectorString computes the full feature vector via the string-based
// reference path.
func (e *Extractor) VectorString(p record.Pair) []float64 {
	v := make([]float64, len(e.features))
	for i := range e.features {
		v[i] = e.ComputeString(i, p)
	}
	return v
}

// Vectors computes feature vectors for all pairs, fanning out across
// GOMAXPROCS goroutines with one scratch per worker. Order matches the
// input order.
func (e *Extractor) Vectors(pairs []record.Pair) [][]float64 {
	out := make([][]float64, len(pairs))
	par.For(len(pairs), func(lo, hi int) {
		s := similarity.NewScratch()
		for i := lo; i < hi; i++ {
			out[i] = e.VectorScratch(pairs[i], s)
		}
	})
	return out
}
