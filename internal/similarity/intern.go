package similarity

import (
	"slices"
	"strings"
	"unicode/utf8"

	"github.com/corleone-em/corleone/internal/par"
)

// Rank interning. The set measures (word and q-gram Jaccard, overlap,
// TF/IDF cosine) and the similarity-join index compare sorted token sets
// by merging them. Merging []string sets spends most of its time
// in byte-wise string compares; merging []uint32 sets compares integers.
// Profiles therefore carry their word and q-gram sets as ids into a
// vocabulary shared by every profile built together (NewProfiles), and an
// id is the term's RANK among the vocabulary's terms in Go byte order. Id
// order is then string order: an ascending id set is the string set in the
// same order, every merge visits the common elements in the order the
// string merge did, and floating-point sums over them (TF/IDF cosine dot
// products) are bit-identical to the string path.
// Ids are only comparable between profiles of one NewProfiles call.

// interner assigns provisional ids to terms in first-seen order; ranks
// converts them to rank ids once every term has been seen.
type interner struct {
	index map[string]uint32
	terms []string
}

func newInterner() *interner { return &interner{index: make(map[string]uint32)} }

// id returns t's provisional id, assigning the next one on first sight.
func (in *interner) id(t string) uint32 {
	if id, ok := in.index[t]; ok {
		return id
	}
	id := uint32(len(in.terms))
	in.index[t] = id
	in.terms = append(in.terms, t)
	return id
}

// idBytes is id for a term held in a reusable buffer: the lookup does not
// allocate, only a first sighting copies the term into a string.
func (in *interner) idBytes(b []byte) uint32 {
	if id, ok := in.index[string(b)]; ok {
		return id
	}
	return in.id(string(b))
}

// ranks returns rank[provisional id] = the term's position among all
// terms sorted in Go byte order.
func (in *interner) ranks() []uint32 {
	order := make([]uint32, len(in.terms))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(x, y uint32) int { return strings.Compare(in.terms[x], in.terms[y]) })
	rank := make([]uint32, len(order))
	for r, p := range order {
		rank[p] = uint32(r)
	}
	return rank
}

// rankSet maps provisional ids to ranks in tmp (reusable space, returned
// grown) and returns countSet of the result.
func rankSet(ids, rank, tmp []uint32, withCounts bool) (set []uint32, counts []int32, _ []uint32) {
	tmp = tmp[:0]
	for _, id := range ids {
		tmp = append(tmp, rank[id])
	}
	set, counts = countSet(tmp, withCounts)
	return set, counts, tmp
}

// countSet sorts ids in place and returns the ascending distinct ids in a
// new slice, plus their multiplicities when withCounts is set. An empty
// input yields nil sets.
func countSet(ids []uint32, withCounts bool) (set []uint32, counts []int32) {
	if len(ids) == 0 {
		return nil, nil
	}
	slices.Sort(ids)
	n := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			n++
		}
	}
	set = make([]uint32, n)
	if withCounts {
		counts = make([]int32, n)
	}
	w := -1
	for i, v := range ids {
		if i == 0 || v != ids[i-1] {
			w++
			set[w] = v
		}
		if withCounts {
			counts[w]++
		}
	}
	return set, counts
}

// NewProfiles precomputes the requested views of every value in cols and
// returns the profiles column by column (out[c][i] profiles cols[c][i]).
// All columns share one word vocabulary and one q-gram vocabulary, so the
// id views of any two returned profiles compare; profiles from different
// calls do not. The feature extractor passes an attribute's table-A and
// table-B columns together. A non-nil corpus attaches each profile's
// TF/IDF-weighted vector (and implies FieldWordSet).
func NewProfiles(fields Fields, corpus *Corpus, cols ...[]string) [][]*Profile {
	if corpus != nil {
		fields |= FieldWordSet
	}
	out := make([][]*Profile, len(cols))
	n := 0
	for c, col := range cols {
		ps := make([]*Profile, len(col))
		par.For(len(col), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ps[i] = newProfile(col[i], fields)
			}
		})
		out[c] = ps
		n += len(ps)
	}
	all := make([]*Profile, 0, n)
	for _, ps := range out {
		all = append(all, ps...)
	}
	if fields&(FieldTokenRunes|FieldWordSet) != 0 {
		internWords(all, fields, corpus)
	}
	if fields&FieldQGrams != 0 {
		internGrams(all)
	}
	return out
}

// internWords fills TokenIDs (FieldTokenRunes), WordSet (FieldWordSet)
// and, with a corpus, TFIDF. Interning is one serial pass over every
// token; ranking, set building and weighing fan out across profiles.
func internWords(all []*Profile, fields Fields, corpus *Corpus) {
	in := newInterner()
	n := 0
	for _, p := range all {
		n += len(p.Tokens)
	}
	flat := make([]uint32, 0, n)
	for _, p := range all {
		lo := len(flat)
		for _, t := range p.Tokens {
			flat = append(flat, in.id(t))
		}
		p.TokenIDs = flat[lo:len(flat):len(flat)]
	}
	rank := in.ranks()
	var idf []float64
	if corpus != nil {
		idf = make([]float64, len(rank))
		for p, t := range in.terms {
			idf[rank[p]] = corpus.IDF(t)
		}
	}
	par.For(len(all), func(lo, hi int) {
		var tmp []uint32
		for _, p := range all[lo:hi] {
			if fields&FieldWordSet != 0 {
				var counts []int32
				p.WordSet, counts, tmp = rankSet(p.TokenIDs, rank, tmp, corpus != nil)
				if corpus != nil {
					p.TFIDF = weigh(p.WordSet, counts, idf)
				}
			}
			if fields&FieldTokenRunes == 0 {
				p.TokenIDs = nil
				continue
			}
			for i, id := range p.TokenIDs {
				p.TokenIDs[i] = rank[id]
			}
		}
	})
}

// internGrams fills GramSet from the padded 3-grams of each profile's
// Norm — the grams strutil.QGrams(Norm, 3) lists, generated here straight
// into the interner without materializing a string per gram.
func internGrams(all []*Profile) {
	in := newInterner()
	n := 0
	for _, p := range all {
		if p.Norm != "" {
			n += utf8.RuneCountInString(p.Norm) + 2 // padded runes − 2
		}
	}
	flat := make([]uint32, 0, n)
	ends := make([]int, len(all))
	var rs []rune
	var key [3 * utf8.UTFMax]byte
	for k, p := range all {
		if p.Norm != "" {
			rs = append(rs[:0], '#', '#')
			for _, r := range strings.ToLower(p.Norm) {
				rs = append(rs, r)
			}
			rs = append(rs, '#', '#')
			for i := 0; i+3 <= len(rs); i++ {
				w := utf8.EncodeRune(key[:], rs[i])
				w += utf8.EncodeRune(key[w:], rs[i+1])
				w += utf8.EncodeRune(key[w:], rs[i+2])
				flat = append(flat, in.idBytes(key[:w]))
			}
		}
		ends[k] = len(flat)
	}
	rank := in.ranks()
	par.For(len(all), func(lo, hi int) {
		var tmp []uint32
		for k := lo; k < hi; k++ {
			start := 0
			if k > 0 {
				start = ends[k-1]
			}
			all[k].GramSet, _, tmp = rankSet(flat[start:ends[k]], rank, tmp, false)
		}
	})
}
