// Package simindex implements an inverted-index similarity join over
// precomputed similarity profiles. It answers one question fast: given a
// probe record and a threshold θ, which rows of an indexed table COULD have
// set-based similarity strictly greater than θ? The answer is a provably
// complete superset of the true result — the caller re-verifies each
// candidate exactly — so the index can be dropped in front of any exact
// evaluator without changing its output.
//
// This is the machine-side pruning that crowdsourced-EM systems (CrowdER,
// and Corleone's own §4.3 Hadoop offload) use to avoid the O(|A|·|B|)
// Cartesian scan: when a blocking rule has the shape sim(f) ≤ θ → No, the
// survivors are exactly the pairs with sim(f) > θ, which an inverted index
// over tokens enumerates without ever visiting the rest of the product.
//
// Supported measures are the feature library's set-based similarities:
// word Jaccard, q-gram Jaccard, word overlap coefficient, and TF/IDF
// cosine. For Jaccard the index additionally applies length filtering
// (|b| must lie in [θ·|a|, |a|/θ]) and prefix filtering (a qualifying pair
// must share a token among the first |a| − ⌈θ·|a|⌉ + 1 probe tokens); both
// filters only ever discard rows that cannot clear θ, so completeness is
// preserved. All floating-point bounds are slackened by a small epsilon
// toward inclusion: a borderline row costs one wasted verification, never
// a lost candidate.
package simindex

import (
	"math"
	"sort"

	"github.com/corleone-em/corleone/internal/similarity"
)

// Kind names the similarity measure an Index accelerates.
type Kind int

const (
	// JaccardWords is the Jaccard coefficient over distinct word tokens
	// (feature kind "jaccard_w", profile field WordSet).
	JaccardWords Kind = iota
	// JaccardQGrams is the Jaccard coefficient over distinct padded 3-grams
	// (feature kind "jaccard_3g", profile field GramSet).
	JaccardQGrams
	// OverlapWords is the overlap coefficient over distinct word tokens
	// (feature kind "overlap_w").
	OverlapWords
	// CosineTFIDF is the corpus-weighted cosine (feature kind "tfidf_cos",
	// profile field TFIDF).
	CosineTFIDF
)

// KindOf maps a feature-library measure name to its index kind. The second
// return is false for measures the index cannot accelerate.
func KindOf(measure string) (Kind, bool) {
	switch measure {
	case "jaccard_w":
		return JaccardWords, true
	case "jaccard_3g":
		return JaccardQGrams, true
	case "overlap_w":
		return OverlapWords, true
	case "tfidf_cos":
		return CosineTFIDF, true
	default:
		return 0, false
	}
}

// eps slackens every floating-point filter bound toward inclusion. The
// quantities involved are ratios and products of small integers with a
// float64 threshold, so their rounding error is many orders of magnitude
// below 1e-9; the slack turns any boundary rounding into at most one extra
// candidate, never a missed one.
const eps = 1e-9

// Index is an inverted index over one attribute column of the indexed
// table: token id → ascending row ids, plus per-row set sizes for length
// filtering. Probes must come from the same similarity.NewProfiles call as
// the indexed column, so their token ids share its vocabulary. Build it
// once per (feature, table); it is read-only afterwards and safe for
// concurrent probes.
type Index struct {
	kind Kind
	// postings[id] is the ascending list of rows whose set contains the
	// token (or q-gram) with that rank id; ids past the end, like ids only
	// the probe side uses, have no rows. For CosineTFIDF, zero-weight
	// tokens (IDF 0) are not indexed: they contribute nothing to any dot
	// product, so a pair whose only shared tokens are zero-weight scores 0
	// and cannot exceed θ ≥ 0.
	postings [][]int32
	// size[r] is the distinct-token (or distinct-gram) set size of row r;
	// 0 for rows with a missing value or an empty set.
	size []int32
	// emptySet lists rows whose value is present (Norm != "") but whose
	// token set is empty (e.g. pure punctuation). Set measures score such
	// rows 1 (Jaccard, overlap) or 0.5 (cosine) against equally token-less
	// probes, so they are candidates exactly for token-less probes.
	emptySet []int32
}

// keys returns the ascending distinct token ids of p that kind compares
// on, or nil when the value is missing. The bool reports whether the value
// is present.
func keys(kind Kind, p *similarity.Profile) ([]uint32, bool) {
	if p == nil || p.Norm == "" {
		return nil, false
	}
	switch kind {
	case JaccardWords, OverlapWords:
		return p.WordSet, true
	case JaccardQGrams:
		return p.GramSet, true
	case CosineTFIDF:
		if p.TFIDF == nil {
			return nil, false
		}
		return p.TFIDF.IDs, true
	}
	return nil, false
}

// postingsLen is the length of id's postings list (0 for ids the indexed
// rows never use).
func (ix *Index) postingsLen(id uint32) int {
	if int(id) < len(ix.postings) {
		return len(ix.postings[id])
	}
	return 0
}

// Build indexes the profile column of the table being probed against
// (table B in the blocker). Rows with missing values (Norm == "") are not
// indexed: the feature layer maps them to the Missing sentinel (−1), which
// can never exceed a threshold θ ≥ 0.
func Build(kind Kind, profs []*similarity.Profile) *Index {
	ix := &Index{kind: kind, size: make([]int32, len(profs))}
	for r, p := range profs {
		ks, ok := keys(kind, p)
		if !ok {
			continue
		}
		if len(ks) == 0 {
			ix.emptySet = append(ix.emptySet, int32(r))
			continue
		}
		n := 0
		for i, id := range ks {
			if kind == CosineTFIDF && p.TFIDF.W[i] == 0 {
				continue // cannot contribute to any dot product
			}
			if int(id) >= len(ix.postings) {
				ix.postings = append(ix.postings, make([][]int32, int(id)+1-len(ix.postings))...)
			}
			ix.postings[id] = append(ix.postings[id], int32(r))
			n++
		}
		ix.size[r] = int32(n)
	}
	return ix
}

// Tokens returns the number of distinct indexed tokens (diagnostics).
func (ix *Index) Tokens() int {
	n := 0
	for _, ps := range ix.postings {
		if len(ps) > 0 {
			n++
		}
	}
	return n
}

// sliceHeaderBytes is the size of one postings slot: a slice header.
const sliceHeaderBytes = 24

// Footprint estimates the index's resident bytes: one slice header per id
// slot, postings ids (4 bytes each), and the size and empty-set arrays. It
// is the quantity sharded execution bounds per worker — at billions of
// candidate pairs the postings lists are the dominant memory term of the
// blocking scan.
func (ix *Index) Footprint() int64 {
	n := int64(len(ix.postings)) * sliceHeaderBytes
	for _, ps := range ix.postings {
		n += int64(len(ps)) * 4
	}
	n += int64(len(ix.size))*4 + int64(len(ix.emptySet))*4
	return n
}

// Scratch carries one probe's reusable working state: an epoch-stamped
// seen-mark per indexed row (so candidate sets dedupe without clearing an
// array per probe) and the candidate accumulator. One Scratch serves one
// goroutine.
type Scratch struct {
	mark  []int32
	epoch int32
	cand  []int32
	order []int32
}

// NewScratch returns an empty scratch; it grows to the indexed table's size
// on first use.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) reset(n int) {
	if len(s.mark) < n {
		s.mark = make([]int32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == math.MaxInt32 { // wrapped: clear and restart
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	s.cand = s.cand[:0]
}

// Candidates returns the ascending row ids of every indexed row whose
// similarity to probe could strictly exceed theta (theta ≥ 0): a complete
// superset of {r : sim(probe, r) > theta}. The returned slice aliases the
// scratch and is valid until the next call with the same scratch.
//
// Completeness argument, per filter:
//
//   - Postings. Every supported measure scores 0 when exactly one side's
//     token set is empty, and sim > θ ≥ 0 requires either a shared token
//     (when the probe has tokens — for cosine, a shared positive-weight
//     token, and zero-weight tokens are exactly the ones not indexed) or
//     two empty sets (scored 1, or 0.5 for cosine — the emptySet rows).
//     Probing every token's postings list therefore reaches every
//     qualifying row.
//   - Length filter (Jaccard only). J(a,b) ≤ min(|a|,|b|)/max(|a|,|b|), so
//     J > θ forces θ·|a| < |b| < |a|/θ; rows outside the (ε-slackened)
//     bound cannot qualify.
//   - Prefix filter (Jaccard only). J > θ and |b| > θ·|a| force the shared
//     distinct-token count I > θ·|a|, i.e. I ≥ minI with
//     minI = max(1, ⌊θ·|a| − ε⌋ + 1). If a row shares none of the first
//     |a| − minI + 1 probe tokens, all shared tokens lie among the
//     remaining minI − 1, so I < minI — the row cannot qualify and probing
//     only the prefix is complete. (The argument counts distinct shared
//     tokens only, so it holds for any fixed token order; we order the
//     probe's tokens by ascending postings-list length so the prefix holds
//     its rarest tokens, maximizing pruning.)
//
// Rows whose value is missing are never returned (their feature value is
// the Missing sentinel −1 ≤ θ); a probe with a missing value returns nil
// for the same reason.
func (ix *Index) Candidates(probe *similarity.Profile, theta float64, s *Scratch) []int32 {
	if theta < 0 {
		// Callers gate on θ ≥ 0; below 0 the survivor set is "any pair with
		// a present value", which an inverted index cannot enumerate.
		panic("simindex: negative threshold")
	}
	ks, ok := keys(ix.kind, probe)
	if !ok {
		return nil
	}
	if len(ks) == 0 {
		// Token-less probe: only equally token-less rows score above 0.
		return ix.emptySet
	}
	sa := len(ks)
	prefix := sa
	var sbLo, sbHi float64 = 0, math.Inf(1)
	if ix.kind == JaccardWords || ix.kind == JaccardQGrams {
		minI := int(math.Floor(theta*float64(sa)-eps)) + 1
		if minI < 1 {
			minI = 1
		}
		prefix = sa - minI + 1
		if prefix < 0 {
			prefix = 0 // θ·|a| ≥ |a| ⟹ no row can overlap enough
		}
		sbLo = theta*float64(sa) - eps
		if theta > 0 {
			sbHi = float64(sa)/theta + eps
		}
	}

	// The completeness argument holds for any fixed order of the probe's
	// tokens, so when the prefix filter is active we probe the tokens with
	// the shortest postings lists first: the prefix then consists of the
	// rarest tokens, which shrinks the candidate set by orders of magnitude
	// on skewed vocabularies without giving up a single qualifying row.
	ord := s.order[:0]
	for i := int32(0); i < int32(sa); i++ {
		ord = append(ord, i)
	}
	s.order = ord
	if prefix < sa {
		sort.Slice(ord, func(i, j int) bool {
			li, lj := ix.postingsLen(ks[ord[i]]), ix.postingsLen(ks[ord[j]])
			if li != lj {
				return li < lj
			}
			return ord[i] < ord[j]
		})
	}

	s.reset(len(ix.size))
	for _, i := range ord[:prefix] {
		if ix.kind == CosineTFIDF && probe.TFIDF.W[i] == 0 {
			continue // zero-weight token cannot contribute to the dot product
		}
		if int(ks[i]) >= len(ix.postings) {
			continue // no indexed row holds this token
		}
		for _, r := range ix.postings[ks[i]] {
			if s.mark[r] == s.epoch {
				continue
			}
			s.mark[r] = s.epoch
			sb := float64(ix.size[r])
			if sb < sbLo || sb > sbHi {
				continue
			}
			s.cand = append(s.cand, r)
		}
	}
	sort.Slice(s.cand, func(i, j int) bool { return s.cand[i] < s.cand[j] })
	return s.cand
}
