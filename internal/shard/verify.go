package shard

import (
	"cmp"
	"slices"

	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/tree"
)

// Verifier evaluates a full blocking-rule set on one pair with lazily
// computed, memoized features — the exact §4.3 semantics every candidate-
// generation strategy shares. The exhaustive scan, in-process shard
// workers, and remote shard workers all verify through this one evaluator, which is why their outputs are bit-identical:
// candidate generation only ever decides which pairs get *checked*, never
// which pairs *survive*. One Verifier serves one goroutine.
//
// The verifier tests the rules cheapest first. A pair survives iff no rule
// covers it: an AND over pure predicates on memoized features, so the
// order cannot change which pairs survive, only how many features a
// rejected pair costs. Putting the cheap rules first means the usual
// rejection — often by the cheap rule that anchored candidate generation —
// happens before any expensive feature is computed.
type Verifier struct {
	ex      *feature.Extractor
	rules   []tree.Rule
	vals    []float64
	have    []bool
	scratch *similarity.Scratch
}

// NewVerifier binds the rule set to the extractor. It keeps its own copy of
// the rules, stably sorted by Rule.EvalCost; the caller's slice is not
// reordered.
func NewVerifier(ex *feature.Extractor, rules []tree.Rule) *Verifier {
	sorted := slices.Clone(rules)
	slices.SortStableFunc(sorted, func(x, y tree.Rule) int {
		return cmp.Compare(x.EvalCost(ex.Cost), y.EvalCost(ex.Cost))
	})
	return &Verifier{
		ex:      ex,
		rules:   sorted,
		vals:    make([]float64, ex.NumFeatures()),
		have:    make([]bool, ex.NumFeatures()),
		scratch: similarity.NewScratch(),
	}
}

// Survives reports whether no rule eliminates p. Features are computed at
// most once per pair and shared across rules.
func (v *Verifier) Survives(p record.Pair) bool {
	for i := range v.have {
		v.have[i] = false
	}
	get := func(f int) float64 {
		if !v.have[f] {
			v.vals[f] = v.ex.ComputeScratch(f, p, v.scratch)
			v.have[f] = true
		}
		return v.vals[f]
	}
	for _, r := range v.rules {
		if r.MatchesFunc(get) {
			return false
		}
	}
	return true
}
