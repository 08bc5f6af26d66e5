package blocker

import (
	"testing"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
	"github.com/corleone-em/corleone/internal/tree"
)

// givenOrderVerifier is the rule verifier as it was before cost ordering:
// the same memoized lazy evaluation, with the rules tested in the order
// the blocker selected them. It is the oracle shard.Verifier's cost
// ordering must agree with, and the baseline of the verify benches.
type givenOrderVerifier struct {
	ex      *feature.Extractor
	rules   []tree.Rule
	vals    []float64
	have    []bool
	scratch *similarity.Scratch
}

func newGivenOrderVerifier(ex *feature.Extractor, rules []tree.Rule) *givenOrderVerifier {
	return &givenOrderVerifier{
		ex:      ex,
		rules:   rules,
		vals:    make([]float64, ex.NumFeatures()),
		have:    make([]bool, ex.NumFeatures()),
		scratch: similarity.NewScratch(),
	}
}

func (v *givenOrderVerifier) Survives(p record.Pair) bool {
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

// indexCandidates runs the blocker on Citations at the given scale and
// t_B with a noiseless crowd and returns the extractor, the selected
// rules, and every candidate pair the planner's anchor index hands to
// verification.
func indexCandidates(tb testing.TB, scale float64, tB int) (*feature.Extractor, []tree.Rule, []record.Pair) {
	tb.Helper()
	ds := datagen.Generate(datagen.Scaled(datagen.CitationsPaper, scale))
	ex := feature.NewExtractor(ds)
	cfg := Defaults()
	cfg.TB = tB
	res, err := Run(ds, ex, crowd.NewRunner(&crowd.Oracle{Truth: ds.Truth}, 0.01), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	p := planRules(ex, res.Selected)
	if !p.indexed {
		tb.Skip("selected rules have no indexable anchor")
	}
	profA, profB := ex.Profiles(p.feature)
	ix := simindex.Build(p.kind, profB)
	s := simindex.NewScratch()
	var cands []record.Pair
	for a := range profA {
		for _, b := range ix.Candidates(profA[a], p.theta, s) {
			cands = append(cands, record.Pair{A: int32(a), B: b})
		}
	}
	return ex, res.Selected, cands
}

// TestVerifierCostOrderMatchesGivenOrder pins the cost-ordered verifier to
// the given-order oracle on real index candidates: reordering the rules
// may change how many features a pair costs, never whether it survives.
func TestVerifierCostOrderMatchesGivenOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full blocking run")
	}
	ex, rules, cands := indexCandidates(t, 0.05, 40000)
	if len(rules) < 2 {
		t.Skipf("only %d rule(s) selected; order cannot matter", len(rules))
	}
	given, cost := newGivenOrderVerifier(ex, rules), newVerifier(ex, rules)
	survivors := 0
	for _, p := range cands {
		g := given.Survives(p)
		if c := cost.Survives(p); c != g {
			t.Fatalf("pair %v: cost order survives=%v, given order %v", p, c, g)
		}
		if g {
			survivors++
		}
	}
	t.Logf("%d rules, %d candidates, %d survivors", len(rules), len(cands), survivors)
}

// benchVerify verifies every citations-workload index candidate (Citations
// at scale 0.1, t_B 78,519) once per op.
func benchVerify(b *testing.B, survives func(*feature.Extractor, []tree.Rule) func(record.Pair) bool) {
	ex, rules, cands := indexCandidates(b, 0.1, 78519)
	f := survives(ex, rules)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range cands {
			f(p)
		}
	}
	b.ReportMetric(float64(len(cands)), "pairs/op")
}

// BenchmarkVerifyGivenOrder verifies the candidates with the rules in the
// order the blocker selected them.
func BenchmarkVerifyGivenOrder(b *testing.B) {
	benchVerify(b, func(ex *feature.Extractor, rules []tree.Rule) func(record.Pair) bool {
		return newGivenOrderVerifier(ex, rules).Survives
	})
}

// BenchmarkVerifyCostOrder verifies the same candidates through the
// shipping shard.Verifier, which tests the cheapest rules first.
func BenchmarkVerifyCostOrder(b *testing.B) {
	benchVerify(b, func(ex *feature.Extractor, rules []tree.Rule) func(record.Pair) bool {
		return newVerifier(ex, rules).Survives
	})
}
